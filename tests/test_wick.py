import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import pytest

import mvvol.wick as wick
from mvvol.bracket import single_bracket
from mvvol.combinatorics import partitions_of_size
from mvvol.exact_arith import PiValue
from mvvol.wick import multi_bracket
from oracles import SetPartition, complementary_partitions


def mono(num, den, exp):
    return PiValue(Fraction(num, den), exp)


class LabeledSlotMap:
    """Slot layout of a tuple of partitions: values and interval grouping.

    Oracle scaffolding: the defining complement sum is written on it.
    """

    __slots__ = ("args", "slot_values", "rho")

    def __init__(self, args: Sequence[tuple[int, ...]]):
        self.args = tuple(args)
        values: list[int] = []
        blocks: list[tuple[int, ...]] = []
        pos = 1
        for lam in self.args:
            if len(lam) == 0:
                raise ValueError("empty partition argument")
            values.extend(lam)
            blocks.append(tuple(range(pos, pos + len(lam))))
            pos += len(lam)
        self.slot_values = tuple(values)
        self.rho = SetPartition(blocks)

    def values_in(self, block: Iterable[int]) -> tuple[int, ...]:
        """Multiset of part values carried by the given slot labels."""
        return tuple(self.slot_values[u - 1] for u in block)


def test_slot_layout_worked_example():
    # three arguments of lengths 3, 1, 2 occupy slots 1..6 left to right
    sm = LabeledSlotMap([(5, 3, 2), (4,), (7, 6)])
    assert sm.slot_values == (5, 3, 2, 4, 7, 6)
    assert sm.rho == SetPartition([(1, 2, 3), (4,), (5, 6)])
    alpha = SetPartition([(1, 4), (2, 6), (3,), (5,)])
    assert alpha in set(complementary_partitions(sm.rho))
    assert [sm.values_in(b) for b in alpha] == [(5, 4), (3, 6), (2,), (7,)]


def test_slot_layout_rejects_empty_argument():
    with pytest.raises(ValueError):
        LabeledSlotMap([()])
    with pytest.raises(ValueError):
        multi_bracket([(2, 1), ()])


def test_frozen_values():
    assert multi_bracket([(1, 1)]) == mono(1, 36, 4)
    assert multi_bracket([(3,)]) == mono(7, 60, 4)
    assert multi_bracket([(2,), (2,)]) == mono(16, 45, 4)
    assert multi_bracket([(2,), (2,), (2,), (2,)]) == single_bracket((2, 2, 2, 2))


def test_single_part_arguments_merge():
    for s in range(1, 9):
        for lam in partitions_of_size(s):
            got = multi_bracket([(v,) for v in lam])
            assert got == single_bracket(lam), lam


def test_three_singletons_all_values():
    for a, b, c in product(range(1, 6), repeat=3):
        assert multi_bracket([(a,), (b,), (c,)]) == single_bracket((a, b, c))


def test_argument_order_invariance():
    args = [(2, 1), (3,), (1, 1)]
    base = multi_bracket(args)
    assert base == multi_bracket([(3,), (1, 1), (2, 1)])
    assert base == multi_bracket([(1, 1), (2, 1), (3,)])


def test_grading():
    cases = [
        [(1, 1)],
        [(2, 2)],
        [(3, 1), (2,)],
        [(2, 1), (1, 1)],
        [(1, 1), (1, 1), (1, 1)],
        [(4,), (2, 2)],
        [(5, 1), (3, 1)],
    ]
    for args in cases:
        val = multi_bracket(args)
        if val.is_zero():
            continue
        S = sum(sum(a) for a in args)
        T = sum(len(a) for a in args)
        n = len(args)
        _, e = val.monomial()
        assert e == S + T - 2 * n + 2, args


def test_parity_zero():
    # S + T even makes the would-be exponent odd, so the sum must vanish
    assert multi_bracket([(2,), (1, 1)]).is_zero()
    assert multi_bracket([(1,), (1, 1)]).is_zero() is False


def test_memo_serves_reordered_arguments():
    wick.clear_cache()
    first = multi_bracket([(1, 1), (2,)])
    entries = len(wick._CACHE)
    assert entries > 0
    # same multiset of args, served from memo
    assert multi_bracket([(2,), (1, 1)]) == first
    assert len(wick._CACHE) == entries


def test_empty_argument_list_rejected():
    with pytest.raises(ValueError):
        multi_bracket([])


def test_argument_parts_checked_and_sorted():
    # each argument goes through combinatorics.canonical: a zero or a
    # non-integer part is refused, and parts may come in any order
    with pytest.raises(ValueError):
        multi_bracket([(2, 0)])
    with pytest.raises(ValueError):
        multi_bracket([(2.5,)])
    assert multi_bracket([(1, 2)]) == multi_bracket([(2, 1)])


# -- differential sweeps: the rational fast path against PiValue oracles --------


def oracle_multi_bracket(args):
    # the defining sum, every product and sum in PiValue arithmetic
    slot_map = LabeledSlotMap(tuple(sorted(tuple(a) for a in args)))
    total = PiValue.zero()
    for alpha in complementary_partitions(slot_map.rho):
        term = PiValue(1)
        for block in alpha:
            term = term * single_bracket(slot_map.values_in(block))
        total = total + term
    return total


def random_args(rng, max_slots):
    slots = rng.randint(1, max_slots)
    args = []
    while slots:
        length = rng.randint(1, slots)
        args.append(sorted((rng.randint(1, 4) for _ in range(length)), reverse=True))
        slots -= length
    return tuple(sorted(tuple(a) for a in args))


def test_multi_bracket_matches_pivalue_oracle():
    rng = random.Random(20011)
    seen = set()
    while len(seen) < 200:
        args = random_args(rng, 8)
        if args in seen:
            continue
        seen.add(args)
        assert multi_bracket(args) == oracle_multi_bracket(args), args
    assert max(sum(len(a) for a in args) for args in seen) == 8


def test_multi_bracket_zero_for_odd_grading_after_clear():
    wick.clear_cache()
    assert multi_bracket([(2,), (1, 1)]).is_zero()


# -- differential sweep: the rooted-tree recursion against the complement sum ---


def oracle_coefficient(args):
    # the defining complement sum in Fractions
    slot_map = LabeledSlotMap(tuple(sorted(tuple(a) for a in args)))
    total = Fraction(0)
    for alpha in complementary_partitions(slot_map.rho):
        prod = Fraction(1)
        for block in alpha:
            prod *= single_bracket(slot_map.values_in(block)).q
            if not prod:
                break
        total += prod
    return total


def exponent_of(args):
    return sum(map(sum, args)) + sum(map(len, args)) - 2 * len(args) + 2


def check_against_oracle(args):
    q = oracle_coefficient(args)
    wick.clear_cache()
    assert multi_bracket(args) == PiValue(q, exponent_of(args)), args


def random_tuple_with_repeats(rng, max_slots):
    # parts 1..4, so parts repeat; now and then an argument is repeated
    slots = rng.randint(1, max_slots)
    args = []
    while slots:
        if args and rng.random() < 0.3:
            lam = rng.choice(args)
            if len(lam) <= slots:
                args.append(lam)
                slots -= len(lam)
                continue
        length = rng.randint(1, min(slots, 4))
        args.append(tuple(sorted((rng.randint(1, 4) for _ in range(length)), reverse=True)))
        slots -= length
    return tuple(sorted(args))


def test_recursion_matches_complement_sum():
    rng = random.Random(60601)
    seen = set()
    while len(seen) < 200:
        args = random_tuple_with_repeats(rng, 10)
        if args in seen:
            continue
        seen.add(args)
        check_against_oracle(args)
    slots = [sum(map(len, args)) for args in seen]
    assert max(slots) == 10 and sum(n >= 9 for n in slots) >= 40
    assert sum(any(a == b for a, b in zip(args, args[1:])) for args in seen) >= 50
    assert sum(any(len(set(a)) < len(a) for a in args) for args in seen) >= 50


@pytest.mark.parametrize("args", [
    [(3, 2, 2, 1)],  # a single argument: every slot its own block
    [(5,)],
    [(2,), (2,), (1,), (3,)],  # all single-part: one block of every slot
    [(2,), (1, 1)],  # odd grading: zero
    [(2, 2), (1,), (1, 1, 1)],
    [(1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
])
def test_recursion_edge_cases(args):
    check_against_oracle(args)

