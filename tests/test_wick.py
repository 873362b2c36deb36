import math
import random
from fractions import Fraction
from itertools import product

import pytest

import mvvol.wick as wick
from mvvol.bracket import single_bracket
from mvvol.combinatorics import (
    Partition,
    SetPartition,
    complementary_partitions,
    partitions_of_size,
)
from mvvol.exact_arith import PiValue
from mvvol.wick import LabeledSlotMap, multi_bracket, term_count


def mono(num, den, exp):
    return PiValue([(exp, Fraction(num, den))])


def test_slot_layout_worked_example():
    # three arguments of lengths 3, 1, 2 occupy slots 1..6 left to right
    sm = LabeledSlotMap([Partition((5, 3, 2)), Partition((4,)), Partition((7, 6))])
    assert sm.slot_values == (5, 3, 2, 4, 7, 6)
    assert sm.rho == SetPartition([(1, 2, 3), (4,), (5, 6)])
    alpha = SetPartition([(1, 4), (2, 6), (3,), (5,)])
    assert alpha in set(complementary_partitions(sm.rho))
    assert [sm.values_in(b) for b in alpha] == [(5, 4), (3, 6), (2,), (7,)]


def test_slot_layout_rejects_empty_argument():
    with pytest.raises(ValueError):
        LabeledSlotMap([Partition(())])


def test_frozen_values():
    assert multi_bracket([(1, 1)]) == mono(1, 36, 4)
    assert multi_bracket([(3,)]) == mono(7, 60, 4)
    assert multi_bracket([(2,), (2,)]) == mono(16, 45, 4)
    assert multi_bracket([(2,), (2,), (2,), (2,)]) == single_bracket((2, 2, 2, 2))


def test_single_part_arguments_merge():
    for s in range(1, 7):
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


def test_memo_and_term_counter():
    wick.clear_cache()
    assert term_count() == 0
    multi_bracket([(1, 1), (2,)])
    first = term_count()
    assert first > 0
    multi_bracket([(2,), (1, 1)])  # same multiset of args, served from memo
    assert term_count() == first


def test_empty_argument_list_rejected():
    with pytest.raises(ValueError):
        multi_bracket([])


# -- differential sweeps: the rational fast path against PiValue oracles --------


def oracle_multi_bracket(args):
    # the defining sum, every product and sum in PiValue arithmetic
    slot_map = LabeledSlotMap(tuple(sorted(Partition(a) for a in args)))
    total = PiValue.zero()
    for alpha in complementary_partitions(slot_map.rho):
        term = PiValue.from_rational(1)
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


def test_multi_bracket_zero_for_odd_grading_still_counts_terms():
    wick.clear_cache()
    assert multi_bracket([(2,), (1, 1)]).is_zero()
    assert term_count() > 0
