import math
import random
from fractions import Fraction

import pytest

from mvvol import bracket
from mvvol.bracket import clear_cache, error_term, single_bracket
from mvvol.combinatorics import nonneg_compositions, partitions_of_size, set_partitions
from mvvol.exact_arith import PiValue, frak_slope, frak_z


def mono(num, den, exp):
    return PiValue(Fraction(num, den), exp)


def naive_error(m):
    # direct transcription of the defining double sum: every set partition
    # with >= 2 blocks, every nonnegative composition d, no pruning at all
    m = tuple(m)
    n = len(m)
    total = PiValue.zero()
    for alpha in set_partitions(n):
        ell = len(alpha)
        if ell < 2:
            continue
        pref = Fraction((-1) ** (ell - 1) * math.factorial(ell - 2))
        for d in nonneg_compositions(ell - 2, ell):
            term = PiValue(pref)
            for block, di in zip(alpha, d):
                s = sum(m[x - 1] for x in block)
                z = frak_z(s - len(block) - di + 1)
                term = term * z * Fraction(math.factorial(s), math.factorial(di))
            total = total + term
    return total


def recursion_block_term_sum(stats, total):
    # the d-sum as a recursion over compositions of total, pruned by parity
    # and by the smallest d the later blocks still need
    per_block = []
    for s, c in stats:
        top = s - c + 1
        opts = []
        for d in range(top % 2, min(top, total) + 1, 2):
            z = frak_slope(top - d) / math.factorial(top - d)
            if z:
                opts.append((d, Fraction(math.factorial(s), math.factorial(d)) * z))
        if not opts:
            return Fraction(0)
        per_block.append(opts)
    acc = Fraction(0)

    def rec(i, rem, coeff):
        nonlocal acc
        if i == len(per_block) - 1:
            for d, q in per_block[i]:
                if d == rem:
                    acc += coeff * q
            return
        min_rest = sum(opts[0][0] for opts in per_block[i + 1:])
        for d, q in per_block[i]:
            if d + min_rest > rem:
                break
            rec(i + 1, rem - d, coeff * q)

    rec(0, total, Fraction(1))
    return acc


def set_partition_error_term(m):
    # every set partition of the positions of m, one d-recursion per sorted
    # stats tuple; returns the rational coefficient of pi^(|m| - n + 2)
    m = tuple(m)
    inner_of = {}
    total = Fraction(0)
    for alpha in set_partitions(len(m)):
        ell = len(alpha)
        if ell < 2:
            continue
        stats = tuple(sorted((sum(m[x - 1] for x in b), len(b)) for b in alpha))
        if stats not in inner_of:
            inner_of[stats] = recursion_block_term_sum(stats, ell - 2)
        total += (-1) ** (ell - 1) * math.factorial(ell - 2) * inner_of[stats]
    return total


def random_multiset_with_repeats(rng, n):
    distinct = rng.randint(1, min(n - 1, 5))
    values = rng.sample(range(1, 6), distinct)
    values += [rng.choice(values) for _ in range(n - distinct)]
    return tuple(sorted(values, reverse=True))


def test_error_term_frozen_values():
    assert error_term((5,)).is_zero()
    assert error_term((1, 1)).is_zero()
    assert error_term((2, 2)) == mono(-1, 9, 4)


def test_single_bracket_frozen_values():
    assert single_bracket((1,)) == mono(1, 6, 2)
    assert single_bracket((3,)) == mono(7, 60, 4)
    assert single_bracket((5,)) == mono(31, 126, 6)
    assert single_bracket((2, 2)) == mono(16, 45, 4)
    assert single_bracket((4, 2)) == mono(416, 315, 6)
    assert single_bracket((3, 3)) == mono(31, 21, 6)
    assert single_bracket((2, 1)).is_zero()
    assert single_bracket((3, 2, 1)).is_zero()


def test_all_ones_reduce_to_leading_term():
    for n in range(1, 8):
        m = (1,) * n
        assert error_term(m).is_zero()
        assert single_bracket(m) == frak_z(2) * math.factorial(n)


def test_error_term_matches_unpruned_oracle():
    for s in range(1, 8):
        for lam in partitions_of_size(s):
            assert error_term(lam) == naive_error(lam), lam


def test_error_term_matches_set_partition_oracle():
    # 300 distinct multisets, each with a repeated value: 280 with n <= 7,
    # then 15 with n = 8 and 5 with n = 9 (the oracle visits Bell(n) terms)
    rng = random.Random(2018)
    cases = set()
    for count, sizes in ((280, (2, 7)), (295, (8, 8)), (300, (9, 9))):
        while len(cases) < count:
            cases.add(random_multiset_with_repeats(rng, rng.randint(*sizes)))
    # then 20 with all values distinct, the largest series lattice (2^n
    # count vectors) for their size
    rng = random.Random(1729)
    while len(cases) < 320:
        n = rng.randint(4, 7)
        cases.add(tuple(sorted(rng.sample(range(1, 10), n), reverse=True)))
    for m in sorted(cases):
        want = PiValue(set_partition_error_term(m), sum(m) - len(m) + 2)
        assert error_term(m) == want, m


def test_homogeneity_and_parity():
    for s in range(1, 11):
        for lam in partitions_of_size(s):
            val = single_bracket(lam)
            n = len(lam)
            if (s - n) % 2 == 1:
                assert val.is_zero(), lam
            elif not val.is_zero():
                _, e = val.monomial()
                assert e == s - n + 2, lam


def test_symmetry_under_reordering(monkeypatch):
    assert single_bracket((2, 3, 1, 3)) == single_bracket((3, 3, 2, 1))
    assert error_term((4, 1, 1)) == error_term((1, 4, 1))
    # both orders share one memo entry: the second never sums the series
    clear_cache()
    a = single_bracket((3, 1, 1))
    assert not a.is_zero()

    def refuse(m):
        raise AssertionError(f"tree series recomputed for {m}")

    monkeypatch.setattr(bracket, "_tree_sum", refuse)
    assert single_bracket((1, 3, 1)) == a
    assert error_term((1, 1, 3)) == error_term((3, 1, 1))


def test_cache_clears():
    v = single_bracket((2, 2))
    clear_cache()
    assert single_bracket((2, 2)) == v


def test_input_validation():
    with pytest.raises(ValueError):
        single_bracket(())
    with pytest.raises(ValueError):
        single_bracket((2, 0))
    with pytest.raises(ValueError):
        error_term((-1, 3))


def test_error_bound_for_parts_at_least_two():
    for s in range(2, 11):
        for lam in partitions_of_size(s):
            if lam[-1] < 2:
                continue
            bound = 2.0**40 * math.factorial(s - 1)
            assert abs(error_term(lam).to_float()) <= bound, lam


def test_error_bound_with_ones():
    for s in range(1, 11):
        for lam in partitions_of_size(s):
            ones = sum(1 for v in lam if v == 1)
            bound = 2.0 ** (78 * ones) * math.factorial(s)
            assert abs(error_term(lam).to_float()) <= bound, lam
