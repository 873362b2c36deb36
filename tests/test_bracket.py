import math
import random
import sys
import threading
from fractions import Fraction

import pytest

import oracles
from mvvol import bracket, exact_arith, volumes
from mvvol.bracket import clear_cache, error_term, single_bracket
from mvvol.combinatorics import partitions_of_size
from mvvol.exact_arith import PiValue, frak_slope, frak_z
from oracles import nonneg_compositions, set_partitions


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
    # (2, 2) reads the closed form; (3, 3, 3) sums the series and fills
    # the shared planted-tree table at (3,) and (3, 3)
    v, w = single_bracket((2, 2)), single_bracket((3, 3, 3))
    assert bracket._PLANTED
    clear_cache()
    assert not bracket._CACHE and not bracket._PLANTED and not bracket._WEIGHTS
    assert single_bracket((2, 2)) == v
    assert single_bracket((3, 3, 3)) == w


def test_closed_forms_match_tree_sum_and_oracle():
    # one and two parts read the slopes, odd gradings included; the Fraction
    # tree series and the set-partition sum stay the oracles
    clear_cache()
    oracles.clear()
    cases = [(v,) for v in range(1, 61)]
    cases += [(u, v) for u in range(1, 41) for v in range(1, u + 1)]
    for m in cases:
        q = single_bracket(m).q
        assert type(q) is Fraction, m
        assert q == oracles.tree_sum(m), m
        exponent = sum(m) - len(m) + 2
        lead = math.factorial(sum(m)) * frak_slope(exponent) / math.factorial(exponent)
        assert q == lead + set_partition_error_term(m), m


def same_fraction(a, b):
    return type(a) is type(b) is Fraction and (a.numerator, a.denominator) == (
        b.numerator, b.denominator)


def test_integer_series_matches_fraction_oracle():
    # every multiset of two or more parts with |m| <= 14, then (2^n) for
    # n <= 30, summed into one shared table in that order
    cases = [tuple(sorted(p, reverse=True)) for s in range(2, 15)
             for p in partitions_of_size(s) if len(p) >= 2]
    cases += [(2,) * n for n in range(2, 31)]
    clear_cache()
    oracles.clear()
    for m in cases:
        assert same_fraction(bracket._tree_sum(m), oracles.tree_sum(m)), m
        assert single_bracket(m).q == oracles.tree_sum(m), m


def test_integer_series_matches_oracle_on_shared_cases_in_both_orders():
    cases = shared_table_cases()
    for order in (cases, cases[::-1]):
        clear_cache()
        oracles.clear()
        for m in order:
            assert same_fraction(bracket._tree_sum(m), oracles.tree_sum(m)), m


def test_integer_series_matches_oracle_on_requested_brackets(monkeypatch):
    # every bracket that cold H(2^30), H(3^12) and H(2^8,1^8) request
    requested = {}
    read = bracket._coefficient

    def record(mm):
        q = requested[mm] = read(mm)
        return q

    monkeypatch.setattr(bracket, "_coefficient", record)
    for stratum in ([2] * 30, [3] * 12, [2] * 8 + [1] * 8):
        volumes.clear_caches()
        assert volumes.volume(stratum, max_weight=100).value
    assert len(requested) > 600
    assert max(map(len, requested)) == 30
    oracles.clear()
    for mm, q in requested.items():
        assert same_fraction(q, oracles.tree_sum(mm)), mm


def test_tree_sum_takes_two_or_more_parts():
    with pytest.raises(ValueError, match="two or more parts"):
        bracket._tree_sum((5,))


def test_tree_sum_checks_its_integer_division(monkeypatch):
    # without the odd-prime scales D_n, c_2 = 1/3 no longer divides out,
    # and the series refuses rather than rounding
    volumes.clear_caches()
    monkeypatch.setattr(exact_arith, "_odd_prime_steps", lambda top: [1] * (top + 1))
    try:
        with pytest.raises(ArithmeticError, match="not an integer"):
            bracket._tree_sum((2, 2, 2))
    finally:
        monkeypatch.undo()
        volumes.clear_caches()
    assert bracket._tree_sum((2, 2, 2, 2)) == Fraction(1792, 27)


def shared_table_cases():
    # 60 distinct multisets of 3-8 parts over at most 3 values from 1..5,
    # so their sub-multisets overlap often
    rng = random.Random(19)
    cases = set()
    while len(cases) < 60:
        values = rng.sample(range(1, 6), rng.randint(1, 3))
        n = rng.randint(max(3, len(values)), 8)
        m = values + [rng.choice(values) for _ in range(n - len(values))]
        cases.add(tuple(sorted(m, reverse=True)))
    return sorted(cases)


def test_shared_table_does_not_depend_on_order():
    cases = shared_table_cases()
    runs = []
    for order in (cases, cases[::-1]):
        clear_cache()
        runs.append({m: single_bracket(m).q for m in order})
    isolated = {}
    for m in cases:
        clear_cache()
        isolated[m] = single_bracket(m).q
    assert runs[0] == runs[1] == isolated
    assert any(isolated.values())


def test_shared_table_fills_only_new_vectors():
    # every vector below M is kept, M itself is not: after (3^8) the table
    # holds (3^1) .. (3^7), and (3^9) adds (3^8) alone
    clear_cache()
    assert single_bracket((3,) * 8).q
    assert sorted(bracket._PLANTED) == [(3,) * n for n in range(1, 8)]
    kept = dict(bracket._PLANTED)
    assert single_bracket((3,) * 9).q
    assert sorted(bracket._PLANTED) == [(3,) * n for n in range(1, 9)]
    assert all(bracket._PLANTED[k] is v for k, v in kept.items())
    # R^0 .. R^|a| at each kept vector
    assert all(len(v) == len(k) + 1 for k, v in bracket._PLANTED.items())


def test_shared_table_from_concurrent_threads():
    # more threads than cores, switching often, each summing overlapping
    # brackets into one table that starts empty; five rounds
    cases = shared_table_cases()
    clear_cache()
    expected = {m: single_bracket(m).q for m in cases}
    work = [cases[i::4] + cases[::-1] for i in range(4)]

    def run(i):
        barrier.wait()
        results[i] = {m: single_bracket(m).q for m in work[i]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            clear_cache()
            results = [None] * len(work)
            barrier = threading.Barrier(len(work))
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_input_validation():
    with pytest.raises(ValueError):
        single_bracket(())
    with pytest.raises(ValueError):
        single_bracket((2, 0))
    with pytest.raises(ValueError):
        error_term((-1, 3))


def test_non_integer_parts_refused():
    # a part is never truncated: 2.5 is not 2, "3" is not 3
    with pytest.raises(ValueError):
        single_bracket([2.5, 2])
    with pytest.raises(ValueError):
        error_term(["3", 1])


def test_single_bracket_checks_its_key_on_every_call():
    # a zero, float or bool part is refused before anything is memoized,
    # and again once the memo holds an equal canonical key: (True, True)
    # == (1, 1) and hashes like it; error_term reads the same check
    clear_cache()
    keys = ((3, 0), (4, 1, 0), (2.5, 2.5), (True, True), (2, True), ())
    for entry in (single_bracket, error_term):
        for mm in keys:
            with pytest.raises(ValueError):
                entry(mm)
    assert not bracket._CACHE
    assert single_bracket((3, 1)).q == single_bracket([1, 3]).q == Fraction(7, 15)
    assert (single_bracket((1, 1)).q, single_bracket((2, 2)).q) == (
        Fraction(1, 3), Fraction(16, 45))
    for entry in (single_bracket, error_term):
        for mm in keys:
            with pytest.raises(ValueError):
                entry(mm)


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
