import dataclasses
import math
import random
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import oracles
from test_reference_layer import reference_modules_loaded
from mvvol import bracket, exact_arith, f_expansion, volumes, wick
from mvvol.combinatorics import partitions_of_size
from mvvol.exact_arith import PiValue
from mvvol.f_expansion import capital_f
from mvvol.volumes import (
    DEFAULT_MAX_WEIGHT,
    InfeasibleSizeError,
    InvalidStratumError,
    Stratum,
    VolumeResult,
    c_value,
    clear_caches,
    prediction,
    principal_volume,
    volume,
)
from mvvol.wick import multi_bracket


def mono(num, den, exp):
    return PiValue(Fraction(num, den), exp)


# -- Stratum -------------------------------------------------------------------


def test_stratum_canonicalization_and_properties():
    s = Stratum([1, 0, 2, 1])
    assert s.degrees == (2, 1, 1, 0)
    assert s.stripped == (2, 1, 1)
    assert s.genus == 3
    assert s.zero_count == 3
    assert s.dim_complex == 8
    assert s.key == "2,1,1"
    assert repr(s) == "H(2,1,1,0)"


def test_stratum_torus_cases():
    assert Stratum([]).genus == 1
    assert Stratum([]).key == ""
    assert Stratum([0, 0]).stripped == ()
    assert Stratum([0, 0]).dim_complex == 1


def test_stratum_validation():
    with pytest.raises(InvalidStratumError):
        Stratum([3])  # odd sum
    with pytest.raises(InvalidStratumError):
        Stratum([2, 1])
    with pytest.raises(InvalidStratumError):
        Stratum([-2])
    with pytest.raises(InvalidStratumError):
        Stratum([1.0, 1.0])  # non-integers
    with pytest.raises(InvalidStratumError):
        Stratum([True, True])  # bools are ints, but not degrees


def test_stratum_equality_hash():
    assert Stratum([1, 2, 1]) == Stratum([2, 1, 1])
    assert hash(Stratum([1, 2, 1])) == hash(Stratum([2, 1, 1]))
    assert Stratum([2]) != Stratum([1, 1])
    assert Stratum([2]) != Stratum([0, 2])  # marked point kept in identity


# -- c_value -------------------------------------------------------------------


def test_c_value_frozen():
    assert c_value((1,)) == mono(1, 6, 2)
    assert c_value((3,)) == mono(1, 240, 4)
    assert c_value((2, 2)) == mono(1, 270, 4)


def test_c_value_odd_grading_is_zero():
    # |a| - n + 2 odd: no pi-exponent is available, so the value vanishes
    for a in ((2,), (4,), (1, 2), (2, 2, 2)):
        assert c_value(a).is_zero(), a


# -- c_value against the grouped-support Wick sum --------------------------------
#
# c_value is defined by the Wick sum over the power-sum supports of
# prod_i capital_f(key_i).  Grouping equal partition tuples and making one
# Wick call per tuple evaluates that definition directly: it is the oracle.


def grouped_supports(key):
    """Sorted partition tuple -> its coefficient in prod_i capital_f(key_i).

    A run of r equal degrees k picks a multiset of r supports of
    capital_f(k), weighted by the multinomial r! / prod(repeats!), instead
    of r ordered choices.  No two choices of one pick per run give the same
    tuple: the picks of a run are distinct multisets, and supports of
    distinct degrees have distinct weights k + 1.
    """
    runs = []
    for k, r in Counter(key).items():
        support = sorted(capital_f(k).items())
        picks = []
        for idx in combinations_with_replacement(range(len(support)), r):
            coeff = math.prod((support[i][1] for i in idx), start=Fraction(1))
            coeff *= math.factorial(r) // math.prod(math.factorial(idx.count(i)) for i in set(idx))
            picks.append(([support[i][0] for i in idx], coeff))
        runs.append(picks)
    grouped = {}
    for choice in product(*runs):
        coeff = math.prod((q for _, q in choice), start=Fraction(1))
        grouped[tuple(sorted(lam for lams, _ in choice for lam in lams))] = coeff
    return grouped


def product_and_group(key):
    # one ordered support per degree, then equal sorted tuples grouped
    supports = [sorted(capital_f(k).items()) for k in key]
    grouped = {}
    for choice in product(*supports):
        tup = tuple(sorted(lam for lam, _ in choice))
        coeff = Fraction(1)
        for _, q in choice:
            coeff *= q
        grouped[tup] = grouped.get(tup, Fraction(0)) + coeff
    return grouped


def test_grouped_supports_match_product_expansion():
    rng = random.Random(60602)
    seen = set()
    while len(seen) < 40:
        key = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 6))), reverse=True))
        if key in seen:
            continue
        seen.add(key)
        assert grouped_supports(key) == product_and_group(key), key
    assert sum(len(set(key)) < len(key) for key in seen) >= 25
    assert grouped_supports((3,) * 6) == product_and_group((3,) * 6)


def wick_c_value(key):
    # c_value(key) by one Wick call per grouped support tuple
    exponent = sum(key) - len(key) + 2
    total = Fraction(0)
    for tup, coeff in grouped_supports(key).items():
        total += multi_bracket(tup).coefficient(exponent) * coeff
    return PiValue(total / (math.factorial(sum(key)) * math.prod(key)), exponent)


def support_sum(k):
    # c_value((k,)) as one Wick call per support of capital_f(k)
    total = Fraction(0)
    for lam, coeff in capital_f(k).items():
        total += multi_bracket((lam,)).coefficient(k + 1) * coeff
    return PiValue(total / (math.factorial(k) * k), k + 1)


def oracle_exp_series(k, top):
    # L_k(0..top) by the Fraction recurrence n E_n = -k sum_j j b(j-1) E_(n-j),
    # with b(v) summed by the Fraction tree series, not read off the slope memo
    slopes = [(v + 1, (v + 1) * b) for v in range(1, top)
              if (b := oracles.tree_sum((v,)))]
    e = [Fraction(1)] + [Fraction(0)] * top
    for n in range(1, top + 1):
        acc = Fraction(0)
        for j, jb in slopes:
            if j > n:
                break
            acc += jb * e[n - j]
        e[n] = acc * Fraction(-k, n)
    return e


# the tops the callers use: k + 1 for a single zero, k - 1 in the
# hypertree series
EXP_SERIES_CALLS = [(k, top) for k in [*range(1, 62), 151, 301] for top in (k - 1, k + 1)]


def test_exp_series_matches_fraction_recurrence():
    # small then large grows the slope memo and the tangent table; large
    # then small reads a prefix of them
    for calls in (EXP_SERIES_CALLS, EXP_SERIES_CALLS[::-1]):
        clear_caches()
        for k, top in calls:
            series = oracles.exp_fractions(k, top)
            assert all(type(c) is Fraction for c in series)
            assert series == oracle_exp_series(k, top), (k, top)


def test_slope_table_growth_and_clear():
    # the slopes c_j of exp(-k B) are the memoized exact_arith.frak_slope:
    # each series reads exactly the even j <= top, and the memo grows with top
    slope = exact_arith.frak_slope
    clear_caches()
    assert slope.cache_info().currsize == 0
    for top in (0, 1, 2, 5, 6, 40, 41, 300):
        oracles.exp_fractions(3, top)
        assert slope.cache_info().currsize == top // 2
    assert all(slope(j) == j * oracles.tree_sum((j - 1,)) for j in range(2, 301, 2))
    clear_caches()
    assert slope.cache_info().currsize == 0


def test_slope_table_from_concurrent_threads():
    # more threads than cores, switching often, each growing the shared
    # slope table from empty to a different top
    wanted = [[(301, 300), (3, 2), (99, 100)], [(151, 150), (297, 298), (5, 4)],
              [(41, 40), (259, 260), (121, 122)], [(199, 200), (7, 6), (301, 302)]]
    expected = [[oracle_exp_series(k, top) for k, top in calls] for calls in wanted]
    clear_caches()
    results = [None] * len(wanted)
    barrier = threading.Barrier(len(wanted))

    def work(i):
        barrier.wait()
        results[i] = [oracles.exp_fractions(k, top) for k, top in wanted[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(wanted))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_one_zero_layer_sums_no_bracket_series(monkeypatch):
    # the slopes of exp(-k B) come from the Bernoulli numbers: no tree
    # series is summed, and a cold H(598) builds one tangent table, T_300
    def refuse(mm):
        raise AssertionError(f"tree series summed for {mm}")

    built = []
    tangent_numbers = exact_arith._tangent_numbers
    monkeypatch.setattr(bracket, "_tree_sum", refuse)
    monkeypatch.setattr(exact_arith, "_tangent_numbers",
                        lambda n: built.append(n) or tangent_numbers(n))
    clear_caches()
    res = volume([598], max_weight=600)
    assert built == [300]
    assert res.relative_error == Decimal("-0.00274697400726556")
    clear_caches()
    for g in range(1, 31):
        assert volume([2 * g - 2], max_weight=2 * g - 1).value
    for k, top in EXP_SERIES_CALLS:
        oracles.exp_fractions(k, top)


def test_exp_series_checks_its_integer_division(monkeypatch):
    # without the odd-prime scaling D_n, c_2 = 2 b(1) = 1/3 no longer
    # divides out, and the series refuses rather than rounding; the scale
    # table is cleared on both sides so that it holds the patched steps
    clear_caches()
    monkeypatch.setattr(exact_arith, "_odd_prime_steps", lambda top: [1] * (top + 1))
    try:
        with pytest.raises(ArithmeticError, match="not an integer"):
            oracles.exp_fractions(5, 6)
    finally:
        monkeypatch.undo()
        clear_caches()


TWO_ZERO_KEYS = [(k1, k2) for k1 in range(1, 41) for k2 in range(1, k1 + 1)] + [
    (60, 60), (120, 120), (81, 37)]


def test_two_zero_convolution_matches_hypertree_loop():
    # both parities of k1 + k2; the Fraction hypertree loop over the
    # lattice of brackets b(u, v) is the oracle
    clear_caches()
    for k1, k2 in TWO_ZERO_KEYS:
        value = volumes._two_zero_sum(k1, k2)
        expected = oracles.hypertree_sum((k1, k2))
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            expected.numerator, expected.denominator), (k1, k2)
        assert c_value((k2, k1)) == PiValue(
            expected / (math.factorial(k1 + k2) * k1 * k2), k1 + k2), (k1, k2)


def test_two_zero_layer_reads_no_bracket(monkeypatch):
    def refuse(mm):
        raise AssertionError(f"bracket read for {mm}")

    monkeypatch.setattr(bracket, "coefficient", refuse)
    monkeypatch.setattr(bracket, "_tree_sum", refuse)
    clear_caches()
    for k1, k2 in TWO_ZERO_KEYS:
        if (k1 + k2) % 2 == 0:
            assert volume([k1 - 1, k2 - 1], max_weight=k1 + k2).pi_exponent == k1 + k2


def test_two_zero_convolution_checks_its_common_denominator(monkeypatch):
    # the slopes c_12 .. c_20 of H(9, 9) bring the primes 13, 17 and 19,
    # which only the steps above 10 carry; both series stop at y^10.  The
    # scale table is cleared on both sides so that it holds the patched
    # steps, and Q reads the steps up to 20 only, however long the table
    steps = exact_arith._odd_prime_steps
    clear_caches()
    monkeypatch.setattr(exact_arith, "_odd_prime_steps",
                        lambda top: [s if n <= 10 else 1 for n, s in enumerate(steps(top))])
    try:
        with pytest.raises(ArithmeticError, match="does not divide"):
            volumes._two_zero_sum(10, 10)
        with pytest.raises(ArithmeticError, match="not an integer"):
            volumes._two_zero_sum(60, 60)  # after the table grows to 120
        assert len(exact_arith._SCALES[0]) > 120
        with pytest.raises(ArithmeticError, match="does not divide"):
            volumes._two_zero_sum(10, 10)
    finally:
        monkeypatch.undo()
        clear_caches()
    # a slope beyond the primes up to k1 + k2 + 1
    slope = exact_arith.frak_slope
    monkeypatch.setattr(volumes, "frak_slope", lambda s: slope(s) / (23 if s > 10 else 1))
    with pytest.raises(ArithmeticError, match="does not divide"):
        volumes._two_zero_sum(10, 10)


def test_two_zero_convolution_ignores_a_longer_scale_table():
    # a larger stratum first grows the shared scale table; Q still reads
    # the steps up to k1 + k2, and the value is the same Fraction
    clear_caches()
    cold = volumes._two_zero_sum(10, 10)
    clear_caches()
    volume([59, 59], max_weight=120)
    assert len(exact_arith._SCALES[0]) > 120
    assert_same_fraction(volumes._two_zero_sum(10, 10), cold, (10, 10))


def test_one_and_two_zeros_build_no_quotient_row():
    # only the lattice series (brackets of three or more parts and the
    # hypertree loop) read the rows Q_t
    clear_caches()
    for degrees in ([40], [120], [30, 20], [59, 59], [7, 5]):
        volume(degrees, max_weight=200)
    assert exact_arith._SCALES[0] and exact_arith._QUOTIENTS == {}
    volume([2, 1, 1])
    assert exact_arith._QUOTIENTS


def test_principal_stratum_reads_one_bracket(monkeypatch):
    # c_value of (2, ..., 2) is the bracket b(2, ..., 2); the Fraction
    # hypertree loop is its oracle
    clear_caches()
    for n in range(1, 15):
        key = (2,) * n
        expected = oracles.hypertree_sum(key)
        assert c_value(key) == PiValue(expected / (math.factorial(2 * n) * 2**n), n + 2), n

    def refuse(key):
        raise AssertionError(f"hypertree loop summed for {key}")

    monkeypatch.setattr(volumes, "_hypertree_sum", refuse)
    clear_caches()
    assert volume([1] * 20, max_weight=40).pi_exponent == 22


# two zeros, (2^n), every key of 3-6 entries in 1..5, and of 3-7 entries
# in 2..6 with |key| - n <= 18
LOOP_KEYS = list(dict.fromkeys([(k1, k2) for k1 in range(1, 41) for k2 in range(1, k1 + 1)] + [
    (2,) * n for n in range(1, 15)] + [
    key for n in range(3, 7) for key in combinations_with_replacement(range(5, 0, -1), n)] + [
    key for n in range(3, 8) for key in combinations_with_replacement(range(6, 1, -1), n)
    if sum(key) - n <= 18]))


def assert_same_fraction(value, expected, key):
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator), key


def oracle_c_value(key):
    return PiValue(oracles.hypertree_sum(key) / (math.factorial(sum(key)) * math.prod(key)),
                   sum(key) - len(key) + 2)


def test_hypertree_loop_matches_fraction_oracle():
    # the integer loop against the Fraction loop, numerator and denominator
    clear_caches()
    for key in LOOP_KEYS:
        assert_same_fraction(volumes._hypertree_sum(key), oracles.hypertree_sum(key), key)


def test_hypertree_strata_match_fraction_oracle():
    # the four strata of the benchmark's equal-parts pass that run the loop,
    # and two distinct degrees eight times each
    clear_caches()
    for degrees in ([2] * 3, [2] * 4, [2] * 5, [4] * 3):
        key = tuple(d + 1 for d in degrees)
        assert_same_fraction(volumes._hypertree_sum(key), oracles.hypertree_sum(key), key)
        assert volume(degrees, max_weight=15).value == 2 * oracle_c_value(key)
    key = (3,) * 8 + (2,) * 8
    assert c_value(key) == oracle_c_value(key)


def test_hypertree_loop_checks_its_integer_divisions(monkeypatch):
    # without the odd-prime scaling D_n the exp(-k B) series refuses; with
    # it only up to y^(k_0 - 1), which the series read, the row of K(a, b)
    # does.  The scale table is cleared on both sides of each patch so that
    # it holds the patched steps
    steps = exact_arith._odd_prime_steps
    for patched, message in [(lambda top: [1] * (top + 1), "not an integer"), (
            lambda top: [s if n <= 2 else 1 for n, s in enumerate(steps(top))],
            "Q_t is not an integer")]:
        clear_caches()
        monkeypatch.setattr(exact_arith, "_odd_prime_steps", patched)
        try:
            with pytest.raises(ArithmeticError, match=message):
                volumes._hypertree_sum((3, 3, 3))
        finally:
            monkeypatch.undo()
            clear_caches()
    # a bracket whose denominator t! D_t does not clear
    coefficient = bracket.coefficient
    monkeypatch.setattr(bracket, "coefficient", lambda mm: coefficient(mm) / 23)
    with pytest.raises(ArithmeticError, match="scaled bracket is not an integer"):
        volumes._hypertree_sum((3, 3, 3))


def test_hypertree_loop_from_concurrent_threads():
    # more threads than cores, switching often, each summing overlapping
    # mixed strata from empty caches; the loop keeps no table of its own
    keys = [(4, 3, 3, 2), (3, 3, 2, 2, 2), (5, 3, 3, 1, 1), (4, 4, 2, 2, 1, 1),
            (3, 3, 3, 2, 2, 1), (6, 4, 2, 2)]
    expected = {key: oracle_c_value(key) for key in keys}
    work = [keys[i::2] + keys[::-1] for i in range(4)]
    results = [None] * len(work)
    barrier = threading.Barrier(len(work))

    def run(i):
        barrier.wait()
        results[i] = {key: c_value(key) for key in work[i]}

    clear_caches()
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == {key: expected[key] for key in r} for r in results)


def test_volume_result_pi_exponent_of_zero_is_none():
    st = Stratum([2])
    res = VolumeResult(st, PiValue.zero(), 0.0)
    assert res.pi_exponent is None
    assert volume(st).pi_exponent == 4


def test_single_degree_series_matches_support_sum():
    # k = 1 is the torus; even k vanish by the grading
    clear_caches()
    for k in range(1, 31):
        value = c_value((k,))
        assert value == support_sum(k), k
        assert value.is_zero() == (k % 2 == 0), k


def test_two_degree_sum_matches_grouped_supports():
    # odd k1 + k2 included: both sides vanish there by the grading
    clear_caches()
    keys = [(k1, k2) for k1 in range(1, 11) for k2 in range(1, k1 + 1)]
    for key in keys + [(13, 13), (17, 9)]:
        assert c_value(key) == wick_c_value(key), key


HYPERTREE_KEYS = [
    (1,), (3,), (5,), (3, 1), (2, 1, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 1),
    (3, 3, 2), (4, 2, 2), (2,) * 4, (3, 2, 2, 1), (4, 3, 3), (5, 3, 2), (3,) * 4,
    (2,) * 5, (5,) * 3, (2,) * 6, (3,) * 5, (7, 5, 3, 2, 2),
]


def test_c_value_matches_grouped_support_wick_sum():
    # 1-7 zeros of degree 1-7; the total degree is capped at 22 so that the
    # Wick oracle stays within seconds
    rng = random.Random(120412)
    seen = set()
    while len(seen) < 60:
        key = tuple(sorted((rng.randint(1, 7) for _ in range(rng.randint(1, 7))), reverse=True))
        if sum(key) <= 22:
            seen.add(key)
    assert {len(key) for key in seen} == set(range(1, 8))
    assert sum(len(set(key)) < len(key) for key in seen) >= 25
    assert sum(1 in key for key in seen) >= 10
    assert sum((sum(key) - len(key)) % 2 for key in seen) >= 10
    clear_caches()
    for key in sorted(seen | set(HYPERTREE_KEYS)):
        assert c_value(key) == wick_c_value(key), key


def test_closed_forms_make_no_wick_call():
    # every number of zeros is one series: in a fresh interpreter, c_value
    # of any shape leaves the Wick sum and capital_f unloaded
    keys = ((7,), (12, 12), (3, 2, 1), (3, 3, 3, 3), (5, 3, 2, 2, 1))
    assert reference_modules_loaded(
        "from mvvol.volumes import c_value",
        f"for key in {keys!r}: c_value(key)",
    ) == []


def test_c_value_errors():
    with pytest.raises(ValueError):
        c_value(())
    with pytest.raises(ValueError):
        c_value((2, 0))


def test_c_value_refuses_non_integer_parts():
    # (3.9, 1) is not (3, 1), and a bool is not a part
    with pytest.raises(ValueError):
        c_value([3.9, 1])
    with pytest.raises(ValueError):
        c_value([True, True])


def test_c_value_of_unsorted_input():
    assert c_value([1, 3]) == c_value([3, 1])


# -- volume ---------------------------------------------------------------------


def test_volume_frozen_values():
    assert volume(Stratum([2])).value == mono(1, 120, 4)
    assert volume(Stratum([1, 1])).value == mono(1, 135, 4)
    assert volume(Stratum([2, 2])).value == mono(17, 50400, 6)
    assert volume(Stratum([3, 1])).value == mono(16, 42525, 6)
    assert volume(Stratum([4])).value == mono(61, 108864, 6)


def test_volume_accepts_bare_degree_lists():
    assert volume([2]).value == mono(1, 120, 4)
    assert volume((1, 1)).value == mono(1, 135, 4)


def test_volume_torus_convention():
    assert volume(Stratum([])).value == mono(1, 3, 2)
    assert volume(Stratum([0, 0, 0])).value == mono(1, 3, 2)


def test_marked_points_do_not_change_volume():
    assert volume(Stratum([0, 1, 1])).value == volume(Stratum([1, 1])).value
    assert volume(Stratum([0, 0, 2])).value == volume(Stratum([2])).value


def test_volume_order_invariance():
    assert volume(Stratum([1, 3])).value == volume(Stratum([3, 1])).value


def test_volume_result_fields():
    clear_caches()
    res = volume(Stratum([1, 1]))
    assert isinstance(res, VolumeResult)
    assert res.stratum == Stratum([1, 1])
    assert res.prediction == 1
    assert res.relative_error == Decimal("-0.278451177525908")
    assert res.pi_exponent == 4
    assert res.elapsed >= 0.0


def test_volume_result_fields_are_the_value_only():
    assert [f.name for f in dataclasses.fields(VolumeResult)] == ["stratum", "value", "elapsed"]


def test_volume_result_compares_on_first_read(monkeypatch):
    calls = Counter()
    for name in ("prediction", "_relative_error"):
        def counted(*args, _name=name, _f=getattr(volumes, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(volumes, name, counted)
    res = volume(Stratum([3, 1]))
    assert res.value == mono(16, 42525, 6)
    assert not calls
    assert res.relative_error == Decimal("-0.276556044811058")
    assert res.relative_error == Decimal("-0.276556044811058")
    assert res.prediction == Fraction(1, 2)
    assert calls == {"prediction": 1, "_relative_error": 1}


def test_relative_error_from_concurrent_threads():
    # eight threads read the comparison of one fresh result at once
    res = volume(Stratum([1, 1]))
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def run(i):
        barrier.wait()
        results[i] = res.relative_error

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [Decimal("-0.278451177525908")] * len(results)


def test_clear_caches_empties_every_memo():
    # every memo of the volume path
    memos = (exact_arith.bernoulli, exact_arith.frak_slope)
    tables = (bracket._CACHE, bracket._PLANTED, bracket._WEIGHTS, volumes._VOLUME_CACHE)
    # H(2, 1, 1) sums two bracket series, which read the odd-prime scales
    # and their quotient rows
    clear_caches()
    volume(Stratum([2, 1, 1]))
    assert all(m.cache_info().currsize > 0 for m in memos)
    assert all(tables)
    assert exact_arith._TANGENTS and all(exact_arith._SCALES) and exact_arith._QUOTIENTS
    clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0, 0]
    assert [len(t) for t in tables] == [0, 0, 0, 0]
    assert exact_arith._TANGENTS == () and exact_arith._SCALES == ((), (), ())
    assert exact_arith._QUOTIENTS == {}


def test_oracles_clear_empties_reference_memos():
    # the reference layer and the Fraction sums keep their memos across
    # clear_caches(); oracles.clear() empties them
    oracles.clear()
    capital_f(3)
    multi_bracket([(1, 1), (2,)])
    oracles.tree_sum((2, 2, 1, 1))

    def sizes():
        return [f_expansion._capital_f_items.cache_info().currsize, len(wick._CACHE),
                len(oracles._SERIES), len(oracles._WEIGHTS)]

    assert all(sizes())
    clear_caches()
    assert all(sizes())
    oracles.clear()
    assert sizes() == [0, 0, 0, 0]


def test_relative_error_frozen():
    assert volume(Stratum([2])).relative_error == Decimal("-0.391193181037485")
    assert volume(Stratum([2, 2])).relative_error == Decimal("-0.270374272733028")
    assert volume(Stratum([4])).relative_error == Decimal("-0.326628398643105")


def test_grading_small_strata():
    for total in (2, 4, 6):
        for m in partitions_of_size(total):
            val = volume(Stratum(m)).value
            q, e = val.monomial()
            assert q > 0
            assert e == total + 2


def test_prediction_values():
    assert prediction(Stratum([2])) == Fraction(4, 3)
    assert prediction(Stratum([1, 1])) == 1
    assert prediction(Stratum([0, 1, 1])) == 1  # marked points excluded
    for g in range(2, 7):
        assert prediction(Stratum([2 * g - 2])) == Fraction(4, 2 * g - 1)


def test_feasibility_guard():
    clear_caches()  # the guard applies to fresh computations, not cache hits
    with pytest.raises(InfeasibleSizeError) as info:
        volume(Stratum([DEFAULT_MAX_WEIGHT]))
    assert info.value.weight == DEFAULT_MAX_WEIGHT + 1
    assert info.value.limit == DEFAULT_MAX_WEIGHT
    with pytest.raises(InfeasibleSizeError):
        volume(Stratum([4]), max_weight=4)
    # explicit raise of the bound unlocks the same stratum
    assert volume(Stratum([4]), max_weight=5).value == mono(61, 108864, 6)


def test_infeasible_is_not_invalid():
    assert not issubclass(InfeasibleSizeError, InvalidStratumError)


# -- principal closed form --------------------------------------------------------


def test_principal_frozen_and_cross_pipeline():
    assert principal_volume(2) == mono(1, 135, 4)
    assert principal_volume(3) == mono(1, 4860, 6)
    assert principal_volume(4) == mono(377, 67359600, 8)
    assert principal_volume(2) == volume(Stratum([1, 1])).value
    assert principal_volume(3) == volume(Stratum([1, 1, 1, 1])).value


def test_principal_equality_genus_four():
    assert principal_volume(4) == volume(Stratum([1] * 6)).value


def test_principal_agreement_at_higher_genus():
    # g = 16, 20 and 25 run brackets of 30, 38 and 48 parts, beyond the
    # reach of the set-partition oracle in test_bracket
    for g in (*range(5, 11), 16, 20, 25):
        n = 2 * g - 2
        assert volume(Stratum([1] * n), max_weight=2 * n).value == principal_volume(g), g


def test_principal_ratio_rises_towards_one():
    # vol * prod(m_i + 1) / 4 = vol * 2^(2g-2) / 4 lies in (0, 1) and rises
    # with g, as the large-genus limit of the principal stratum says
    ratios = []
    for g in range(2, 11):
        n = 2 * g - 2
        value = volume(Stratum([1] * n), max_weight=2 * n).value
        ratios.append(value.to_decimal(30) * 2**n / 4)
    assert all(0 < r < 1 for r in ratios), ratios
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios), ratios


@pytest.mark.parametrize("family", [
    [(2,) * n for n in range(1, 12)],  # g = 2..12
    [(3,) * n for n in (2, 4, 6, 8)],  # g = 4, 7, 10, 13
], ids=["all-twos", "all-threes"])
def test_equal_parts_ratio_rises_towards_one(family):
    # vol * prod(m_i + 1) / 4 lies in (0, 1) and rises with g: the
    # (4 + o(1)) / prod(m_i + 1) limit along H(2^n) and H(3^n)
    ratios = []
    for m in family:
        value = volume(Stratum(m), max_weight=sum(m) + len(m)).value
        ratios.append(value.to_decimal(30) * math.prod(d + 1 for d in m) / 4)
    assert all(0 < r < 1 for r in ratios), ratios
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios), ratios


def test_minimal_ratio_rises_towards_one():
    # vol * (2g - 1) / 4 along H(2g-2): Sauvaget's limit for minimal strata
    ratios = []
    for g in range(2, 61):
        value = volume(Stratum([2 * g - 2]), max_weight=2 * g - 1).value
        ratios.append(value.to_decimal(30) * (2 * g - 1) / 4)
    assert all(0 < r < 1 for r in ratios), ratios
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios), ratios


def test_minimal_frozen_value():
    # H(46), g = 24, as computed by one Wick call per capital_f support
    value = volume(Stratum([46]), max_weight=47).value
    assert value == mono(
        187149428799289325632044138166475070083250223965058763267487763965014474566294008242228394573140423331247,
        1663333788907745280468576606997891693609036822127970772927147722630983546214510361726582748659015149944832000000000000000000000000,
        48)


def test_minimal_frozen_value_genus_80():
    # H(158), g = 80, as computed by the Fraction series before the
    # one-zero layer ran on integers
    value = volume(Stratum([158]), max_weight=159).value
    assert str(value) == (
        "977998772536462075442110387762995037223982768834359167291759818957416519"
        "858933213288345447707774962842698071352779479625017597875538919947077163"
        "345079603938753306364652162179827927053063090180576087841893422323380079"
        "293640442285799146262027526685265621747758837447040343616737010778757466"
        "667175573678432221470917166944359663880989998522294400423781408567879601"
        "635943513942537478303668892187797051181882857014238311094574794307612158"
        "876806482905223"
        "/"
        "137460263921152438340984510852653335292164432160662252419633120648007551"
        "429867489613188711508409872846487712694995570397904274218805217236011779"
        "791847372000370683615594650379814864385958126329379255759525079968332464"
        "825210526643628459362550217797182428001178083709311300097941740987108542"
        "284444315122627647190529529366277047906368626652045128903289274746197190"
        "984436528555548299299410834005670894236246035320500349817166394693333105"
        "067111219200000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000"
        " * pi^160")


def test_all_twos_frozen_value():
    # H(2^6), g = 7, as computed by the complement enumeration
    value = volume(Stratum([2] * 6), max_weight=18).value
    assert value == mono(2352841223, 4321602251366400000, 14)


def test_mixed_frozen_value():
    # H(6,4,4,2,2,2,1,1), g = 12, as computed by the grouped-support Wick sum
    value = volume(Stratum([6, 4, 4, 2, 2, 2, 1, 1]), max_weight=30).value
    assert value == mono(7166961001277635012535153,
                         30629702632809025428545630896128000000000, 24)


def test_principal_domain():
    with pytest.raises(ValueError):
        principal_volume(1)
    with pytest.raises(ValueError):
        principal_volume(0)


# -- correlator normalization tripwire --------------------------------------------


def test_normalized_correlator_near_two():
    # the full correlator divided by |a|! stays within a loose factorial
    # band of 2, for every stratum of genus up to 4
    for total in (2, 4, 6):
        for m in partitions_of_size(total):
            a = [d + 1 for d in m]
            size = sum(a)
            corr = c_value(a) * (math.factorial(size) * math.prod(a))
            gap = abs(corr.to_float() - 2 * math.factorial(size))
            assert gap <= 2.0**60 * math.factorial(size - 1), m
