import math
import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from mvvol import exact_arith
from mvvol.exact_arith import PiValue, bernoulli, frak_slope, frak_z, int_str, zeta_even
from mvvol.volumes import clear_caches


def test_bernoulli_known_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, val in expected.items():
        assert bernoulli(n) == val


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1, checked independently
    for n in range(1, 25):
        acc = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert acc == 0


def oracle_bernoulli(top):
    # B_0 .. B_top by the Fraction recursion sum_{k<=n} C(n+1, k) B_k = 0
    b = [Fraction(1)]
    for n in range(1, top + 1):
        if n > 1 and n % 2 == 1:
            b.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * b[k]
        b.append(-acc / (n + 1))
    return b


ORACLE_BERNOULLI = oracle_bernoulli(300)


def test_bernoulli_matches_fraction_recursion():
    clear_caches()
    for n, expected in enumerate(ORACLE_BERNOULLI):
        value = bernoulli(n)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator), n


def test_tangent_numbers():
    # OEIS A000182
    assert exact_arith._tangent_numbers(7) == (0, 1, 2, 16, 272, 7936, 353792, 22368256)
    assert exact_arith._tangent_numbers(1) == (0, 1)


@pytest.mark.parametrize("order", [(4, 8, 16, 40, 300, 2), (300, 4, 151, 2)])
def test_slope_column_growth_keeps_values(order):
    # small then large grows the scale table by doubling; large then small
    # reads a prefix of it; either way each B_n, read off the slope column,
    # equals the oracle, and the column equals a cold build of its length
    clear_caches()
    assert exact_arith._SCALES == ((), (), (), ())
    for n in order:
        assert bernoulli(n) == ORACLE_BERNOULLI[n], n
        assert len(exact_arith._SCALES[3]) > n
    column = exact_arith._SCALES[3]
    clear_caches()
    assert exact_arith.odd_scales(len(column) - 1)[3] == column


def test_bernoulli_from_concurrent_threads():
    # more threads than cores, switching often, each growing the shared
    # slope column to a different size
    clear_caches()
    wanted = [[300, 2, 100], [150, 298, 4], [40, 260, 122], [200, 6, 300]]
    results = [None] * len(wanted)
    barrier = threading.Barrier(len(wanted))

    def work(i):
        barrier.wait()
        results[i] = [bernoulli(n) for n in wanted[i]]

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
    assert results == [[ORACLE_BERNOULLI[n] for n in ns] for ns in wanted]


def oracle_scales(top):
    # the columns D_n / D_(n-1), D_n, n! D_n and the slopes (-1)^(n/2+1)
    # (2^n - 2) B_n (0 at odd n) for n = 0 .. top, with D_n = prod
    # p^floor(n/(p-1)) over the odd primes p, found by trial division
    primes = [p for p in range(3, top + 2, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    d = [math.prod(p ** (n // (p - 1)) for p in primes) for n in range(top + 1)]
    return ([1] + [d[n] // d[n - 1] for n in range(1, top + 1)], d,
            [math.factorial(n) * d[n] for n in range(top + 1)],
            [0 if n % 2 else (-1) ** (n // 2 + 1) * (2**n - 2) * ORACLE_BERNOULLI[n]
             for n in range(top + 1)])


ORACLE_SCALES = oracle_scales(300)


def oracle_row(t):
    d = ORACLE_SCALES[1]
    return tuple(Fraction(d[t], d[j] * d[t - j]) for j in range(t + 1))


@pytest.mark.parametrize("order", [(0, 1, 2, 5, 17, 40, 100, 300), (300, 3), (7, 300)])
def test_scale_table_growth_matches_prime_products(order):
    # grown in steps or built cold, the four columns agree with the prime
    # product formula and the oracle Bernoulli numbers as far as they reach,
    # and with a cold build of their length
    clear_caches()
    assert exact_arith._SCALES == ((), (), (), ())
    for n in order:
        columns = exact_arith.odd_scales(n)
        assert all(len(column) == len(columns[0]) > n for column in columns)
        for column, expected in zip(columns, ORACLE_SCALES):
            assert list(column[:301]) == expected[:len(column)], n
    grown = exact_arith._SCALES
    clear_caches()
    assert exact_arith.odd_scales(len(grown[0]) - 1) == grown


def test_quotient_rows_divide_the_scales():
    # Q_t[j] D_j D_(t-j) = D_t: each row is the integer row of the oracle,
    # symmetric in j, and the scale table is asked for no more than it holds
    clear_caches()
    for t in range(301):
        row = exact_arith.odd_quotients(t)
        d = exact_arith.odd_scales(t)[1]
        assert all(type(q) is int and q * d[j] * d[t - j] == d[t] for j, q in enumerate(row)), t
        assert row == oracle_row(t) == row[::-1], t
    assert exact_arith.odd_quotients(5) == (1, 1, 5, 5, 1, 1)
    assert len(exact_arith._QUOTIENTS) == 301


def test_scale_tables_from_concurrent_threads():
    # more threads than cores, switching often, each growing the scale
    # table and the quotient rows from empty in its own order
    wanted = [[300, 2, 100], [150, 298, 4], [40, 260, 122], [200, 6, 300]]
    expected = [[(tuple(column[n] for column in ORACLE_SCALES), oracle_row(n)) for n in ns]
                for ns in wanted]
    clear_caches()
    results = [None] * len(wanted)
    barrier = threading.Barrier(len(wanted))

    def work(i):
        barrier.wait()
        results[i] = [(tuple(column[n] for column in exact_arith.odd_scales(n)),
                       exact_arith.odd_quotients(n)) for n in wanted[i]]

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


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize("fn", [bernoulli, frak_slope, zeta_even, frak_z])
@pytest.mark.parametrize("k", [True, False, 1.0, 2.0, 2.5])
def test_integer_arguments_refuse_bool_and_float(fn, k):
    # refused before any other test: read as ints, bernoulli(True) would
    # be B_1 = -1/2 and frak_z(2.5) zero, and bernoulli(2.0) a TypeError
    with pytest.raises(ValueError, match=repr(k)):
        fn(k)


def test_zeta_even_known_values():
    assert zeta_even(2) == PiValue(Fraction(1, 6), 2)
    assert zeta_even(4) == PiValue(Fraction(1, 90), 4)
    assert zeta_even(6) == PiValue(Fraction(1, 945), 6)
    assert zeta_even(8) == PiValue(Fraction(1, 9450), 8)


def test_zeta_even_rejects_bad_arguments():
    for k in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            zeta_even(k)


def test_frak_z_table():
    assert frak_z(3) == PiValue.zero()
    assert frak_z(-2) == PiValue.zero()
    assert frak_z(0) == PiValue(1)
    assert frak_z(2) == PiValue(Fraction(1, 6), 2)
    assert frak_z(4) == PiValue(Fraction(7, 360), 4)


def test_zeta_values_match_bernoulli_oracle():
    # every k <= 300 from the textbook formulas on the oracle B_k, bit for
    # bit: zeta(k) = (-1)^(k/2+1) B_k 2^(k-1) / k! * pi^k, frak_z(k) =
    # (2 - 2^(2-k)) zeta(k), frak_slope(k) = k! * (coefficient of frak_z)
    clear_caches()
    for k in range(-6, 301):
        if k < 0 or k % 2:
            assert frak_slope(k) == 0 and type(frak_slope(k)) is Fraction, k
            assert frak_z(k) == PiValue.zero() and (frak_z(k).q, frak_z(k).e) == (0, 0), k
            continue
        if k == 0:
            zeta, frak = None, PiValue(1)
        else:
            q = (-1) ** (k // 2 + 1) * ORACLE_BERNOULLI[k] * 2 ** (k - 1) / math.factorial(k)
            zeta = PiValue(q, k)
            frak = PiValue(q * (2 - Fraction(2) ** (2 - k)), k)
            assert zeta_even(k) == zeta and str(zeta_even(k)) == str(zeta), k
        assert frak_z(k) == frak and str(frak_z(k)) == str(frak), k
        slope = frak_slope(k)
        assert type(slope) is Fraction and slope == frak.q * math.factorial(k), k
        assert (slope.numerator, slope.denominator) == (
            (-1) ** (k // 2 + 1) * (2**k - 2) * ORACLE_BERNOULLI[k]).as_integer_ratio(), k


def test_frak_z_approaches_two():
    # |frak_z(k) - 2| <= 16 / 2^k on the even arguments
    for k in range(2, 42, 2):
        assert abs(frak_z(k).to_float() - 2.0) <= 16.0 / 2**k


def test_pivalue_rejects_odd_exponent():
    with pytest.raises(ValueError):
        PiValue(Fraction(1, 2), 3)


def test_zero_ignores_exponent_parity():
    assert PiValue(Fraction(0), 3).is_zero()
    assert PiValue(Fraction(2, 7), 4).monomial() == (Fraction(2, 7), 4)
    with pytest.raises(ValueError):
        PiValue(Fraction(1, 2), 3)


EXACT_QS = [3, -5, Fraction(2, 7), Fraction(-9, 4), 0, Fraction(0)]


@pytest.mark.parametrize("q", EXACT_QS + [1.5, -2.0, 0.0])
@pytest.mark.parametrize("e", [-2, 0, 4, 3, -1, 2.0, "4", None])
def test_from_graded_matches_generic_constructor(q, e):
    # The name is kept from when PiValue had a graded fast-path constructor
    # beside a generic one.  The one constructor PiValue(q, e) now validates
    # q first, then the exponent, and must agree with the value built
    # generically as the rational q times the unit monomial pi^e.
    try:
        value = PiValue(q, e)
    except (TypeError, ValueError) as exc:
        value = type(exc)
    if isinstance(q, float):
        # a float is refused before the exponent is looked at
        assert value is TypeError
    elif q == 0:
        # zero whatever its exponent, stored at exponent 0
        assert value == PiValue.zero() and (value.q, value.e) == (0, 0)
        assert hash(value) == hash(PiValue.zero()) and str(value) == "0"
    elif type(e) is not int or e % 2:
        assert value is ValueError
    else:
        assert value.monomial() == (q, e)
        assert type(value.q) is Fraction and value.coefficient(e) == q
        assert value.coefficient(e + 2) == 0
        generic = PiValue(1, e) * q
        assert value == generic and hash(value) == hash(generic)
        assert str(value) == str(generic)
        assert (value.q, value.e) == (generic.q, generic.e)


def test_pivalue_drops_zero_coefficients():
    v = PiValue(Fraction(1, 3), 2) - PiValue(Fraction(1, 3), 2)
    assert v.is_zero() and not v
    assert (v.q, v.e) == (0, 0) and v == PiValue(0, 6)
    assert PiValue(3, 4) * 0 == PiValue.zero()
    with pytest.raises(ValueError):
        v.monomial()  # zero has no pi-exponent


def _random_value(rng, e):
    return PiValue(Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)), e)


def test_pivalue_ring_laws():
    # sums need a shared exponent; products may mix them
    rng = random.Random(7)
    zero = PiValue.zero()
    one = PiValue(1)
    for _ in range(200):
        e, f = (2 * rng.randrange(-3, 6) for _ in range(2))
        a, b, c = (_random_value(rng, e) for _ in range(3))
        d = _random_value(rng, f)
        assert a + b == b + a
        assert a * d == d * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * d == a * (b * d)
        assert d * (b + c) == d * b + d * c
        assert a + zero == a == zero + a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero


def test_pivalue_mixed_exponent_sum_raises():
    a, b = PiValue(Fraction(1, 6), 2), PiValue(Fraction(-7, 360), 4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b - a
    # zero has no exponent of its own, so it adds to anything
    assert PiValue(0, 4) + a == a - PiValue.zero() == a


def test_pivalue_monomial_division():
    a = PiValue(Fraction(3, 4), 6)
    b = PiValue(Fraction(1, 2), 2)
    assert a / b == PiValue(Fraction(3, 2), 4)
    assert (a / b).monomial() == (Fraction(3, 2), 4)
    assert b / a == PiValue(Fraction(2, 3), -4)
    assert a * b == PiValue(Fraction(3, 8), 8)
    assert (a * b) / a == b and (a / b) * b == a
    assert PiValue.zero() / b == PiValue.zero()
    with pytest.raises(ZeroDivisionError):
        a / PiValue.zero()


def test_pivalue_scalar_operations():
    a = PiValue(Fraction(1, 3), 4)
    assert 3 * a == PiValue(1, 4)
    assert a / 2 == PiValue(Fraction(1, 6), 4)
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_pivalue_rendering():
    assert str(PiValue.zero()) == "0"
    assert str(PiValue(Fraction(5, 3))) == "5/3"
    assert str(PiValue(Fraction(1, 120), 4)) == "1/120 * pi^4"
    assert str(PiValue(20, -2)) == "20 * pi^-2"
    assert str(PiValue(Fraction(-1, 9), 4)) == "-1/9 * pi^4"
    assert str(-PiValue(Fraction(1, 9), 4)) == "-1/9 * pi^4"
    assert repr(PiValue(Fraction(1, 6), 2)) == "PiValue(1/6 * pi^2)"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int-to-str digits")
def test_int_str_ignores_the_int_digit_limit():
    # str() refuses more than sys.get_int_max_str_digits() digits; the
    # rendering of a PiValue must not, and must match str() below the limit
    rng = random.Random(11)
    ints = [0, 1, -1, 10**640, -(10**639) - 7]
    ints += [rng.randrange(-10**700, 10**700) for _ in range(50)]
    strings = [str(n) for n in ints]
    value = PiValue(Fraction(3**2000 + 1, 7**1500), 600)
    text = str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(10**700)
        assert [int_str(n) for n in ints] == strings
        assert str(value) == text and repr(value) == f"PiValue({text})"
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == f"{3**2000 + 1}/{7**1500} * pi^600"


def test_pivalue_decimal_rendering():
    v = PiValue(Fraction(1, 135), 4)
    assert str(v.to_decimal(10)) == "0.7215488225"
    assert str(v.to_decimal(15)) == "0.721548822474092"
    pi2 = PiValue(1, 2)
    assert str(pi2.to_decimal(12)) == "9.86960440109"
    assert PiValue.zero().to_decimal(10) == Decimal(0)
    with pytest.raises(ValueError):
        v.to_decimal(101)
    # pi^e leaves Decimal's default exponent range near |e| = 2 * 10^6: a
    # ValueError, not decimal.Overflow or a silent 0E-1000018
    for e in (4_000_002, -4_000_000):
        with pytest.raises(ValueError, match="out of decimal range"):
            PiValue(Fraction(1, 3), e).to_decimal(50)
    assert str(PiValue(Fraction(1, 3), 2_000_000).to_decimal(5)) == "1.8547E+994299"


def machin_pi(places):
    # pi to `places` decimal places and a few guard digits, by Machin's
    # formula pi = 16 arctan(1/5) - 4 arctan(1/239) on scaled integers
    unit = 10 ** (places + 10)

    def arctan_inv(x):
        total, power, n = 0, unit // x, 1
        while power:
            total += (-1) ** (n // 2) * (power // n)
            power, n = power // (x * x), n + 2
        return total

    return Decimal(f"{16 * arctan_inv(5) - 4 * arctan_inv(239)}E-{places + 10}")  # exact


@pytest.mark.parametrize("q,e", [(Fraction(1, 135), 4), (Fraction(1, 3), 2),
                                 (Fraction(7, 9), -2), (Fraction(1), 600)])
def test_decimal_rendering_is_right_to_the_last_digit(q, e):
    # every one of the 100 digits, against a pi of 160 places from an
    # independent series: H(1, 1) is pi^4/135 and the torus pi^2/3
    pi = machin_pi(160)
    with localcontext() as ctx:
        ctx.prec = 150
        exact = Decimal(q.numerator) / Decimal(q.denominator) * pi**e
        ctx.prec = 100
        expected = +exact
    assert PiValue(q, e).to_decimal(100) == expected
    assert str(PiValue(q, e).to_decimal(100)) == str(expected)


def test_pivalue_to_float():
    for q, e in [(Fraction(1, 3), 2), (Fraction(-22, 7), 10), (Fraction(5), -4), (Fraction(7, 9), 0)]:
        assert math.isclose(PiValue(q, e).to_float(), float(q) * math.pi**e, rel_tol=1e-15)
    assert PiValue.zero().to_float() == 0.0
    # pi^700 overflows a float; the value is about 1.01e48
    x = PiValue(Fraction(1, 10**300), 700).to_float()
    assert math.isclose(math.log10(x), 700 * math.log10(math.pi) - 300, rel_tol=1e-14)


def test_pivalue_hash_and_equality():
    a = PiValue(Fraction(1, 6), 2)
    b = PiValue(Fraction(2, 12), 2)
    assert a == b and hash(a) == hash(b)
    assert a != PiValue(Fraction(1, 5), 2)
    assert a != PiValue(Fraction(1, 6), 4)
    assert len({a, b}) == 1
