import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from mvvol.exact_arith import PiValue, bernoulli, frak_z, zeta_even


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


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_even_known_values():
    assert zeta_even(2) == PiValue([(2, Fraction(1, 6))])
    assert zeta_even(4) == PiValue([(4, Fraction(1, 90))])
    assert zeta_even(6) == PiValue([(6, Fraction(1, 945))])
    assert zeta_even(8) == PiValue([(8, Fraction(1, 9450))])


def test_zeta_even_rejects_bad_arguments():
    for k in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            zeta_even(k)


def test_frak_z_table():
    assert frak_z(3) == PiValue.zero()
    assert frak_z(-2) == PiValue.zero()
    assert frak_z(0) == PiValue.from_rational(1)
    assert frak_z(2) == PiValue([(2, Fraction(1, 6))])
    assert frak_z(4) == PiValue([(4, Fraction(7, 360))])


def test_frak_z_approaches_two():
    # |frak_z(k) - 2| <= 16 / 2^k on the even arguments
    for k in range(2, 42, 2):
        assert abs(frak_z(k).to_float() - 2.0) <= 16.0 / 2**k


def test_pivalue_rejects_odd_exponent():
    with pytest.raises(ValueError):
        PiValue([(3, Fraction(1, 2))])


def test_from_graded_zero_ignores_exponent_parity():
    assert PiValue.from_graded(Fraction(0), 3).is_zero()
    assert PiValue.from_graded(Fraction(2, 7), 4) == PiValue.from_rational(Fraction(2, 7), 4)
    with pytest.raises(ValueError):
        PiValue.from_graded(Fraction(1, 2), 3)


EXACT_QS = [3, -5, Fraction(2, 7), Fraction(-9, 4), 0, Fraction(0)]


@pytest.mark.parametrize("q", EXACT_QS + [1.5, -2.0, 0.0])
@pytest.mark.parametrize("e", [-2, 0, 4, 3, -1, 2.0, "4", None])
def test_from_graded_matches_generic_constructor(q, e):
    def outcome(build):
        try:
            return build()
        except (TypeError, ValueError) as exc:
            return type(exc)

    generic = outcome(lambda: PiValue([(e, q)]))
    direct = outcome(lambda: PiValue.from_graded(q, e))
    if isinstance(q, float):
        # both refuse a float; from_graded looks at q before the exponent
        assert direct is TypeError
        assert generic in (TypeError, ValueError)
    elif q == 0:
        # a zero q gives zero whatever its exponent; the generic
        # constructor still refuses a bad one
        assert direct == PiValue() and direct.terms == {}
        assert generic in (PiValue(), ValueError)
    elif isinstance(generic, type):
        assert direct is generic
    else:
        assert direct == generic
        assert hash(direct) == hash(generic)
        assert str(direct) == str(generic)
        assert direct.terms == generic.terms
        assert all(type(c) is Fraction for c in direct.terms.values())


def test_pivalue_drops_zero_coefficients():
    v = PiValue([(2, Fraction(1, 3)), (2, Fraction(-1, 3)), (4, 1)])
    assert v.terms == {4: Fraction(1)}
    assert v.is_monomial()


def _random_value(rng):
    terms = []
    for _ in range(rng.randrange(4)):
        e = 2 * rng.randrange(-3, 6)
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 12))
        terms.append((e, q))
    return PiValue(terms)


def test_pivalue_ring_laws():
    rng = random.Random(7)
    zero = PiValue.zero()
    one = PiValue.from_rational(1)
    for _ in range(200):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero


def test_pivalue_monomial_division():
    a = PiValue([(6, Fraction(3, 4))])
    b = PiValue([(2, Fraction(1, 2))])
    assert a / b == PiValue([(4, Fraction(3, 2))])
    assert (a / b).monomial() == (Fraction(3, 2), 4)
    mixed = PiValue([(0, 1), (2, Fraction(1, 6))])
    assert mixed / b == PiValue([(-2, 2), (0, Fraction(1, 3))])
    with pytest.raises(ValueError):
        a / mixed  # only monomial divisors


def test_pivalue_scalar_operations():
    a = PiValue([(4, Fraction(1, 3))])
    assert 3 * a == PiValue([(4, 1)])
    assert a / 2 == PiValue([(4, Fraction(1, 6))])
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_pivalue_rendering():
    assert str(PiValue.zero()) == "0"
    assert str(PiValue.from_rational(Fraction(5, 3))) == "5/3"
    assert str(PiValue([(4, Fraction(1, 120))])) == "1/120 * pi^4"
    assert str(PiValue([(-2, 20)])) == "20 * pi^-2"
    assert str(PiValue([(4, Fraction(-1, 9))])) == "-1/9 * pi^4"
    two_terms = PiValue([(2, Fraction(1, 6)), (4, Fraction(-7, 360))])
    assert str(two_terms) == "1/6 * pi^2 - 7/360 * pi^4"
    assert str(-two_terms) == "-1/6 * pi^2 + 7/360 * pi^4"


def test_pivalue_decimal_rendering():
    v = PiValue([(4, Fraction(1, 135))])
    assert str(v.to_decimal(10)) == "0.7215488225"
    assert str(v.to_decimal(15)) == "0.721548822474092"
    pi2 = PiValue([(2, 1)])
    assert str(pi2.to_decimal(12)) == "9.86960440109"
    assert PiValue.zero().to_decimal(10) == Decimal(0)
    with pytest.raises(ValueError):
        v.to_decimal(101)


def test_pivalue_hash_and_equality():
    a = PiValue([(2, Fraction(1, 6))])
    b = PiValue({2: Fraction(1, 6)})
    assert a == b and hash(a) == hash(b)
    assert a != PiValue([(2, Fraction(1, 5))])
    assert len({a, b}) == 1
