import math
from collections import Counter
from fractions import Fraction

import pytest

from mvvol.f_expansion import capital_f, partitions_of_weight


def test_frozen_small_expansions():
    assert capital_f(1) == {(1,): Fraction(1)}
    assert capital_f(2) == {(2,): Fraction(1)}
    assert capital_f(3) == {
        (3,): Fraction(1),
        (1, 1): Fraction(-3, 2),
    }
    assert capital_f(4) == {
        (4,): Fraction(1),
        (2, 1): Fraction(-4),
    }


def test_support_is_weight_shell():
    for k in range(1, 13):
        combo = capital_f(k)
        assert set(combo) == set(partitions_of_weight(k + 1))
        assert len(combo) == len(partitions_of_weight(k + 1))
        assert combo[(k,)] == 1


def test_coefficients_recomputed_independently():
    for k in range(1, 13):
        for lam, coeff in capital_f(k).items():
            denom = 1
            for mult in Counter(lam).values():
                denom *= math.factorial(mult)
            assert coeff == Fraction((-k) ** (len(lam) - 1), denom), (k, lam)


def test_sign_pattern():
    for k in range(2, 13):
        for lam, coeff in capital_f(k).items():
            assert coeff != 0
            expected_sign = -1 if (len(lam) - 1) % 2 else 1
            assert (1 if coeff > 0 else -1) == expected_sign


def test_returns_fresh_dict():
    a = capital_f(3)
    a[(3,)] = Fraction(99)
    assert capital_f(3)[(3,)] == 1


def test_domain_errors():
    with pytest.raises(ValueError):
        capital_f(0)
    with pytest.raises(ValueError):
        capital_f(-2)
