from fractions import Fraction

import pytest

from mvvol.exact_arith import PiValue
from mvvol.siegel_veech import (
    SVResult,
    area1_constant,
    cyl1_total,
    cyl_constant,
    handle_constant,
    loop_constant,
    loop_per_angle,
    sc2_principal,
    sc_constant,
)
from mvvol.volumes import Stratum, volume


def mono(num, den, exp):
    return PiValue(Fraction(num, den), exp)


# -- saddle connections between distinct zeros -----------------------------------


def test_sc_frozen_values():
    r = sc_constant(Stratum([1, 1]), 1, 2)
    assert r.value == mono(27, 8, 0)
    assert r.predictor == 4
    assert r.kind == "sc"
    assert r.zeros == (1, 2)
    # a marked point and a zero of degree m merge to c = m + 1 exactly
    assert sc_constant(Stratum([0, 2]), 1, 2).value == mono(3, 1, 0)
    assert sc_constant(Stratum([0, 4]), 1, 2).value == mono(5, 1, 0)
    # two marked points give exactly 1
    assert sc_constant(Stratum([0, 0]), 1, 2).value == mono(1, 1, 0)


def test_sc_recomputed_from_volume_ratio():
    got = sc_constant(Stratum([2, 1, 1]), 2, 3).value
    want = 3 * (volume(Stratum([2, 2])).value / volume(Stratum([2, 1, 1])).value)
    assert got == want


def test_sc_index_errors():
    with pytest.raises(ValueError):
        sc_constant(Stratum([1, 1]), 1, 1)
    with pytest.raises(ValueError):
        sc_constant(Stratum([1, 1]), 1, 3)
    with pytest.raises(ValueError):
        sc_constant(Stratum([1, 1]), 0, 2)


def test_sc2_frozen_values():
    r = sc2_principal(2)
    assert r.value == mono(5, 8, 0)
    assert r.predictor == 0
    assert r.kind == "sc2"
    assert sc2_principal(3).value == mono(1, 7, 0)
    with pytest.raises(ValueError):
        sc2_principal(1)


# -- saddle loops -----------------------------------------------------------------


def test_loop_per_angle_frozen_values():
    r = loop_per_angle(Stratum([2]), 1, 1)
    assert r.value == mono(20, 1, -2)
    assert r.predictor == Fraction(3, 2)  # symmetric split keeps the 1/2
    # asymmetric splits of a degree-3 zero: both angle labels give the same
    # unordered pair, hence the same value, with no symmetry factor
    assert loop_per_angle(Stratum([3, 1]), 1, 1).value == mono(315, 8, -2)
    assert loop_per_angle(Stratum([3, 1]), 1, 2).value == mono(315, 8, -2)


def test_loop_on_simple_zero_is_zero():
    r = loop_constant(Stratum([1, 1]), 2)
    assert r.value.is_zero()
    assert r.kind == "loop"
    assert r.predictor == 0
    assert loop_constant(Stratum([2, 0]), 2).value.is_zero()
    # a zero of degree below 2 has no angle index 1..m_i-1 to split at
    for degrees, i in (([1, 1], 1), ([2, 0], 2)):
        for j in (0, 1, 99):
            with pytest.raises(ValueError):
                loop_per_angle(Stratum(degrees), i, j)


def test_loop_angle_range():
    with pytest.raises(ValueError):
        loop_per_angle(Stratum([2]), 1, 2)
    with pytest.raises(ValueError):
        loop_per_angle(Stratum([4]), 1, 0)


def test_loop_constant_frozen_values():
    r = loop_constant(Stratum([4]), 1)
    assert r.value == mono(21672, 305, -2)
    assert r.predictor == Fraction(15, 2)
    assert loop_constant(Stratum([3, 1]), 1).value == mono(315, 8, -2)
    assert loop_constant(Stratum([3, 1]), 1).predictor == 4


def test_loop_on_marked_point_has_predictor_zero():
    # a degree-0 zero bounds no loops; its predictor is 0, not (0+1)(0-1)/2
    r = loop_constant(Stratum([2, 0]), 2)
    assert r.value.is_zero()
    assert r.predictor == 0


def test_loop_constant_sums_unordered_angle_pairs():
    # degree 4: pairs {0,2} and {1,1}; the second carries the 1/2
    a = loop_per_angle(Stratum([4]), 1, 1).value
    b = loop_per_angle(Stratum([4]), 1, 2).value
    assert loop_constant(Stratum([4]), 1).value == a + b
    assert a == mono(13608, 305, -2)
    assert b == mono(8064, 305, -2)


# -- cylinders of multiplicity one -------------------------------------------------


def test_cyl_frozen_values():
    r = cyl_constant(Stratum([1, 1]), 1, 2)
    assert r.value == mono(15, 1, -2)
    assert r.predictor == Fraction(4, 3)
    assert cyl_constant(Stratum([2, 2]), 1, 2).value == mono(896, 51, -2)


def test_cyl_recomputed_from_volume_ratio():
    got = cyl_constant(Stratum([2, 2]), 1, 2).value
    want = (volume(Stratum([1, 1])).value / volume(Stratum([2, 2])).value) * Fraction(4, 5)
    assert got == want


def test_cyl_validation():
    with pytest.raises(ValueError):
        cyl_constant(Stratum([1, 1]), 1, 1)
    with pytest.raises(ValueError):
        cyl_constant(Stratum([0, 2]), 1, 2)  # marked point has no cylinder end
    with pytest.raises(ValueError):
        cyl_constant(Stratum([0, 0]), 1, 2)


def test_handle_frozen_values():
    r = handle_constant(Stratum([2]), 1)
    assert r.value == mono(10, 1, -2)
    assert r.predictor == Fraction(3, 4)
    assert handle_constant(Stratum([1, 1]), 1).value.is_zero()
    assert handle_constant(Stratum([1, 1]), 2).value.is_zero()
    with pytest.raises(ValueError):
        handle_constant(Stratum([0, 2]), 2)


def test_cyl1_total_frozen_and_decomposition():
    r = cyl1_total(Stratum([1, 1]))
    assert r.value == mono(15, 1, -2)
    assert r.predictor == Fraction(4, 3)
    assert cyl1_total(Stratum([2])).value == mono(10, 1, -2)
    assert cyl1_total(Stratum([2])).predictor == Fraction(3, 4)
    assert cyl1_total(Stratum([2, 2])).value == mono(1148, 51, -2)
    assert cyl1_total(Stratum([1, 1, 1, 1])).value == mono(216, 7, -2)
    # explicit decomposition for H(2,2): one pair + two equal handles
    pair = cyl_constant(Stratum([2, 2]), 1, 2).value
    h = handle_constant(Stratum([2, 2]), 1).value
    assert cyl1_total(Stratum([2, 2])).value == pair + h + h
    with pytest.raises(ValueError):
        cyl1_total(Stratum([0, 0]))


def test_area1_frozen_values():
    r = area1_constant(Stratum([1, 1]))
    assert r.value == mono(15, 4, -2)
    assert r.predictor == Fraction(1, 2)
    assert area1_constant(Stratum([2])).value == mono(10, 3, -2)


def test_area1_numeric_window():
    # should sit below but not far from the large-genus limit 1/2
    for degrees in ((1, 1), (1, 1, 1, 1)):
        x = area1_constant(Stratum(degrees)).value.to_float()
        assert 0.3 < x < 0.55


# -- exponent classes and warning flag ---------------------------------------------


def test_pi_exponent_classes():
    rational = [
        sc_constant(Stratum([1, 1]), 1, 2),
        sc_constant(Stratum([2, 1, 1]), 1, 2),
        sc2_principal(2),
        sc2_principal(3),
    ]
    over_pi2 = [
        loop_per_angle(Stratum([2]), 1, 1),
        loop_constant(Stratum([4]), 1),
        cyl_constant(Stratum([1, 1]), 1, 2),
        handle_constant(Stratum([2]), 1),
        cyl1_total(Stratum([2, 2])),
        area1_constant(Stratum([1, 1])),
    ]
    assert all(r.pi_exponent == 0 for r in rational)
    assert all(r.pi_exponent == -2 for r in over_pi2)


def test_pi_exponent_of_exact_zero_is_none():
    # a zero has no pi-exponent; the property says so instead of raising
    for r in (handle_constant(Stratum([1, 1, 1, 1]), 1), handle_constant(Stratum([1, 1]), 2),
              loop_constant(Stratum([1, 1]), 1)):
        assert r.value.is_zero()
        assert r.pi_exponent is None


def test_multiple_component_flag():
    assert sc_constant(Stratum([2, 2]), 1, 2).multiple_components_possible
    assert loop_constant(Stratum([4]), 1).multiple_components_possible
    assert cyl1_total(Stratum([3, 3])).multiple_components_possible
    assert not sc_constant(Stratum([1, 1]), 1, 2).multiple_components_possible
    assert not handle_constant(Stratum([2]), 1).multiple_components_possible
    assert not cyl1_total(Stratum([3, 1])).multiple_components_possible
    assert not cyl1_total(Stratum([2, 1, 1])).multiple_components_possible


def test_result_carries_inputs():
    r = loop_per_angle(Stratum([3, 1]), 1, 2)
    assert isinstance(r, SVResult)
    assert r.stratum == Stratum([3, 1])
    assert r.zeros == (1,)
    assert r.angle == 2
