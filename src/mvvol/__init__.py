"""Exact Masur-Veech volumes of strata of abelian differentials.

Computes normalized volumes as exact rational multiples of powers of pi,
compares them against their large-genus approximations, and derives
Siegel-Veech style counting constants from exact volume ratios.

The reference layer that the tests check volumes against is not exported
and no shipped module imports it: mvvol.wick holds multi_bracket, and
mvvol.f_expansion holds capital_f and partitions_of_weight.
"""

from .exact_arith import PiValue, bernoulli, frak_z, zeta_even
from .combinatorics import partitions_of_size
from .bracket import error_term, single_bracket
from .volumes import (
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
from .siegel_veech import (
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

__version__ = "0.1.0"

__all__ = [
    "PiValue",
    "bernoulli",
    "zeta_even",
    "frak_z",
    "partitions_of_size",
    "single_bracket",
    "error_term",
    "Stratum",
    "VolumeResult",
    "c_value",
    "volume",
    "principal_volume",
    "prediction",
    "clear_caches",
    "InvalidStratumError",
    "InfeasibleSizeError",
    "SVResult",
    "sc_constant",
    "sc2_principal",
    "loop_per_angle",
    "loop_constant",
    "cyl_constant",
    "handle_constant",
    "cyl1_total",
    "area1_constant",
]
