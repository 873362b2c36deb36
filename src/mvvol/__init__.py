"""Exact Masur-Veech volumes of strata of abelian differentials.

Computes normalized volumes as exact rational multiples of powers of pi,
compares them against their large-genus approximations, and derives
Siegel-Veech style counting constants from exact volume ratios.
"""

from .exact_arith import PiValue, bernoulli, frak_z, zeta_even
from .combinatorics import Partition, partitions_of_size, partitions_of_weight
from .bracket import error_term, single_bracket
from .f_expansion import capital_f
from .wick import multi_bracket
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
    "Partition",
    "partitions_of_size",
    "partitions_of_weight",
    "single_bracket",
    "error_term",
    "capital_f",
    "multi_bracket",
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
