r"""Siegel-Veech constants from exact volume ratios.

After Eskin-Masur-Zorich (Publ. IHES 2003), each primitive configuration
is a combinatorial factor times vol(derived stratum) / vol(s).  The derived
stratum drops the zeros the configuration touches and gains the boundary
degrees it leaves behind; the predictor is the same configuration's
leading large-genus approximation.  So each evaluates to an exact rational
times a power of pi:

* sc_constant: connections joining zeros i != j; derived adds m_i + m_j,
  factor m_i + m_j + 1, predictor (m_i + 1)(m_j + 1); rational.
* loop_per_angle: loops at zero i splitting its cone angle at j, for
  1 <= j <= m_i - 1 (ValueError otherwise, so on any zero of degree
  below 2); derived adds j - 1 and m_i - j - 1 (genus g - 1), factor
  j (m_i - j) and predictor m_i + 1, both halved for the symmetric split
  because the two loop ends are interchangeable; pi-exponent -2.
* cyl_constant: multiplicity-one cylinders between zeros i != j; derived
  adds m_i - 1 and m_j - 1, factor m_i m_j / (D - 2) with D the complex
  dimension, predictor (m_i + 1)(m_j + 1) / (D - 2); pi-exponent -2.
* handle_constant: such a cylinder forming a handle on zero i; derived
  adds m_i - 2, factor (m_i - 1)^2 / (2 (D - 2)), predictor
  (m_i + 1)(m_i - 1) / (2 (D - 2)); pi-exponent -2.

Configurations that cannot occur (loop_constant at a zero of degree
below 2, handles on a simple zero) are an exact 0 with predictor 0.  The
rest are sums: loop_constant over the unordered angle splits at one zero,
cyl1_total over every zero pair and handle, area1_constant =
cyl1_total / (D - 1), and sc2_principal, the genus-splitting correction
for principal strata (products of two smaller principal volumes;
rational).

Each result also carries a flag set when the stratum's shape admits more
than one connected component (all degrees even, or two equal degrees
g - 1); the volume here is that of the whole stratum either way, which is
only the literal Siegel-Veech constant on connected strata.

KINDS maps each kind name to its function's name in this module, the
number of zero indices it takes and whether it takes an angle; the CLI
reads its choices, arity checks and dispatch from it.  Zero indices i, j
are 1-based positions in Stratum.degrees (canonical decreasing order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exact_arith import PiValue
from .volumes import (
    DEFAULT_MAX_WEIGHT,
    Stratum,
    StratumLike,
    _as_stratum,
    _volume_value,
)

__all__ = [
    "SVResult",
    "KINDS",
    "sc_constant",
    "sc2_principal",
    "loop_per_angle",
    "loop_constant",
    "cyl_constant",
    "handle_constant",
    "cyl1_total",
    "area1_constant",
]


@dataclass(frozen=True)
class SVResult:
    """One Siegel-Veech style constant with its asymptotic comparison."""

    kind: str
    value: PiValue
    predictor: Fraction
    stratum: Stratum
    zeros: Optional[tuple[int, ...]] = None
    angle: Optional[int] = None
    multiple_components_possible: bool = False

    @property
    def pi_exponent(self) -> Optional[int]:
        """Exponent of pi in the value; None for an exact zero, which has none."""
        return self.value.e if self.value else None


class Kind(NamedTuple):
    func: str  # name of the function in this module, looked up per call
    zeros: int  # number of zero indices it takes
    angle: bool  # whether it takes an angle index


KINDS: dict[str, Kind] = {
    "sc": Kind("sc_constant", 2, False),
    "sc2": Kind("sc2_principal", 0, False),
    "loop": Kind("loop_constant", 1, False),
    "loop_per_angle": Kind("loop_per_angle", 1, True),
    "cyl": Kind("cyl_constant", 2, False),
    "handle": Kind("handle_constant", 1, False),
    "cyl1": Kind("cyl1_total", 0, False),
    "area1": Kind("area1_constant", 0, False),
}


def _maybe_disconnected(st: Stratum) -> bool:
    # extra (hyperelliptic / spin) components occur only for g >= 3, and
    # only for all-even degree shapes or for two equal degrees g - 1
    degs = st.stripped
    if st.genus < 3 or not degs:
        return False
    if all(d % 2 == 0 for d in degs):
        return True
    return degs == (st.genus - 1, st.genus - 1)


def _degree(st: Stratum, i: int) -> int:
    if not 1 <= i <= len(st.degrees):
        raise ValueError(f"zero index {i} out of range for {st}")
    return st.degrees[i - 1]


def _result(kind: str, st: Stratum, value: PiValue, predictor, zeros=None, angle=None) -> SVResult:
    return SVResult(kind, value, Fraction(predictor), st, zeros, angle, _maybe_disconnected(st))


def _config(kind: str, st: Stratum, zeros: tuple[int, ...], added: Sequence[int],
            factor, predictor, max_weight: int, angle: Optional[int] = None) -> SVResult:
    """factor * vol(derived) / vol(st), the derived stratum dropping the
    zeros at the indices `zeros` and gaining the degrees `added`."""
    rest = [d for k, d in enumerate(st.degrees, 1) if k not in zeros]
    top = _volume_value(Stratum(rest + list(added)), max_weight)
    bot = _volume_value(st, max_weight)
    return _result(kind, st, top / bot * factor, predictor, zeros, angle)


def sc_constant(s: StratumLike, i: int, j: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Constant for saddle connections joining distinct zeros i and j."""
    st = _as_stratum(s)
    if i == j:
        raise ValueError("sc_constant needs two distinct zeros")
    mi, mj = _degree(st, i), _degree(st, j)
    return _config("sc", st, (i, j), (mi + mj,), mi + mj + 1, (mi + 1) * (mj + 1), max_weight)


def sc2_principal(g: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Genus-splitting part of the saddle-connection constant, principal stratum.

    Sums over g_1 + g_2 = g the product of the two smaller principal volumes
    against the full one, with the combinatorial factor
    (2g-4)! (4g_1-3)! (4g_2-3)! / ((2g_1-2)! (2g_2-2)! (4g-5)!), times 1/4.
    Genus-1 factors use the torus volume pi^2/3.  Decays like 1/g, so the
    large-genus predictor is 0.
    """
    if g < 2:
        raise ValueError("sc2_principal needs genus g >= 2")
    st = Stratum([1] * (2 * g - 2))
    fact = math.factorial
    total = PiValue.zero()
    whole = _volume_value(st, max_weight)
    for g1 in range(1, g):
        g2 = g - g1
        a = Fraction(
            fact(2 * g - 4) * fact(4 * g1 - 3) * fact(4 * g2 - 3),
            fact(2 * g1 - 2) * fact(2 * g2 - 2) * fact(4 * g - 5),
        )
        v1 = _volume_value(Stratum([1] * (2 * g1 - 2)), max_weight)
        v2 = _volume_value(Stratum([1] * (2 * g2 - 2)), max_weight)
        total += (v1 * v2 / whole) * a
    return _result("sc2", st, total / 4, 0)


def loop_per_angle(
    s: StratumLike,
    i: int,
    j: int,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> SVResult:
    """Saddle loops at zero i splitting its angle at position j in 1..m_i-1.

    The loop cuts the degree-m_i cone point into boundary orders
    b' = j - 1 and b'' = m_i - j - 1; the surviving surface loses a handle.
    The symmetric split b' = b'' carries the extra 1/2.  A zero of degree
    below 2 has no position j, so every j raises ValueError there.
    """
    st = _as_stratum(s)
    mi = _degree(st, i)
    if not 1 <= j < mi:
        raise ValueError(f"angle index {j} out of range for a degree-{mi} zero")
    b1, b2 = j - 1, mi - j - 1
    sym = 2 if b1 == b2 else 1
    return _config(
        "loop_per_angle", st, (i,), (b1, b2),
        Fraction((b1 + 1) * (b2 + 1), sym), Fraction(mi + 1, sym), max_weight, angle=j,
    )


def loop_constant(s: StratumLike, i: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """All saddle loops at zero i: per-angle constants summed over unordered
    angle pairs (j and m_i - j give the same configuration).  A zero of
    degree below 2 bounds no loops: exact 0 with predictor 0."""
    st = _as_stratum(s)
    mi = _degree(st, i)
    if mi < 2:
        return _result("loop", st, PiValue.zero(), 0, (i,))
    total = PiValue.zero()
    for j in range(1, mi // 2 + 1):
        total += loop_per_angle(st, i, j, max_weight=max_weight).value
    return _result("loop", st, total, Fraction((mi + 1) * (mi - 1), 2), (i,))


def cyl_constant(s: StratumLike, i: int, j: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Multiplicity-one cylinders with one boundary saddle connection on
    zero i and one on zero j (distinct, both of positive degree)."""
    st = _as_stratum(s)
    if i == j:
        raise ValueError("cyl_constant needs two distinct zeros")
    mi, mj = _degree(st, i), _degree(st, j)
    if mi < 1 or mj < 1:
        raise ValueError("cyl_constant needs zeros of positive degree")
    if st.genus < 2:
        raise ValueError("cyl_constant needs genus >= 2")
    d2 = st.dim_complex - 2
    return _config(
        "cyl", st, (i, j), (mi - 1, mj - 1),
        Fraction(mi * mj, d2), Fraction((mi + 1) * (mj + 1), d2), max_weight,
    )


def handle_constant(s: StratumLike, i: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Multiplicity-one cylinders forming a handle with both boundary saddle
    connections on the single zero i; exactly 0 on simple zeros."""
    st = _as_stratum(s)
    mi = _degree(st, i)
    if mi < 1:
        raise ValueError("handle_constant needs a zero of positive degree")
    if st.genus < 2:
        raise ValueError("handle_constant needs genus >= 2")
    if mi == 1:
        return _result("handle", st, PiValue.zero(), 0, (i,))
    d2 = st.dim_complex - 2
    return _config(
        "handle", st, (i,), (mi - 2,),
        Fraction((mi - 1) ** 2, 2 * d2), Fraction((mi + 1) * (mi - 1), 2 * d2), max_weight,
    )


def cyl1_total(s: StratumLike, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """All multiplicity-one cylinders: every unordered zero pair plus every
    single-zero handle.  Large-genus predictor ((D-2) - 1/(D-2)) / 2 with
    D the complex dimension."""
    st = _as_stratum(s)
    if st.genus < 2:
        raise ValueError("cyl1_total needs genus >= 2")
    npos = st.zero_count
    total = PiValue.zero()
    for i in range(1, npos + 1):
        for j in range(i + 1, npos + 1):
            total += cyl_constant(st, i, j, max_weight=max_weight).value
        total += handle_constant(st, i, max_weight=max_weight).value
    d2 = st.dim_complex - 2
    return _result("cyl1", st, total, Fraction(d2, 2) - Fraction(1, 2 * d2))


def area1_constant(s: StratumLike, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Area constant of multiplicity-one cylinders: cyl1_total / (dim - 1).
    Tends to 1/2 for large genus."""
    st = _as_stratum(s)
    inner = cyl1_total(st, max_weight=max_weight)
    return _result("area1", st, inner.value / (st.dim_complex - 1), Fraction(1, 2))
