r"""Siegel-Veech constants from exact volume ratios.

Every constant here is a finite combination of volume ratios of strata, so
each evaluates to an exact rational times a power of pi:

* sc_constant: configurations joining two distinct zeros,
  (m_i + m_j + 1) * vol(zeros merged) / vol(s); rational (pi-exponent 0).
* sc2_principal: the genus-splitting correction for principal strata; also
  rational.
* loop_per_angle / loop_constant: saddle loops around one zero splitting
  its cone angle as (2j - 1 | 2(m_i - j) - 1) pi-halves; the derived
  stratum has genus g - 1, so these carry pi-exponent -2.  The angle pair
  is counted once; the symmetric split (equal angles, 2j = m_i) keeps a
  1/2 because the two loop ends are interchangeable.
* cyl_constant / handle_constant / cyl1_total / area1_constant: cylinders
  of multiplicity one between two zeros or forming a handle on one zero;
  pi-exponent -2.

Each result also carries the leading large-genus approximation of the same
constant ("predictor") and a flag set when the stratum's shape admits more
than one connected component (all degrees even, or two equal degrees
g - 1); the volume here is that of the whole stratum either way, which is
only the literal Siegel-Veech constant on connected strata.

Zero indices i, j are 1-based positions in Stratum.degrees (canonical
decreasing order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact_arith import PiValue
from .volumes import (
    DEFAULT_MAX_WEIGHT,
    Stratum,
    StratumLike,
    _as_stratum,
    volume,
)

__all__ = [
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
    def pi_exponent(self) -> int:
        return self.value.monomial()[1]


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


def _ratio(numer: StratumLike, denom: Stratum, max_weight: int) -> PiValue:
    top = volume(numer, max_weight=max_weight).value
    bot = volume(denom, max_weight=max_weight).value
    return top / bot


def sc_constant(s: StratumLike, i: int, j: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Constant for saddle connections joining distinct zeros i and j."""
    st = _as_stratum(s)
    if i == j:
        raise ValueError("sc_constant needs two distinct zeros")
    mi, mj = _degree(st, i), _degree(st, j)
    merged = list(st.degrees)
    for idx in sorted((i - 1, j - 1), reverse=True):
        del merged[idx]
    merged.append(mi + mj)
    value = (mi + mj + 1) * _ratio(Stratum(merged), st, max_weight)
    return SVResult(
        kind="sc",
        value=value,
        predictor=Fraction((mi + 1) * (mj + 1)),
        stratum=st,
        zeros=(i, j),
        multiple_components_possible=_maybe_disconnected(st),
    )


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
    whole = volume(st, max_weight=max_weight).value
    for g1 in range(1, g):
        g2 = g - g1
        a = Fraction(
            fact(2 * g - 4) * fact(4 * g1 - 3) * fact(4 * g2 - 3),
            fact(2 * g1 - 2) * fact(2 * g2 - 2) * fact(4 * g - 5),
        )
        v1 = volume(Stratum([1] * (2 * g1 - 2)), max_weight=max_weight).value
        v2 = volume(Stratum([1] * (2 * g2 - 2)), max_weight=max_weight).value
        total += (v1 * v2 / whole) * a
    return SVResult(
        kind="sc2",
        value=total / 4,
        predictor=Fraction(0),
        stratum=st,
        multiple_components_possible=_maybe_disconnected(st),
    )


def loop_per_angle(
    s: StratumLike,
    i: int,
    j: int,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> SVResult:
    """Saddle loops at zero i splitting its angle at position j in 1..m_i-1.

    The loop cuts the degree-m_i cone point into boundary orders
    b' = j - 1 and b'' = m_i - j - 1; the surviving surface loses a handle.
    The symmetric split b' = b'' carries the extra 1/2.  Simple zeros bound
    no loops at all, so m_i < 2 returns an exact 0.
    """
    st = _as_stratum(s)
    mi = _degree(st, i)
    warn = _maybe_disconnected(st)
    if mi < 2:
        return SVResult(
            kind="loop", value=PiValue.zero(), predictor=Fraction(0),
            stratum=st, zeros=(i,), angle=j,
            multiple_components_possible=warn,
        )
    if not 1 <= j <= mi - 1:
        raise ValueError(f"angle index {j} out of range for a degree-{mi} zero")
    b1, b2 = j - 1, mi - j - 1
    rest = list(st.degrees)
    del rest[i - 1]
    rest.extend((b1, b2))
    sym = 2 if b1 == b2 else 1
    value = _ratio(Stratum(rest), st, max_weight) * Fraction((b1 + 1) * (b2 + 1), sym)
    return SVResult(
        kind="loop_per_angle",
        value=value,
        predictor=Fraction(mi + 1, sym),
        stratum=st,
        zeros=(i,),
        angle=j,
        multiple_components_possible=warn,
    )


def loop_constant(s: StratumLike, i: int, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """All saddle loops at zero i: per-angle constants summed over unordered
    angle pairs (j and m_i - j give the same configuration)."""
    st = _as_stratum(s)
    mi = _degree(st, i)
    total = PiValue.zero()
    for j in range(1, mi // 2 + 1):
        total += loop_per_angle(st, i, j, max_weight=max_weight).value
    return SVResult(
        kind="loop",
        value=total,
        predictor=Fraction((mi + 1) * (mi - 1), 2),
        stratum=st,
        zeros=(i,),
        multiple_components_possible=_maybe_disconnected(st),
    )


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
    rest = list(st.degrees)
    for idx in sorted((i - 1, j - 1), reverse=True):
        del rest[idx]
    rest.extend((mi - 1, mj - 1))
    dim = st.dim_complex
    value = _ratio(Stratum(rest), st, max_weight) * Fraction(mi * mj, dim - 2)
    return SVResult(
        kind="cyl",
        value=value,
        predictor=Fraction((mi + 1) * (mj + 1), dim - 2),
        stratum=st,
        zeros=(i, j),
        multiple_components_possible=_maybe_disconnected(st),
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
    dim = st.dim_complex
    warn = _maybe_disconnected(st)
    if mi == 1:
        return SVResult(
            kind="handle", value=PiValue.zero(), predictor=Fraction(0),
            stratum=st, zeros=(i,), multiple_components_possible=warn,
        )
    rest = list(st.degrees)
    del rest[i - 1]
    rest.append(mi - 2)
    value = _ratio(Stratum(rest), st, max_weight) * Fraction((mi - 1) ** 2, 2 * (dim - 2))
    return SVResult(
        kind="handle",
        value=value,
        predictor=Fraction((mi + 1) * (mi - 1), 2 * (dim - 2)),
        stratum=st,
        zeros=(i,),
        multiple_components_possible=warn,
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
    return SVResult(
        kind="cyl1",
        value=total,
        predictor=Fraction(d2, 2) - Fraction(1, 2 * d2),
        stratum=st,
        multiple_components_possible=_maybe_disconnected(st),
    )


def area1_constant(s: StratumLike, max_weight: int = DEFAULT_MAX_WEIGHT) -> SVResult:
    """Area constant of multiplicity-one cylinders: cyl1_total / (dim - 1).
    Tends to 1/2 for large genus."""
    st = _as_stratum(s)
    inner = cyl1_total(st, max_weight=max_weight)
    return SVResult(
        kind="area1",
        value=inner.value / (st.dim_complex - 1),
        predictor=Fraction(1, 2),
        stratum=st,
        multiple_components_possible=inner.multiple_components_possible,
    )
