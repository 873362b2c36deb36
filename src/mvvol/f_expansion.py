r"""Degree-k insertion polynomials in the power-sum basis.

capital_f(k) expands the weight-(k+1) generator that defines the volumes
as an exact linear combination of power sums p_lam:

    capital_f(k) = sum over partitions lam of weight k + 1 of
                   (-k)^(len(lam) - 1) / prod_i M_i(lam)!  *  p_lam,

where M_i(lam) is the multiplicity of i in lam.  For k = 1 the only
weight-2 partition is (1), giving capital_f(1) = p_(1); this degenerate
degree is what a stratum's marked-point-free torus normalization rests on.

capital_f and wick.multi_bracket are the reference layer: the tests'
definition-level oracles, imported by no shipped module.  The weights are
exponential, so volumes.c_value sums all supports at once as coefficients
of exp(-k E) (volumes docstring).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .combinatorics import partitions_of_size

__all__ = ["capital_f", "partitions_of_weight", "clear_cache"]


def partitions_of_weight(w: int) -> list[tuple[int, ...]]:
    """All partitions with size + length = w (so w >= 2), shortest first:
    the partitions of w into parts >= 2, with 1 taken from each part."""
    if w < 2:
        raise ValueError("weight must be at least 2")
    return sorted((tuple(p - 1 for p in mu) for mu in partitions_of_size(w) if mu[-1] >= 2),
                  key=len)


@lru_cache(maxsize=None)
def _capital_f_items(k: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    items = []
    for lam in partitions_of_weight(k + 1):
        denom = math.prod(map(math.factorial, Counter(lam).values()))
        items.append((lam, Fraction((-k) ** (len(lam) - 1), denom)))
    return tuple(items)


def capital_f(k: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficient map partition -> rational for the degree-k generator."""
    if k < 1:
        raise ValueError("capital_f is defined for k >= 1")
    return dict(_capital_f_items(k))


def clear_cache() -> None:
    _capital_f_items.cache_clear()
