r"""One-point correlator of a multiset of cycle lengths.

For a multiset m = (m_1, ..., m_n) of positive integers,

    single_bracket(m) = |m|! * frak_z(|m| - n + 2) + error_term(m),

where |m| = sum(m_i) and the correction sums over the reduced set partitions
alpha of the index set {1..n} with at least two blocks:

    error_term(m) = sum_alpha (-1)^(len(alpha)-1) * (len(alpha)-2)!
        * sum_d prod_i (1/d_i!) * s_i! * frak_z(s_i - c_i - d_i + 1),

with s_i the sum of the m-entries in block i, c_i the block size, and d
running over the nonnegative length-len(alpha) compositions of
len(alpha) - 2.  Every surviving term has pi-exponent |m| - n + 2, so the
result is a monomial (or zero when |m| - n is odd).

A summand depends on alpha only through the multiset of block stats
(s_i, c_i), and permuting equal entries of m permutes the set partitions
without changing it.  So error_term sums over the partitions of the
multiset m instead, each once, weighted by the number of set partitions it
stands for (combinatorics.multiset_partitions); partitions with the same
sorted stats are merged before any arithmetic.  For m = (v,)*n, which the
principal stratum H(1^n) needs with v = 2, the Bell(n) set partitions fall
into p(n) orbits.

For fixed stats the d-sum is the coefficient of x^(len(alpha)-2) in
prod_i sum_d s_i!/d! * frak_z(s_i - c_i - d + 1) * x^d, taken as a
truncated polynomial product.  frak_z(k) is nonzero exactly for even
k >= 0, which fixes the parity and range of each d; when the blocks'
smallest admissible d already exceed len(alpha) - 2 the term is zero
before any product is formed.

Because the pi exponent is fixed by the grading, the sums run on bare
Fractions (the rational coefficients of frak_z) and pi is attached once per
public call.  coefficient() is the rational hot-path entry used by the Wick
expansion; its memo holds the coefficient of every multiset seen so far,
keyed on the sorted multiset, and a miss calls error_term once unless the
exponent is odd, where the coefficient is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .combinatorics import multiset_partitions
from .exact_arith import PiValue, frak_z

__all__ = ["single_bracket", "error_term", "coefficient", "clear_cache"]

# sorted multiset -> rational coefficient of pi^(|m| - n + 2)
_CACHE: dict[tuple[int, ...], Fraction] = {}


def _canonical(m: Iterable[int]) -> tuple[int, ...]:
    t = tuple(sorted((int(v) for v in m), reverse=True))
    if not t:
        raise ValueError("bracket of an empty multiset")
    if t[-1] <= 0:
        raise ValueError(f"entries must be positive: {t}")
    return t


def _z(k: int) -> Fraction:
    """Rational coefficient of frak_z(k), i.e. of pi^k (zero for odd k)."""
    return frak_z(k).coefficient(k)


def _block_factors(s: int, c: int) -> list[tuple[int, Fraction]]:
    """(d, s!/d! * z(s - c - d + 1)) for every d >= 0 where z is nonzero.

    z(k) is nonzero exactly for even k >= 0, so d has the parity of
    s - c + 1 and runs up to it; the smallest d is 0 or 1.
    """
    top = s - c + 1
    fs = math.factorial(s)
    return [(d, Fraction(fs, math.factorial(d)) * _z(top - d)) for d in range(top % 2, top + 1, 2)]


def _block_term_sum(
    stats: Sequence[tuple[int, int]],
    total: int,
    factors: dict[tuple[int, int], list[tuple[int, Fraction]]],
) -> Fraction:
    """Sum over admissible d of prod_i s_i!/d_i! * z(s_i - c_i - d_i + 1).

    stats holds (s_i, c_i) per block; total = len(alpha) - 2; z is the
    rational coefficient of frak_z.  The sum is the coefficient of x^total
    in prod_i sum_d s_i!/d! * z(s_i - c_i - d + 1) * x^d, taken as a product
    truncated at degree total.  It is empty when the blocks' smallest
    admissible d already exceed total.  factors memoizes _block_factors by
    (s, c) and may be shared across calls.
    """
    low = sum((s - c + 1) % 2 for s, c in stats)
    if low > total:
        return Fraction(0)
    high = sum(min(s - c + 1, total) for s, c in stats)
    acc = {0: Fraction(1)}
    for s, c in stats:
        top = s - c + 1
        low -= top % 2
        high -= min(top, total)
        # a partial degree the remaining blocks cannot carry to total is dropped
        lo, hi = total - high, total - low
        opts = factors.get((s, c))
        if opts is None:
            opts = factors[(s, c)] = _block_factors(s, c)
        nxt: dict[int, Fraction] = {}
        for a, qa in acc.items():
            for d, q in opts:
                if a + d > hi:
                    break
                if a + d >= lo:
                    nxt[a + d] = nxt.get(a + d, 0) + qa * q
        acc = nxt
    return acc.get(total, Fraction(0))


def error_term(m: Iterable[int]) -> PiValue:
    """Correction to the leading frak_z term of single_bracket(m)."""
    mm = _canonical(m)
    values = sorted(set(mm), reverse=True)
    mult = [mm.count(v) for v in values]
    # each multiset partition of mm stands for `orbit` set partitions of its
    # positions, all with the same block stats; sum orbits per sorted stats
    orbits: dict[tuple[tuple[int, int], ...], int] = {}
    block_stats: dict[tuple[int, ...], tuple[int, int]] = {}
    for orbit, blocks in multiset_partitions(mult):
        if len(blocks) < 2:
            continue
        stats = []
        for b in blocks:
            st = block_stats.get(b)
            if st is None:
                st = block_stats[b] = (sum(x * v for x, v in zip(b, values)), sum(b))
            stats.append(st)
        key = tuple(sorted(stats))
        orbits[key] = orbits.get(key, 0) + orbit
    total = Fraction(0)
    factors: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for stats, orbit in orbits.items():
        ell = len(stats)
        inner = _block_term_sum(stats, ell - 2, factors)
        if inner:
            sign = -1 if ell % 2 == 0 else 1
            total += inner * (sign * orbit * math.factorial(ell - 2))
    return PiValue.from_graded(total, sum(mm) - len(mm) + 2)


def coefficient(mm: tuple[int, ...]) -> Fraction:
    """Rational coefficient of single_bracket(mm) at pi^(|mm| - len(mm) + 2).

    mm must already be canonical: a nonempty tuple of positive ints sorted
    in decreasing order.  Memoized; a miss at an even exponent calls
    error_term once, and at an odd one the coefficient is 0 by the grading.
    """
    q = _CACHE.get(mm)
    if q is None:
        exponent = sum(mm) - len(mm) + 2
        if exponent % 2:
            q = Fraction(0)
        else:
            q = math.factorial(sum(mm)) * _z(exponent) + error_term(mm).coefficient(exponent)
        _CACHE[mm] = q
    return q


def single_bracket(m: Iterable[int]) -> PiValue:
    """Exact correlator of the multiset m, built from the coefficient memo."""
    mm = _canonical(m)
    return PiValue.from_graded(coefficient(mm), sum(mm) - len(mm) + 2)


def clear_cache() -> None:
    _CACHE.clear()
