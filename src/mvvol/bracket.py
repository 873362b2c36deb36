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

Because that exponent is fixed by the grading, the sums run on bare
Fractions (the rational coefficients of frak_z) and pi is attached once per
public call.  coefficient() is the rational hot-path entry used by the Wick
expansion; its memo holds the coefficient of every multiset seen so far,
keyed on the sorted multiset, and a miss calls error_term once.

The d-tuples are enumerated per block against the parity and range needed
for frak_z to be nonzero, which prunes most branches before any factorial
work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .combinatorics import set_partitions
from .exact_arith import PiValue, frak_z

__all__ = ["single_bracket", "error_term", "coefficient", "clear_cache"]

# sorted multiset -> rational coefficient of pi^(|m| - n + 2)
_CACHE: dict[tuple[int, ...], Fraction] = {}
# sorted multiset -> the PiValue single_bracket hands out for it
_VALUES: dict[tuple[int, ...], PiValue] = {}


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


def _block_term_sum(stats: Sequence[tuple[int, int]], total: int) -> Fraction:
    """Sum over admissible d of prod_i s_i!/d_i! * z(s_i - c_i - d_i + 1).

    stats holds (s_i, c_i) per block; total = len(alpha) - 2; z is the
    rational coefficient of frak_z.  d_i is only useful when
    s_i - c_i - d_i + 1 is even and >= 0, i.e. d_i has fixed parity and
    d_i <= s_i - c_i + 1.
    """
    per_block: list[list[tuple[int, Fraction]]] = []
    for s, c in stats:
        top = s - c + 1
        opts = []
        for d in range(top % 2, min(top, total) + 1, 2):
            z = _z(top - d)
            if z:
                opts.append((d, Fraction(math.factorial(s), math.factorial(d)) * z))
        if not opts:
            return Fraction(0)
        per_block.append(opts)

    acc = Fraction(0)

    def rec(i: int, rem: int, coeff: Fraction) -> None:
        nonlocal acc
        if i == len(per_block) - 1:
            for d, q in per_block[i]:
                if d == rem:
                    acc += coeff * q
            return
        min_rest = sum(opts[0][0] for opts in per_block[i + 1:])
        for d, q in per_block[i]:
            if d + min_rest > rem:
                break
            rec(i + 1, rem - d, coeff * q)

    rec(0, total, Fraction(1))
    return acc


def error_term(m: Iterable[int]) -> PiValue:
    """Correction to the leading frak_z term of single_bracket(m)."""
    mm = _canonical(m)
    n = len(mm)
    total = Fraction(0)
    for alpha in set_partitions(n):
        ell = len(alpha)
        if ell < 2:
            continue
        stats = tuple((sum(mm[x - 1] for x in b), len(b)) for b in alpha)
        inner = _block_term_sum(stats, ell - 2)
        if inner:
            sign = -1 if ell % 2 == 0 else 1
            total += inner * (sign * math.factorial(ell - 2))
    return PiValue.from_graded(total, sum(mm) - n + 2)


def coefficient(mm: tuple[int, ...]) -> Fraction:
    """Rational coefficient of single_bracket(mm) at pi^(|mm| - len(mm) + 2).

    mm must already be canonical: a nonempty tuple of positive ints sorted
    in decreasing order.  Memoized; a miss calls error_term once.
    """
    q = _CACHE.get(mm)
    if q is None:
        exponent = sum(mm) - len(mm) + 2
        q = math.factorial(sum(mm)) * _z(exponent) + error_term(mm).coefficient(exponent)
        _CACHE[mm] = q
    return q


def single_bracket(m: Iterable[int]) -> PiValue:
    """Exact correlator of the multiset m; memoized on the sorted multiset."""
    mm = _canonical(m)
    value = _VALUES.get(mm)
    if value is None:
        value = _VALUES[mm] = PiValue.from_graded(coefficient(mm), sum(mm) - len(mm) + 2)
    return value


def clear_cache() -> None:
    _CACHE.clear()
    _VALUES.clear()
