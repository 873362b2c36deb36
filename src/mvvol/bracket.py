r"""One-point correlator of a multiset of cycle lengths.

For a multiset m = (m_1, ..., m_n) of positive integers, with |m| = sum(m_i),

    single_bracket(m) = |m|! * frak_z(|m| - n + 2) + error_term(m),

    error_term(m) = sum_alpha (-1)^(l-1) * (l-2)!
        * sum_d prod_i (1/d_i!) * s_i! * frak_z(s_i - c_i - d_i + 1),

where alpha runs over the set partitions of the positions {1..n} into
l >= 2 blocks, s_i is the sum of the m-entries in block i, c_i its size,
and d runs over the nonnegative compositions of l - 2 into l parts.  Every
surviving term has pi-exponent |m| - n + 2, so the result is a monomial (or
zero when |m| - n is odd), and pi is attached once per public call.

By Cayley's formula, (l-2)! / prod_i d_i! with sum_i d_i = l - 2 counts the
labelled trees on the l blocks in which block i has degree d_i + 1.  With
psi(beta, d) = -s! z(s - c - d + 2) for a block beta of sum s and size c,
where z(k) = c(k)/k! and c(k) = frak_slope(k) (exact_arith), the bracket
is minus one sum over the set partitions of the positions with a tree on
their blocks, each block weighted by psi at its tree degree.  The
one-block partition gives the leading term; (-1)^(l-1) is -1 times the
l signs of psi.

Take one variable per distinct value of m, so a block is a count vector
beta and m is the vector M of multiplicities.  Trees planted on an edge
above their root satisfy

    R = sum_{beta != 0} x^beta/beta! * sum_j psi(beta, j+1) R^j/j!;

trees rooted at a vertex give V, the same sum with psi(beta, j), and
trees rooted at an edge give R^2/2.  A tree has one more vertex than
edges, so b(m) = -M! [x^M] (V - R^2/2), with M! the product of
the factorials of M.  The series are filled over the vectors below M,
each after every vector below it.  R over a vector of sum S and size C
survives only when S - C is odd, so R^j there only when j = S - C mod 2.
One part is the one-vertex tree and two parts one edge, so

    b((v,)) = c(v + 1)/(v + 1),  b((u, v)) = c(u + v) - c(u) c(v).

The series runs on integers (_tree_sum, two or more parts).  With D_n of
exact_arith.odd_scales, S_a and C_a the sum and size of a vector a and a!
the product of its factorials, F_j(a) = a! D_(S_a) [x^a] R^j/j! is an
integer: it sums labelled forests of j planted trees on a, each block
weighted by psi = -s!/k! c(k), and the indices k over a forest sum to
S_a - C_a + j <= S_a.  Two vectors b <= a meet in the integer K(a, b) =
a! D_(S_a) / (b! D_(S_b) (a-b)! D_(S_(a-b))) = a!/(b! (a-b)!) Q_(S_a)[S_b],
Q of exact_arith.odd_quotients, and with the integer block weights
w(d) = psi(d) D_s, built once per (s, c),

    (j + 1) F_(j+1)(a) = sum_b K(a, b) F_1(b) F_j(a - b),
    F_1(a) = sum_b K(a, b) sum_j w_b(j + 1) F_j(a - b).

At M the rooted weights w_b(j) give M! D V, and the bracket is the one
Fraction -(M! D V - F_2(M)) / D_(S_M).  A rooted one-part block with no
children would read c(s + 1), which D_s does not clear; it occurs only
when M is one part.  Every division is checked.  tests/oracles.py keeps
the series on Fractions as the oracle.

Brackets share one table of planted trees, _PLANTED: F_0 .. F_|a| at a
vector a sum trees on the blocks of a alone, at a scale fixed by the
sub-multiset a stands for, and are kept keyed on it.  A bracket fills only
the vectors below M that no earlier bracket filled, plus M itself, which
it does not keep.  Each entry is built locally and published by one
assignment, so concurrent callers may fill a vector twice but always read
equal series.  The Wick and volume layers read _coefficient(), the
rational b(m) = single_bracket(m).q memoized on the sorted multiset,
unchecked on the keys they build.  The public single_bracket and
error_term take m in any order and check it on every call, as
combinatorics.canonical, which refuses a float, bool or str part.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby, product
from operator import mul
from typing import Iterable

from .combinatorics import canonical
from .exact_arith import PiValue, exact_quotient, frak_slope, odd_quotients, odd_scales

__all__ = ["single_bracket", "error_term", "clear_cache"]

# sorted multiset -> rational coefficient of pi^(|m| - n + 2)
_CACHE: dict[tuple[int, ...], Fraction] = {}
# sorted sub-multiset -> F_0 .. F_n at its count vector, n its number of
# parts: the planted-tree table shared by every bracket (module docstring)
_PLANTED: dict[tuple[int, ...], list] = {}
# (s, c) -> w(d) = psi(d) D_s for d = 0 .. s - c + 2: the integer weights
# of a block of sum s and size c at tree degree d
_WEIGHTS: dict[tuple[int, int], list] = {}


def _weights(s: int, c: int) -> list:
    """w(d) = psi(d) D_s = -s!/k! c(k) D_s at k = s - c - d + 2, for
    d = 0 .. s - c + 2, with D_s and c(k) read from odd_scales; k = 0 is
    live, c(0) = 1.  A one-part block at d = 0 would read k = s + 1 and
    holds a 0, never read."""
    w = _WEIGHTS.get((s, c))
    if w is None:
        _, scale, _, slope = odd_scales(s)
        w = [0] * (s - c + 3)
        for d in range(c == 1, s - c + 3):
            q = slope[k := s - c - d + 2]
            if q:
                w[d] = -q.numerator * math.perm(s, s - k) * exact_quotient(
                    scale[s], q.denominator, "D_s c_k is not an integer")
        _WEIGHTS[(s, c)] = w
    return w


def _tree_sum(mm: tuple[int, ...]) -> Fraction:
    """-M! [x^M] (V - R^2/2) for a canonical mm of two or more parts, on the
    integers F_j (module docstring).  Vectors below M are numbered in mixed
    radix (last value fastest), so a - b sits at i - g when a sits at i and
    b at g; F_j below M is read from _PLANTED, or filled and published."""
    if len(mm) < 2:
        raise ValueError(f"the tree series sums two or more parts: {mm}")
    values, mult = zip(*((v, len(list(run))) for v, run in groupby(mm)))
    strides = [math.prod(k + 1 for k in mult[v + 1:]) for v in range(len(mult))]
    top = math.prod(k + 1 for k in mult) - 1
    odd_d = odd_scales(sum(mm))[1]
    powers: list = [[1]]             # F_j at each vector below M, j = 0..|a|
    parity = [0] * (top + 1)         # S - C mod 2, which fixes the surviving j
    sums = [0] * (top + 1)           # S_a
    weights: list = [None]           # each vector's weights as a block
    vectors = product(*(range(k + 1) for k in mult))
    next(vectors)                    # the zero vector, where F_0 = 1
    for i, a in enumerate(vectors, 1):
        size, s = sum(a), sum(map(mul, a, values))
        parity[i] = odd = (s - size) & 1
        sums[i] = s
        weights.append(_weights(s, size))
        last = i == top
        if not last:
            key = sum(((v,) * x for v, x in zip(values, a)), ())
            if (pw := _PLANTED.get(key)) is not None:
                powers.append(pw)
                continue
        below = [(0, 1)]             # (position of b, a!/(b! (a-b)!)), 0 up to a itself
        for x, st in zip(a, strides):
            if x:
                below = [(g + t * st, m * math.comb(x, t)) for g, m in below for t in range(x + 1)]
        quotients = odd_quotients(s)
        shift = 0 if last else 1     # j children read w(j) rooted, w(j + 1) planted
        pw = [0] * (3 if last else size + 1)
        acc = weights[i][shift]      # F_1 (M! D V at M): the block a alone
        for g, m in below[1:-1]:
            r, h = powers[g][1], i - g
            if not (r or odd or last):
                continue
            ph, start = powers[h], 2 - parity[h]
            k = m * quotients[sums[g]]
            if r:                    # (j + 1) F_(j+1): F_1 at b = g times F_j at a - b
                kr, n = k * r, min(len(ph), len(pw) - 1)
                pw[start + 1:n + 1:2] = [x + kr * y for x, y in
                                         zip(pw[start + 1:n + 1:2], ph[start:n:2])]
            if odd or last:          # F_1 (M! D V): block b = g above forests at a - b
                w = weights[g][start + shift::2]
                acc += k * sum(map(mul, w, ph[start::2]))
        for j in range(2, len(pw)):
            pw[j] = exact_quotient(pw[j], j, "F_j is not an integer")
        if not last:
            pw[1] = acc
            powers.append(pw)
            _PLANTED[key] = pw
    return Fraction(pw[2] - acc, odd_d[s])


def error_term(m: Iterable[int]) -> PiValue:
    """Correction to the leading frak_z term of single_bracket(m)."""
    mm = canonical(m)
    exponent = sum(mm) - len(mm) + 2
    lead = math.factorial(sum(mm)) * frak_slope(exponent) / math.factorial(exponent)
    return PiValue(_coefficient(mm) - lead, exponent)


def _coefficient(mm: tuple[int, ...]) -> Fraction:
    """single_bracket(mm).q for a canonical mm, unchecked: the memo read of
    the package's own callers, which build canonical keys.  At an odd exponent
    the coefficient is 0 by the grading, one and two parts read the closed
    forms in the slopes, and more than two sum the tree series once
    (module docstring).
    """
    q = _CACHE.get(mm)
    if q is None:
        if (sum(mm) - len(mm)) % 2:
            q = Fraction(0)
        elif len(mm) == 1:
            q = frak_slope(mm[0] + 1) / (mm[0] + 1)
        elif len(mm) == 2:
            q = frak_slope(mm[0] + mm[1]) - frak_slope(mm[0]) * frak_slope(mm[1])
        else:
            q = _tree_sum(mm)
        _CACHE[mm] = q
    return q


def single_bracket(m: Iterable[int]) -> PiValue:
    """Exact correlator of the multiset m, built from the coefficient memo."""
    mm = canonical(m)
    return PiValue(_coefficient(mm), sum(mm) - len(mm) + 2)


def clear_cache() -> None:
    _CACHE.clear()
    _PLANTED.clear()
    _WEIGHTS.clear()
