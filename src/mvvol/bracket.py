r"""One-point correlator of a multiset of cycle lengths.

For a multiset m = (m_1, ..., m_n) of positive integers, with |m| = sum(m_i),

    single_bracket(m) = |m|! * frak_z(|m| - n + 2) + error_term(m),

    error_term(m) = sum_alpha (-1)^(l-1) * (l-2)!
        * sum_d prod_i (1/d_i!) * s_i! * frak_z(s_i - c_i - d_i + 1),

where alpha runs over the set partitions of the positions {1..n} into
l >= 2 blocks, s_i is the sum of the m-entries in block i, c_i its size,
and d runs over the nonnegative compositions of l - 2 into l parts.  Every
surviving term has pi-exponent |m| - n + 2, so the result is a monomial (or
zero when |m| - n is odd).

By Cayley's formula, (l-2)! / prod_i d_i! with sum_i d_i = l - 2 counts the
labelled trees on the l blocks in which block i has degree d_i + 1.  With

    psi(beta, delta) = -s! * z(s - c - delta + 2)

for a block beta of sum s and size c, where z(k) = frak_slope(k) / k! is
the rational coefficient of frak_z(k) (exact_arith), the whole bracket is
minus one sum over the set partitions of the positions together with a
tree on their blocks, each block weighted by psi at its tree degree.  The
one-block partition is the one-vertex tree and gives the leading term; the
sign (-1)^(l-1) is -1 times the l signs of psi.

Such sums have exponential generating functions.  Take one variable per
distinct value of m, so a block is a count vector beta and m is the vector
M of multiplicities.  Trees planted on an edge above their root satisfy

    R = sum_{beta != 0} x^beta/beta! * sum_j psi(beta, j+1) R^j/j!;

trees rooted at a vertex give V, the same sum with psi(beta, j), and trees
rooted at an edge give R^2/2.  A tree has one more vertex than it has
edges, so the unrooted trees sum to V - R^2/2 and

    coefficient(m) = -M! * [x^M] (V - R^2/2),

with M! the product of the factorials of M.  The series are truncated at M
and filled over the lattice of count vectors below it, each vector after
every vector below it: R^j at a vector needs R only at smaller ones.  A
planted tree over a vector of sum S and size C survives only when S - C is
odd, so R^j there survives only when j = S - C mod 2, and the sums step
over the other half.

A tree on two blocks has one edge, so with the slopes c(k) = frak_slope(k)
a bracket of two parts is a closed form,

    coefficient((u, v)) = c(u + v) - c(u) c(v),

the one-vertex tree on the block {u, v} and then the one edge between
the two singletons (0 at an odd exponent, where c vanishes).  It is the
series' first layer beyond a single part, as the one- and two-zero closed
forms are of the hypertree series in volumes.  A single part is one
vector, which _tree_sum sums directly (it gives c(v + 1)/(v + 1)), and
_tree_sum stays callable on any multiset as the oracle of both.

Brackets of three or more parts share one table of planted trees,
_PLANTED.  R^j at a count vector a sums trees on the blocks of a alone:
a block's weights depend on the multiset being summed only through the
length of their list, and the sums at a stop at j <= |a|.  So R^0 ..
R^|a| depend only on the sub-multiset a stands for, and are kept keyed
on it.  A bracket fills only the vectors below M that no earlier bracket
filled, plus M itself, where it needs V and R^2 and keeps nothing.  Each
entry is built locally and published by one assignment, so concurrent
callers may fill a vector twice but always read equal series.

The pi exponent is fixed by the grading, so the series run on bare
Fractions, read from the memoized exact_arith.frak_slope, and pi is
attached once per public call.  coefficient() is the rational hot-path
entry used by the Wick and volume layers; its memo holds the coefficient
of every multiset seen so far, keyed on the sorted multiset, and a miss
at an odd exponent is 0, two parts read the closed form, and one part or
more than two sum the series once.  A block's weights psi(beta, .)/(j!
beta!) depend on beta only through (s, c, beta!) and are memoized on it
across calls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby, product
from operator import mul
from typing import Iterable

from .exact_arith import PiValue, frak_slope

__all__ = ["single_bracket", "error_term", "coefficient", "clear_cache"]

# sorted multiset -> rational coefficient of pi^(|m| - n + 2)
_CACHE: dict[tuple[int, ...], Fraction] = {}
# sorted sub-multiset -> R^0 .. R^n at its count vector, n its number of
# parts: the planted-tree table shared by every bracket (module docstring)
_PLANTED: dict[tuple[int, ...], list] = {}
# (s, c, beta!) -> block weights by number of children j: planted
# psi(j+1)/(j! beta!) and rooted psi(j)/(j! beta!)
_WEIGHTS: dict[tuple[int, int, int], tuple[list, list]] = {}


def _canonical(m: Iterable[int]) -> tuple[int, ...]:
    t = tuple(sorted((int(v) for v in m), reverse=True))
    if not t:
        raise ValueError("bracket of an empty multiset")
    if t[-1] <= 0:
        raise ValueError(f"entries must be positive: {t}")
    return t


def _weights(s: int, c: int, fact: int, n: int) -> tuple[list, list]:
    """Weights of a block with j children in a tree, divided by beta!.

    The block has sum s, size c and beta! = fact.  Planted (one more edge,
    to the parent): psi(j + 1)/(j! beta!); rooted: psi(j)/(j! beta!), with
    psi(d) = -s! * z(s - c - d + 2).  In a multiset of n parts a block has
    at most n - c children, and z vanishes at odd or negative arguments, so
    the lists stop there and hold int 0 at the wrong parity.  The memo is
    rebuilt longer when a larger multiset needs more.
    """
    w = _WEIGHTS.get((s, c, fact))
    top = s - c + 2
    if w is None or len(w[1]) <= min(n - c, top):
        psi = [-math.factorial(s) * frak_slope(top - d) / (fact * math.factorial(top - d))
               if (top - d) % 2 == 0 else 0 for d in range(min(n - c, top) + 1)]
        w = _WEIGHTS[(s, c, fact)] = (
            [q and q / math.factorial(j - 1) for j, q in enumerate(psi[1:], 1)],
            [q and q / math.factorial(j) for j, q in enumerate(psi)],
        )
    return w


def _tree_sum(mm: tuple[int, ...]) -> Fraction:
    """-M! [x^M] (V - R^2/2) for the canonical multiset mm: its coefficient.

    Vectors below M are numbered in mixed radix (last value fastest), so
    the vector a - b sits at position i - g when a sits at i and b at g.
    R^j at a vector below M is read from _PLANTED when an earlier bracket
    filled it, and published there otherwise.
    """
    values, mult = [], []
    for v, run in groupby(mm):
        values.append(v)
        mult.append(len(list(run)))
    strides = [math.prod(k + 1 for k in mult[v + 1:]) for v in range(len(mult))]
    top = math.prod(k + 1 for k in mult) - 1
    powers: list = [[1]]             # R^j at each vector below M, j = 0..|a|
    parity = [0] * (top + 1)         # S - C mod 2, which fixes the surviving j
    planted_w: list = [None]         # each vector's weights as a block, planted
    rooted_w: list = [None]          # and rooted, by its number of children
    vectors = product(*(range(k + 1) for k in mult))
    next(vectors)                    # the zero vector, where R = 0 and R^0 = 1
    for i, a in enumerate(vectors, 1):
        size = sum(a)
        s = sum(map(mul, a, values))
        parity[i] = odd = (s - size) & 1
        planted, rooted = _weights(s, size, math.prod(map(math.factorial, a)), len(mm))
        planted_w.append(planted)
        rooted_w.append(rooted)
        last = i == top
        if not last:
            key = sum(((v,) * x for v, x in zip(values, a)), ())
            pw = _PLANTED.get(key)
            if pw is not None:
                powers.append(pw)
                continue
        # positions of the vectors below a, from 0 up to i itself
        below = [0]
        for x, st in zip(a, strides):
            if x:
                below = [g + t * st for g in below for t in range(x + 1)]
        w_of = rooted_w if last else planted_w
        pw = [0] * (3 if last else size + 1)
        acc = w_of[i][0]             # R (or V at M): the block a alone
        for g in below[1:-1]:
            h = i - g
            ph, ph_odd = powers[h], parity[h]
            # R^j at a: R at b = g times R^(j-1) at a - b
            r = powers[g][1]
            if r:
                for j in range(2 - ph_odd, min(len(ph), len(pw) - 1), 2):
                    pw[j + 1] += r * ph[j]
            # R (or V at M): block b = g above the trees at a - b
            if odd or last:
                w = w_of[g]
                for j in range(ph_odd, min(len(w), len(ph)), 2):
                    acc += w[j] * ph[j]
        if not last:
            pw[1] = acc
            powers.append(pw)
            _PLANTED[key] = pw
    # the loop ends at M, with V there in acc and R^2 in pw[2]
    return -math.prod(math.factorial(k) for k in mult) * (acc - Fraction(pw[2], 2))


def error_term(m: Iterable[int]) -> PiValue:
    """Correction to the leading frak_z term of single_bracket(m)."""
    mm = _canonical(m)
    exponent = sum(mm) - len(mm) + 2
    lead = math.factorial(sum(mm)) * frak_slope(exponent) / math.factorial(exponent)
    return PiValue(coefficient(mm) - lead, exponent)


def coefficient(mm: tuple[int, ...]) -> Fraction:
    """Rational coefficient of single_bracket(mm) at pi^(|mm| - len(mm) + 2).

    mm must already be canonical: a nonempty tuple of positive ints sorted
    in decreasing order.  Memoized; at an odd exponent the coefficient is 0
    by the grading, two parts read the closed form in the slopes, and one
    part or more than two sum the tree series once (module docstring).
    """
    q = _CACHE.get(mm)
    if q is None:
        if (sum(mm) - len(mm)) % 2:
            q = Fraction(0)
        elif len(mm) == 2:
            q = frak_slope(mm[0] + mm[1]) - frak_slope(mm[0]) * frak_slope(mm[1])
        else:
            q = _tree_sum(mm)
        _CACHE[mm] = q
    return q


def single_bracket(m: Iterable[int]) -> PiValue:
    """Exact correlator of the multiset m, built from the coefficient memo."""
    mm = _canonical(m)
    return PiValue(coefficient(mm), sum(mm) - len(mm) + 2)


def clear_cache() -> None:
    _CACHE.clear()
    _PLANTED.clear()
    _WEIGHTS.clear()
