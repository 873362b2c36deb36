r"""Wick-type expansion of a multi-argument correlator.

multi_bracket([lam_1, ..., lam_n]) couples n partitions through all ways of
regrouping their parts.  Lay the parts out on L = sum len(lam_j) labeled
slots, the j-th partition occupying the consecutive block of len(lam_j)
slots; these interval blocks form the grouping rho.  Then

    multi_bracket(args) = sum over alpha complementary to rho of
                          prod over blocks B of alpha of
                          single_bracket(values of the slots in B),

where slot L_{j-1} + i carries the part lam_j[i].  Each surviving summand
is homogeneous of pi-exponent S + L - 2n + 2 with S the total size of the
arguments, so the result is again a monomial (or zero).  Each argument is
a nonempty multiset of positive ints in any order, which
combinatorics.canonical checks and sorts.

The complements are not enumerated.  A complement's block-incidence graph
(alpha-blocks and rho-blocks joined by the slots) is a tree, so rooting it
at an argument lam and cutting there leaves one branch per slot a of lam.
Branch a is a complement of the rho made of the singleton (lam_a,) and the
arguments the branch holds, and every way of handing the other arguments R
to the slots gives complements this way, each exactly once.  On the
rational coefficients W of pi^(S + L - 2n + 2):

    W(lam, R) = sum over maps phi: R -> slots of lam of
                prod_a W((lam_a,) + phi^-1(a)).

Maps that hand each slot the same multiset of arguments give the same
product, so the sum runs over distributions of the multiset R, weighted by
a multinomial per distinct argument; it is taken slot by slot as a product
of generating series in the argument counts, truncated at R.  The root is
the longest argument; when every argument has one part the only complement
is a single block, so W = bracket.coefficient(all values).

Coefficients are memoized on the sorted argument tuple (the correlator is
symmetric in its arguments), one entry per tuple that the recursion or a
caller reaches.  pi is attached per call.

multi_bracket is a reference implementation off the volume path, which
sums the same complements as one hypertree series (volumes docstring); the
tests keep it as the oracle of volumes.c_value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable

from .bracket import coefficient
from .combinatorics import canonical
from .exact_arith import PiValue

__all__ = ["multi_bracket", "clear_cache"]

# sorted argument tuple -> coefficient
_CACHE: dict[tuple[tuple[int, ...], ...], Fraction] = {}


def _solve(key: tuple[tuple[int, ...], ...]) -> Fraction:
    """Coefficient of a sorted argument tuple, by the rooted-tree recursion."""
    q = _CACHE.get(key)
    if q is not None:
        return q
    root = max(key, key=len)
    if len(root) == 1:
        q = _CACHE[key] = coefficient(tuple(sorted((a[0] for a in key), reverse=True)))
        return q

    rest = list(key)
    rest.remove(root)
    kinds = sorted(set(rest))
    mult = [rest.count(k) for k in kinds]
    # acc: count vector c of the arguments handed to the slots done so far
    # -> coefficient summed over those hand-outs; a slot taking d more
    # multiplies by prod_j C(c_j + d_j, d_j), and these binomials build each
    # distribution's multinomial weight
    acc = {(0,) * len(kinds): Fraction(1)}
    last = len(root) - 1
    for i, v in enumerate(root):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for c, q in acc.items():
            room = [m - x for m, x in zip(mult, c)]
            shares = [tuple(room)] if i == last else product(*(range(r + 1) for r in room))
            for d in shares:
                branch = [(v,)]
                weight = 1
                for kind, x, y in zip(kinds, c, d):
                    if y:
                        branch.extend([kind] * y)
                        weight *= comb(x + y, y)
                bq = _solve(tuple(sorted(branch)))
                s = tuple(x + y for x, y in zip(c, d))
                sq = nxt.get(s, 0)
                nxt[s] = sq + q * bq * weight if q and bq else sq
        acc = nxt
    q = _CACHE[key] = Fraction(acc[tuple(mult)])
    return q


def multi_bracket(args: Iterable[Iterable[int]]) -> PiValue:
    """Exact correlator of several partitions; symmetric and memoized."""
    key = tuple(sorted(canonical(a) for a in args))
    if not key:
        raise ValueError("multi_bracket needs at least one argument")
    q = _solve(key)
    exponent = sum(map(sum, key)) + sum(map(len, key)) - 2 * len(key) + 2
    return PiValue(q, exponent)


def clear_cache() -> None:
    _CACHE.clear()
