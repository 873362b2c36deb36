r"""Integer partitions as plain tuples, and the one check of a multiset.

A partition, and the multiset a bracket or c_value reads, is a tuple of
positive ints in decreasing order.  canonical() checks a caller's multiset
and sorts it so, refusing a float, bool or str part, never truncating it.
The CLI's table, the principal closed form and the selftest run over the
partitions of a size.  The partitions of a weight |lam| + len(lam), the
supports of the power-sum expansion, are listed next to their only
reader, f_expansion.

The set partitions that define the brackets and the Wick sum are never
enumerated by the package: bracket, wick and volumes sum them as trees of
blocks.  Their enumerators (set partitions, complements of a grouping,
nonnegative compositions) live with the other reference code in
tests/oracles.py.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "canonical",
    "partitions_of_size",
]


def canonical(m: Iterable[int]) -> tuple[int, ...]:
    """m as a tuple sorted in decreasing order.  ValueError unless m is a
    nonempty multiset of positive ints, a bool not counting as one."""
    t = tuple(m)
    if not t or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in t):
        raise ValueError(f"expected a nonempty multiset of positive ints: {t}")
    return tuple(sorted(t, reverse=True))


def _partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def partitions_of_size(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, largest first part first; [()] for n = 0."""
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    return list(_partitions(n, n if n else 1))
