r"""Integer partitions, graded by size.

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
    "Partition",
    "partitions_of_size",
]


class Partition(tuple):
    """Integer partition as a weakly decreasing tuple of positive parts."""

    def __new__(cls, parts: Iterable[int] = ()):
        t = tuple(int(p) for p in parts)
        if any(p <= 0 for p in t):
            raise ValueError(f"partition parts must be positive: {t}")
        if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {t}")
        return super().__new__(cls, t)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        """Size plus length.  The f-expansion of degree k has weight k + 1."""
        return sum(self) + len(self)

    def multiplicity(self, i: int) -> int:
        return sum(1 for p in self if p == i)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


def _partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def partitions_of_size(n: int) -> list[Partition]:
    """All partitions of n, largest first part first; [()] for n = 0."""
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    return [Partition(t) for t in _partitions(n, n if n else 1)]
