r"""Partitions, compositions, set partitions, complementary pairs.

The volume pipeline consumes three combinatorial families:

* integer partitions, graded either by size |lam| or by weight
  wt(lam) = |lam| + len(lam);
* compositions (ordered tuples) of an integer with nonnegative entries;
* reduced set partitions of {1..N}, and for a fixed set partition rho the
  "complementary" ones: alpha with len(alpha) + len(rho) = N + 1 whose
  common refinement-join with rho is the one-block partition.

The Wick sum is defined over complementary partitions but computed by a
recursion over their block-incidence trees (see wick); the enumeration
here serves the selftest and the test oracles.

Complementary partitions are enumerated by backtracking.  Each element e
contributes an edge between its alpha-block and its rho-block in the
bipartite block-intersection graph; with N edges on N + 1 vertices the join
condition forces that graph to be a tree, so any cycle (detected by a
union-find with rollback) prunes the branch.  Acyclicity also subsumes
transversality: a repeated (alpha-block, rho-block) incidence is a cycle.
All enumerators are lazy generators except the small partition lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "partitions_of_size",
    "partitions_of_weight",
    "nonneg_compositions",
    "SetPartition",
    "set_partitions",
    "complementary_partitions",
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


def partitions_of_weight(w: int) -> list[Partition]:
    """All partitions with size + length = w (so w >= 2), shortest first:
    the partitions of w into parts >= 2, with 1 taken from each part."""
    if w < 2:
        raise ValueError("weight must be at least 2")
    return sorted((Partition(p - 1 for p in mu) for mu in partitions_of_size(w) if mu[-1] >= 2),
                  key=len)


def nonneg_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """Ordered k-tuples of nonnegative integers summing to n: C(n+k-1, k-1)."""
    if k < 0:
        raise ValueError("composition length must be nonnegative")
    if k == 0:
        return [()] if n == 0 else []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rem: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (rem,))
            return
        for v in range(rem + 1):
            rec(prefix + (v,), rem - v, slots - 1)

    rec((), n, k)
    return out


class SetPartition(tuple):
    """Reduced set partition: disjoint nonempty blocks covering {1..N}.

    Canonical form: each block is a sorted tuple and blocks are ordered by
    their minimum, so equal partitions compare equal as tuples.  An ordered
    (nonreduced) block list is just a plain sequence of blocks.
    """

    def __new__(cls, blocks: Iterable[Sequence[int]]):
        blks = tuple(tuple(sorted(b)) for b in blocks)
        blks = tuple(sorted(blks, key=lambda b: b[0] if b else 0))
        seen: set[int] = set()
        for b in blks:
            if not b:
                raise ValueError("empty block in set partition")
            for x in b:
                if x in seen:
                    raise ValueError(f"element {x} repeated across blocks")
                seen.add(x)
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError(f"blocks must cover 1..N, got {sorted(seen)}")
        return super().__new__(cls, blks)

    @classmethod
    def _canonical(cls, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Wrap blocks already in canonical form, skipping the checks."""
        return tuple.__new__(cls, blocks)

    @property
    def universe_size(self) -> int:
        return sum(len(b) for b in self)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self)

    def block_of(self, x: int) -> int:
        for i, b in enumerate(self):
            if x in b:
                return i
        raise KeyError(x)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self)
        return f"SetPartition[{inner}]"


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All reduced set partitions of {1..n}, lazily, in canonical order.

    Generated as restricted-growth assignments, so blocks appear ordered by
    minimum and sorted automatically, and are yielded without re-validation.
    Counts are the Bell numbers 1, 1, 2, 5, 15, ...
    """
    if n < 0:
        raise ValueError("set partitions need n >= 0")
    if n == 0:
        yield SetPartition(())
        return
    blocks: list[list[int]] = []

    def rec(e: int) -> Iterator[SetPartition]:
        if e > n:
            yield SetPartition._canonical(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(e)
            yield from rec(e + 1)
            b.pop()
        blocks.append([e])
        yield from rec(e + 1)
        blocks.pop()

    yield from rec(1)


def complementary_partitions(rho: Iterable[Sequence[int]]) -> Iterator[SetPartition]:
    """Lazily yield the set partitions complementary to rho.

    Complementary means len(alpha) = N + 1 - len(rho) and the join of alpha
    and rho (finest common coarsening) is the single-block partition.  Such
    alpha are automatically transverse to rho: every alpha-block meets every
    rho-block at most once.  rho is validated once; the yielded blocks are
    canonical by construction (elements are placed in increasing order), so
    they are not re-validated.
    """
    rho_blocks = SetPartition(rho)
    n = rho_blocks.universe_size
    if n == 0:
        return
    r = len(rho_blocks)
    k_target = n + 1 - r
    rho_of = [0] * (n + 1)
    for bi, b in enumerate(rho_blocks):
        for x in b:
            rho_of[x] = bi

    # union-find over r rho-nodes followed by up to k_target alpha-nodes;
    # plain attach (no path compression) so undo is popping the stack.
    parent = list(range(r + k_target))
    size = [1] * (r + k_target)
    undo: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        undo.append(rb)
        return True

    def undo_union() -> None:
        rb = undo.pop()
        size[find(rb)] -= size[rb]
        parent[rb] = rb

    blocks: list[list[int]] = []

    def rec(e: int) -> Iterator[SetPartition]:
        if e > n:
            yield SetPartition._canonical(tuple(tuple(b) for b in blocks))
            return
        if len(blocks) + (n - e + 1) < k_target:
            return  # too few elements left to open the required blocks
        rnode = rho_of[e]
        if len(blocks) + (n - e) >= k_target:
            for bi, b in enumerate(blocks):
                # adding e to an existing block must keep the incidence
                # graph acyclic, else the join cannot be the full partition
                if not union(r + bi, rnode):
                    continue
                b.append(e)
                yield from rec(e + 1)
                b.pop()
                undo_union()
        if len(blocks) < k_target:
            bi = len(blocks)
            union(r + bi, rnode)
            blocks.append([e])
            yield from rec(e + 1)
            blocks.pop()
            undo_union()

    yield from rec(1)
