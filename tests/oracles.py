"""Reference sums the tests check the package against.

tree_sum is the bracket series of mvvol.bracket (module docstring there),

    coefficient(m) = -M! [x^M] (V - R^2/2),

summed on Fractions for any canonical multiset, one part included, with
block weights psi(beta, .)/(j! beta!) as Fractions.  The package sums the
same series on integers scaled per count vector; this is the view it is
checked against bit for bit.  The series R^j at the vectors below M are
kept in this module's own table, keyed on the sub-multiset a vector
stands for, so a test can sum many related brackets.  clear() empties it
and the memos of the package's reference layer, wick and f_expansion,
which volumes.clear_caches() leaves alone.

hypertree_sum is the hypertree loop of mvvol.volumes (module docstring
there), c_value(key) * |key|! * prod key, summed on Fractions.  It reads
the brackets through mvvol.bracket.coefficient and exp(-k B) through
mvvol.volumes._exp_ints, which the tests check against oracles of their
own.  The package sums the same loop on integers scaled per count vector
and weight.

The set partitions that define both sums are enumerated here and nowhere
in the package: set_partitions lists the reduced set partitions of
{1..N}, complementary_partitions those alpha with len(alpha) + len(rho) =
N + 1 whose join with rho is the one-block partition, and
nonneg_compositions the degree vectors of the bracket's defining double
sum.  Two join filters check the enumeration of complements: joined floods
through closure tables, fast enough to filter the complements of every
rho at N <= 8, and merged_to_one_block merges blocks one by one, the
plain definition the flood fill is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby, product
from operator import mul
from typing import Iterable, Iterator, Sequence

from mvvol import bracket, exact_arith, f_expansion, volumes, wick
from mvvol.exact_arith import frak_slope

# sorted sub-multiset -> R^0 .. R^n at its count vector, n its number of parts
_SERIES: dict[tuple[int, ...], list] = {}
# (s, c, beta!) -> block weights by number of children j: planted
# psi(j+1)/(j! beta!) and rooted psi(j)/(j! beta!)
_WEIGHTS: dict[tuple[int, int, int], tuple[list, list]] = {}


def clear() -> None:
    _SERIES.clear()
    _WEIGHTS.clear()
    wick.clear_cache()
    f_expansion.clear_cache()


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


def tree_sum(mm: tuple[int, ...]) -> Fraction:
    """-M! [x^M] (V - R^2/2) for the canonical multiset mm, on Fractions.

    Vectors below M are numbered in mixed radix (last value fastest), so
    the vector a - b sits at position i - g when a sits at i and b at g.
    R^j at a vector below M is read from _SERIES when an earlier call
    filled it, and kept there otherwise.
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
            pw = _SERIES.get(key)
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
            _SERIES[key] = pw
    # the loop ends at M, with V there in acc and R^2 in pw[2]
    return -math.prod(math.factorial(k) for k in mult) * (acc - Fraction(pw[2], 2))


def exp_fractions(k: int, top: int) -> list[Fraction]:
    """L_k(0), ..., L_k(top), the coefficients of exp(-k B(y)): the
    integers A_n of mvvol.volumes._exp_ints over their scales n! D_n."""
    scales = exact_arith.odd_scales(top)[2]
    return [Fraction(x, s) for x, s in zip(volumes._exp_ints(k, top), scales)]


def hypertree_sum(key: tuple[int, ...]) -> Fraction:
    """c_value(key) * |key|! * prod key for the sorted degrees key, on
    Fractions.  Vectors below M - e_0 are numbered in mixed radix, last
    degree fastest, so a - b sits at i - g when a sits at i and b at g.  A
    vector a gets S_u, then P_q = prod_u S_u^(q_u)/q_u! by |q| P_q =
    sum_u S_u P_(q-e_u), then |a| E where it is read (y^2 .. y^(k_0 - 1),
    and y^(k_0 + 1) on the last vector: exp(-k E) has no y^1 term), then
    exp(-k E) for the degrees with a zero left to place above a, by
    |a| exp(-k E) = -k sum_(0 < b <= a) |b| E_b exp(-k E)_(a-b).
    """
    degrees, target = [], []
    for k, run in groupby(key):
        degrees.append(k)
        target.append(len(list(run)))
    weight = math.prod(map(math.factorial, target)) // target[0]
    target[0] -= 1
    k0 = degrees[0]
    if not any(target):
        return -exp_fractions(k0, k0 + 1)[k0 + 1] / k0
    strides = [math.prod(t + 1 for t in target[d + 1:]) for d in range(len(target))]
    top = math.prod(t + 1 for t in target) - 1
    exps: list = [[exp_fractions(k, k - 1) for k in degrees]]  # exp(-k_d E), by d
    hands: list = [None]                # S at each vector: part u -> coefficient
    powers: list = [{(): Fraction(1)}]  # P at each vector: sorted q -> coefficient
    slopes: list = [None]               # |a| E at each vector: (j, coefficient)
    vectors = product(*(range(t + 1) for t in target))
    next(vectors)
    for i, a in enumerate(vectors, 1):
        size = sum(a)
        below = [0]
        for x, st in zip(a, strides):
            if x:
                below = [g + t * st for g in below for t in range(x + 1)]
        # S_u = sum_d x_d [y^(k_d - u)] exp(-k_d E)
        hand: dict[int, Fraction] = {}
        for d, x in enumerate(a):
            if x:
                k, g = degrees[d], exps[i - strides[d]][d]
                for u in range(1, k + 1):
                    if g[k - u]:
                        hand[u] = hand[u] + g[k - u] if u in hand else g[k - u]
        hands.append(hand)
        # |q| P_q = sum_u sum_b S_u(b) P_(q - e_u)(a - b); at b = a it is S_u
        acc = {(u,): s for u, s in hand.items()}
        for g in below[1:-1]:
            for u, s in hands[g].items():
                for q, p in powers[i - g].items():
                    q = tuple(sorted((u, *q), reverse=True))
                    acc[q] = acc[q] + s * p if q in acc else s * p
        power = {q: p / len(q) if len(q) > 1 else p for q, p in acc.items() if p}
        powers.append(power)
        # E at y^j = y^(w+1) is sum_q b((w,) + q) P_q; by grading it
        # vanishes unless j has the parity of sum_d a_d (k_d - 1)
        odd = sum(x * (k - 1) for x, k in zip(a, degrees)) % 2
        slope = []
        for j in [*range(2 + odd, k0, 2), *([k0 + 1] if i == top else [])]:
            e = sum(b * p for q, p in power.items()
                    if (b := bracket.coefficient(tuple(sorted((j - 1, *q), reverse=True)))))
            if e:
                slope.append((j, e * size))
        slopes.append(slope)
        row = []
        for d, k in enumerate(degrees):
            f = None
            if d == 0 or a[d] < target[d]:
                # y^0 .. y^(k-1), and only y^(k+1) at the root's last vector
                f = [0] * (k + 2)
                for g in below[1:]:
                    h = exps[i - g][d]
                    for j, e in slopes[g]:
                        for n in [k + 1] if i == top else range(j, k):
                            if h[n - j]:
                                f[n] += e * h[n - j]
                if any(f) and i < top:
                    c = Fraction(-k, size)
                    f = [v and v * c for v in f]
            row.append(f)
        exps.append(row)
    # the last row is still to be multiplied by -k_0/|a|; -k_0 cancels
    return Fraction(weight * exps[top][0][k0 + 1], size)


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
    their minimum, so equal partitions compare equal as tuples.
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
    and rho (finest common coarsening) is the single-block partition.  Each
    element e is an edge between its alpha-block and its rho-block in the
    bipartite block-intersection graph; with N edges on N + 1 vertices the
    join condition forces that graph to be a tree, so a cycle (found by a
    union-find with rollback) prunes the branch.  Acyclicity also gives
    transversality: a repeated (alpha-block, rho-block) incidence is a
    cycle.  rho is validated once; the yielded blocks are canonical by
    construction (elements are placed in increasing order).
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


def closure_table(p: SetPartition, n: int) -> bytearray:
    """table[mask] = union of the blocks of p meeting mask, over n <= 8 bits."""
    owner = [0] * n
    for b in p:
        bm = sum(1 << (x - 1) for x in b)
        for x in b:
            owner[x - 1] = bm
    table = bytearray(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] | owner[low.bit_length() - 1]
    return table


def joined(alpha: bytearray, rho: bytearray) -> bool:
    """Whether the join of two set partitions is the one-block partition.

    Floods from element 1 through the blocks of rho and of alpha (given by
    their closure tables) until nothing new is reached.
    """
    reach = 1
    while True:
        nxt = alpha[rho[reach]]
        if nxt == reach:
            return reach == len(alpha) - 1
        reach = nxt


def merged_to_one_block(alpha: Iterable[Sequence[int]], rho: Iterable[Sequence[int]]) -> bool:
    """Whether the join of alpha and rho is one block, by merging the
    alpha-blocks each rho-block touches."""
    comps = [set(b) for b in alpha]
    for rb in rho:
        touched = [c for c in comps if c & set(rb)]
        comps = [c for c in comps if not c & set(rb)] + [set().union(*touched)]
    return len(comps) == 1
