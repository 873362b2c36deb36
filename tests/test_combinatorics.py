import math
import random
from collections import Counter
from itertools import product

import pytest

from mvvol.combinatorics import canonical, partitions_of_size
from mvvol.f_expansion import partitions_of_weight
from oracles import (
    SetPartition,
    closure_table,
    complementary_partitions,
    joined,
    merged_to_one_block,
    nonneg_compositions,
    set_partitions,
)


# -- independent oracles -----------------------------------------------------


def brute_partitions(n):
    # enumerate multiplicity vectors (c_1, ..., c_n) with sum k*c_k = n,
    # a different scheme than the library's descending-part recursion
    if n == 0:
        return {()}
    found = set()
    ranges = [range(n // k + 1) for k in range(1, n + 1)]
    for mults in product(*ranges):
        if sum(k * c for k, c in zip(range(1, n + 1), mults)) != n:
            continue
        tup = []
        for k in range(n, 0, -1):
            tup.extend([k] * mults[k - 1])
        found.add(tuple(tup))
    return found


def brute_set_partitions(n):
    # canonicalize every block-labeling function 1..n -> 1..n
    found = set()
    for labels in product(range(n), repeat=n):
        blocks = {}
        for x, lab in zip(range(1, n + 1), labels):
            blocks.setdefault(lab, []).append(x)
        canon = tuple(sorted((tuple(b) for b in blocks.values()), key=lambda b: b[0]))
        found.add(canon)
    return found


# -- partitions ----------------------------------------------------------------


def test_canonical_sorts_a_multiset():
    assert canonical((3, 1, 1)) == (3, 1, 1)
    assert canonical([1, 3, 1]) == (3, 1, 1)
    assert canonical(iter((2, 5))) == (5, 2)
    assert type(canonical([1, 2])) is tuple


@pytest.mark.parametrize("m", [(), (2, 0), (3, -1), (2.0, 1), (3.9, 1), (True,), (True, 2),
                               ("3", 1), (None,)])
def test_canonical_refusals(m):
    with pytest.raises(ValueError):
        canonical(m)


def test_partitions_of_size_matches_brute_force():
    for n in range(0, 11):
        got = partitions_of_size(n)
        assert len(set(got)) == len(got)
        assert set(map(tuple, got)) == brute_partitions(n)


def test_partitions_of_size_order():
    # the table's row order and partitions_of_weight read this order
    for n in range(0, 13):
        got = partitions_of_size(n)
        assert got == sorted(brute_partitions(n), reverse=True), n
        assert all(type(p) is tuple for p in got)


def test_partitions_of_size_counts():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    counts = [len(partitions_of_size(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_weight_examples():
    assert partitions_of_weight(3) == [(2,)]
    assert partitions_of_weight(4) == [(3,), (1, 1)]
    assert partitions_of_weight(5) == [(4,), (2, 1)]


def test_partitions_of_weight_matches_definition():
    for w in range(2, 13):
        got = partitions_of_weight(w)
        assert len(set(got)) == len(got)
        want = set()
        for n in range(0, w):
            want |= {t for t in brute_partitions(n) if n + len(t) == w}
        assert set(map(tuple, got)) == want
    # exact list and order against filtering all partitions of each size
    for w in range(2, 25):
        want = []
        for ell in range(1, w // 2 + 1):
            want.extend(p for p in partitions_of_size(w - ell) if len(p) == ell)
        got = partitions_of_weight(w)
        assert got == want, w
        assert all(type(p) is tuple for p in got)
    with pytest.raises(ValueError):
        partitions_of_weight(1)


def test_nonneg_compositions_counts_and_membership():
    for n in range(0, 7):
        for k in range(1, 7):
            comps = nonneg_compositions(n, k)
            assert len(comps) == math.comb(n + k - 1, k - 1)
            for c in comps:
                assert len(c) == k and sum(c) == n and min(c) >= 0
    assert nonneg_compositions(0, 2) == [(0, 0)]
    assert nonneg_compositions(0, 0) == [()]
    assert nonneg_compositions(3, 0) == []


def test_weighted_composition_identity():
    # sum over partitions of n with k parts of k!/prod M_i! = C(n-1, k-1)
    for n in range(1, 10):
        for k in range(1, n + 1):
            acc = 0
            for lam in partitions_of_size(n):
                if len(lam) != k:
                    continue
                denom = 1
                for mult in Counter(lam).values():
                    denom *= math.factorial(mult)
                acc += math.factorial(k) // denom
            assert acc == math.comb(n - 1, k - 1)


# -- set partitions ------------------------------------------------------------


def test_set_partition_canonical_form():
    p = SetPartition([(4, 2), (3, 1)])
    assert p == ((1, 3), (2, 4))
    assert p.block_sizes == (2, 2)
    assert p.block_of(4) == 1
    with pytest.raises(ValueError):
        SetPartition([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        SetPartition([(1, 3)])  # gap: 2 missing


def test_set_partitions_bell_counts():
    bells = [sum(1 for _ in set_partitions(n)) for n in range(0, 7)]
    assert bells == [1, 1, 2, 5, 15, 52, 203]


def test_set_partitions_match_brute_force():
    for n in range(1, 7):
        got = list(set_partitions(n))
        assert len(set(got)) == len(got)
        assert {tuple(p) for p in got} == brute_set_partitions(n)


def test_set_partitions_canonical_order_of_blocks():
    for p in set_partitions(5):
        mins = [b[0] for b in p]
        assert mins == sorted(mins)
        for b in p:
            assert list(b) == sorted(b)


# -- complementary partitions ---------------------------------------------------


def test_join_filter_matches_block_merge():
    # the flood fill over closure tables against a plain block merge, n <= 6
    for n in range(1, 7):
        universe = list(set_partitions(n))
        tables = {p: closure_table(p, n) for p in universe}
        for alpha in universe:
            for rho in universe:
                got = joined(tables[alpha], tables[rho])
                assert got == merged_to_one_block(alpha, rho), (alpha, rho)


def test_complementary_matches_brute_force_filter():
    # every rho of n <= 8 elements: the pruned enumeration against the
    # flood-fill filter over all set partitions of the complement length
    for n in range(1, 9):
        universe = list(set_partitions(n))
        tables = {p: closure_table(p, n) for p in universe}
        by_len = {}
        for p in universe:
            by_len.setdefault(len(p), []).append(p)
        for rho in universe:
            rtab = tables[rho]
            want = {a for a in by_len.get(n + 1 - len(rho), ()) if joined(tables[a], rtab)}
            got = list(complementary_partitions(rho))
            assert len(set(got)) == len(got)
            assert set(got) == want, rho


def test_complementary_known_pair():
    rho = SetPartition([(1,), (2,), (3, 4, 5)])
    alpha = SetPartition([(1, 3), (2, 4), (5,)])
    assert alpha in set(complementary_partitions(rho))
    # same block lengths but transversality fails: {1,2} meets {1,2,3} twice
    rho2 = SetPartition([(1, 2, 3), (4,), (5,)])
    bad = SetPartition([(1, 2), (3,), (4, 5)])
    assert bad not in set(complementary_partitions(rho2))


def test_complementary_transversality_and_length():
    for rho in set_partitions(6):
        for alpha in complementary_partitions(rho):
            assert len(alpha) == 6 + 1 - len(rho)
            for a in alpha:
                for r in rho:
                    assert len(set(a) & set(r)) <= 1


def test_complementary_extreme_groupings():
    # one-block rho forces the discrete complement, discrete rho the opposite
    rho_full = SetPartition([tuple(range(1, 6))])
    assert list(complementary_partitions(rho_full)) == [
        SetPartition([(i,) for i in range(1, 6)])
    ]
    rho_discrete = SetPartition([(i,) for i in range(1, 6)])
    assert list(complementary_partitions(rho_discrete)) == [rho_full]


def test_complementary_is_lazy():
    gen = complementary_partitions(SetPartition([(1, 2), (3, 4), (5, 6)]))
    first = next(gen)
    assert isinstance(first, SetPartition)


def random_set_partition(rng, n):
    # random restricted-growth string: element e joins an open block or opens one
    blocks = []
    for e in range(1, n + 1):
        i = rng.randint(0, len(blocks))
        if i == len(blocks):
            blocks.append([e])
        else:
            blocks[i].append(e)
    return SetPartition(blocks)


def test_yielded_set_partitions_are_canonical():
    # both enumerators skip SetPartition validation, so each yielded value
    # must equal its own validated, canonicalized copy
    rng = random.Random(4711)
    for _ in range(300):
        rho = random_set_partition(rng, rng.randint(1, 8))
        for alpha in complementary_partitions(rho):
            assert type(alpha) is SetPartition
            assert alpha == SetPartition(list(alpha)), (rho, alpha)
    for n in range(0, 8):
        for alpha in set_partitions(n):
            assert type(alpha) is SetPartition
            assert alpha == SetPartition(list(alpha)), alpha
