"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Each criterion is implemented once in mvvol.selftest (shared by the CLI
`selftest` verb); the tests here drive those checks and print the same
report lines, so `pytest -v -s tests/test_acceptance.py` and
`mvvol selftest` tell the same story.
"""

import pytest

from mvvol.combinatorics import set_partitions
from mvvol.selftest import CHECKS, _closure_table, _joined, run_selftest
from mvvol.volumes import clear_caches

IDS = [
    "01-minimal-stratum-volume",
    "02-principal-volume-two-pipelines",
    "03-principal-equality-g3-g4",
    "04-grading-pi-2g",
    "05-error-ordering-genus3",
    "06-minimal-stratum-trend",
    "07-siegel-veech-exactness",
    "08-cylinder-decomposition",
    "09-module-cross-consistency",
    "10-combinatorial-identities",
    "11-correction-term-tripwire",
]


@pytest.mark.parametrize(
    "index,title,check",
    [(i + 1, t, fn) for i, (t, fn) in enumerate(CHECKS[:11])],
    ids=IDS,
)
def test_criterion(index, title, check):
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'} criterion {index:2d} ({title}): {detail}")
    assert ok, f"criterion {index} ({title}): {detail}"


def test_criterion_12_selftest_determinism():
    # the full report must be byte-identical across cold and warm caches
    clear_caches()
    cold = run_selftest()
    warm = run_selftest()
    ok = cold == warm and cold[0]
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 12 (determinism): selftest report "
        f"identical across cold and warm caches"
    )
    assert cold[1] == warm[1], "selftest output differs across cache states"
    assert cold[0] and warm[0], "selftest reported failures"


def merged_blocks_joined(alpha, rho):
    # merge the alpha-blocks each rho-block touches; one block left = joined
    comps = [set(b) for b in alpha]
    for rb in rho:
        touched = [c for c in comps if c & set(rb)]
        comps = [c for c in comps if not c & set(rb)] + [set().union(*touched)]
    return len(comps) == 1


def test_join_filter_matches_block_merge():
    # the flood fill behind criterion 09 against a plain block merge, n <= 6
    for n in range(1, 7):
        universe = list(set_partitions(n))
        tables = {p: _closure_table(p, n) for p in universe}
        for alpha in universe:
            for rho in universe:
                got = _joined(tables[alpha], tables[rho])
                assert got == merged_blocks_joined(alpha, rho), (alpha, rho)
