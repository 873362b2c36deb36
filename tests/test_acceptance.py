"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Each criterion is implemented once in mvvol.selftest (shared by the CLI
`selftest` verb); the tests here drive those checks and print the same
report lines, so `pytest -v -s tests/test_acceptance.py` and
`mvvol selftest` tell the same story.
"""

import pytest

from mvvol.selftest import CHECKS, run_selftest
from mvvol.volumes import DEFAULT_MAX_WEIGHT, clear_caches

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
    ok, detail = check(DEFAULT_MAX_WEIGHT)
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
