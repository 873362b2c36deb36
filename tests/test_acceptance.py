"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Each criterion is implemented once in mvvol.selftest (shared by the CLI
`selftest` verb); the tests here drive those checks and print the same
report lines, so `pytest -v -s tests/test_acceptance.py` and
`mvvol selftest` tell the same story.
"""

import pytest

from mvvol import bracket, exact_arith, volumes
from mvvol.selftest import CHECKS, run_selftest
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


def off_by_one(fn):
    # the same function with 1 added to its result, or to each entry of it
    def mutant(*args):
        out = fn(*args)
        return type(out)(x + 1 for x in out) if isinstance(out, (list, tuple)) else out + 1
    return mutant


@pytest.mark.parametrize("index,module,name", [
    (9, volumes, "_two_zero_sum"),
    (9, bracket, "_tree_sum"),
    (10, exact_arith, "_odd_prime_steps"),
    (10, exact_arith, "_tangent_numbers"),
    (10, exact_arith, "odd_quotients"),
], ids=["09-two-zero-sum", "09-tree-sum", "10-odd-prime-steps", "10-tangent-numbers",
        "10-quotient-rows"])
def test_criterion_fails_on_an_off_by_one(monkeypatch, index, module, name):
    # each check must see a wrong value in the shipped code it covers;
    # caches are cleared on both sides so no memo hides or keeps the mutant
    clear_caches()
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name)))
    try:
        ok, detail = CHECKS[index - 1][1]()
    finally:
        monkeypatch.undo()
        clear_caches()
    assert not ok, detail
