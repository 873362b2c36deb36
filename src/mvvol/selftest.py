r"""Built-in oracle suite: one check per shipped acceptance criterion.

The checks run the shipped code only.  The reference code the fast paths
are checked against bit for bit (the set-partition enumerators, and the
bracket series and hypertree loop on Fractions) lives in tests/oracles.py
and runs in the test suite; here criterion 09 checks the fast paths
against each other, across the dispatch boundaries of volumes.c_value.

Each check returns (ok, detail) where detail is deterministic text (never
timings), so the rendered report is byte-identical across repeated runs
and cache states.  The CLI `selftest` verb prints one PASS/FAIL line per
check; the test suite drives the same functions.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from typing import Callable

from . import bracket, exact_arith
from .bracket import error_term
from .combinatorics import partitions_of_size
from .exact_arith import PiValue, frak_slope
from .siegel_veech import (
    area1_constant,
    cyl1_total,
    cyl_constant,
    handle_constant,
    loop_constant,
    loop_per_angle,
    sc2_principal,
    sc_constant,
)
from .volumes import (
    Stratum,
    c_value,
    clear_caches,
    principal_volume,
    volume,
)

__all__ = ["run_selftest", "CHECKS"]


def _mono(num: int, den: int, exp: int) -> PiValue:
    return PiValue(Fraction(num, den), exp)


def _check_minimal() -> tuple[bool, str]:
    clear_caches()
    t0 = time.perf_counter()
    res = volume(Stratum([2]))
    fast = time.perf_counter() - t0 < 1.0
    ok = res.value == _mono(1, 120, 4) and fast
    return ok, f"volume(H(2)) = {res.value}"


def _check_principal_two_ways() -> tuple[bool, str]:
    t0 = time.perf_counter()
    general = volume(Stratum([1, 1])).value
    closed = principal_volume(2)
    fast = time.perf_counter() - t0 < 1.0
    ok = general == closed == _mono(1, 135, 4) and fast
    return ok, f"volume(H(1,1)) = {general} by both pipelines"


def _check_principal_equality() -> tuple[bool, str]:
    t0 = time.perf_counter()
    results = []
    for g in (3, 4):
        general = volume(Stratum([1] * (2 * g - 2))).value
        results.append(general == principal_volume(g))
    within = time.perf_counter() - t0 < 600.0
    return all(results) and within, "closed form matches general pipeline at g=3,4"


def _check_grading() -> tuple[bool, str]:
    ok = True
    for total in (2, 4, 6):
        for m in partitions_of_size(total):
            val = volume(Stratum(m)).value
            q, e = val.monomial()
            ok = ok and q > 0 and e == total + 2
    return ok, "each volume with 2g-2 <= 6 is a positive rational times pi^(2g)"


def _check_error_ordering() -> tuple[bool, str]:
    principal = volume(Stratum([1, 1, 1, 1]))
    minimal = volume(Stratum([4]))
    ok = abs(principal.relative_error) < abs(minimal.relative_error)
    return ok, (
        f"at g=3: |rel.err|(H(1,1,1,1)) = {abs(principal.relative_error)} < "
        f"{abs(minimal.relative_error)} = |rel.err|(H(4))"
    )


def _check_minimal_trend() -> tuple[bool, str]:
    ratios = []
    for g in (2, 3, 4):
        val = volume(Stratum([2 * g - 2])).value
        ratios.append(float(val.to_decimal(30)) * (2 * g - 1) / 4)
    ok = all(0.55 < r < 1.0 for r in ratios) and ratios[0] < ratios[1] < ratios[2]
    shown = ", ".join(f"g={g}: {r:.4f}" for g, r in zip((2, 3, 4), ratios))
    return ok, f"volume(H(2g-2))*(2g-1)/4 increasing in (0.55, 1.0): {shown}"


def _check_sv_exactness() -> tuple[bool, str]:
    ok = sc_constant(Stratum([1, 1]), 1, 2).value == _mono(27, 8, 0)
    ok = ok and sc2_principal(2).value == _mono(5, 8, 0)
    ok = ok and sc_constant(Stratum([0, 2]), 1, 2).value == _mono(3, 1, 0)
    ok = ok and sc_constant(Stratum([0, 0]), 1, 2).value == _mono(1, 1, 0)
    ok = ok and loop_per_angle(Stratum([2]), 1, 1).value == _mono(20, 1, -2)
    ok = ok and cyl_constant(Stratum([1, 1]), 1, 2).value == _mono(15, 1, -2)
    ok = ok and handle_constant(Stratum([2]), 1).value == _mono(10, 1, -2)
    ok = ok and cyl1_total(Stratum([1, 1])).value == _mono(15, 1, -2)
    ok = ok and cyl1_total(Stratum([2])).value == _mono(10, 1, -2)
    ok = ok and area1_constant(Stratum([1, 1])).value == _mono(15, 4, -2)
    ok = ok and area1_constant(Stratum([2])).value == _mono(10, 3, -2)

    rational = [
        sc_constant(Stratum([1, 1]), 1, 2),
        sc_constant(Stratum([2, 1, 1]), 1, 2),
        sc_constant(Stratum([2, 2]), 1, 2),
        sc2_principal(2),
        sc2_principal(3),
    ]
    over_pi2 = [
        loop_per_angle(Stratum([3, 1]), 1, 1),
        loop_per_angle(Stratum([3, 1]), 1, 2),
        loop_constant(Stratum([4]), 1),
        loop_constant(Stratum([3, 1]), 1),
        cyl_constant(Stratum([2, 2]), 1, 2),
        cyl_constant(Stratum([3, 1]), 1, 2),
        handle_constant(Stratum([4]), 1),
        handle_constant(Stratum([3, 1]), 1),
        cyl1_total(Stratum([2, 2])),
        cyl1_total(Stratum([1, 1, 1, 1])),
        area1_constant(Stratum([3, 1])),
        area1_constant(Stratum([2, 1, 1])),
    ]
    ok = ok and all(r.pi_exponent == 0 for r in rational)
    ok = ok and all(r.value.is_zero() or r.pi_exponent == -2 for r in over_pi2)
    return ok, "sc(H(1,1)) = 27/8, sc2(g=2) = 5/8; exponent classes 0 and -2 as required"


def _check_decomposition() -> tuple[bool, str]:
    ok = True
    for total in (2, 4):
        for m in partitions_of_size(total):
            st = Stratum(m)
            n = st.zero_count
            acc = PiValue.zero()
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    acc += cyl_constant(st, i, j).value
                acc += handle_constant(st, i).value
            ok = ok and acc == cyl1_total(st).value
    return ok, "cyl1_total = sum of cyl pairs + handles, bit-exact, for 2g-2 <= 4"


def _check_cross_consistency() -> tuple[bool, str]:
    # a marked point (an entry 1) leaves c_value unchanged and moves a key
    # across a dispatch boundary of c_value: one zero to the two-zero
    # convolution, the convolution to the hypertree loop, and a principal
    # b(2, ..., 2) to the hypertree loop
    keys = [a for s in range(2, 15) for a in partitions_of_size(s)
            if a[-1] >= 2 and (s - len(a)) % 2 == 0]
    ok = all(c_value(a) == c_value(a + (1,)) for a in keys)
    pairs = [(u, s - u) for s in range(2, 25) for u in range((s + 1) // 2, s)]
    ok = ok and all(bracket.coefficient(p) == bracket._tree_sum(p) for p in pairs)
    return ok, (
        f"c_value(a) = c_value(a + (1,)) on {len(keys)} keys with parts >= 2, |a| <= 14; "
        f"two-part brackets = tree series, u + v <= 24"
    )


def _check_identities() -> tuple[bool, str]:
    ok = True
    for n in range(1, 10):
        parts = partitions_of_size(n)
        for k in range(1, n + 1):
            acc = Fraction(0)
            for lam in parts:
                if len(lam) != k:
                    continue
                denom = math.prod(map(math.factorial, Counter(lam).values()))
                acc += Fraction(math.factorial(k), denom)
            if acc != math.comb(n - 1, k - 1):
                ok = False
    # the lattice series read the integer rows Q_t[j] = D_t / (D_j D_(t-j)) and
    # scale the slopes by D_k; the Bernoulli numbers read the tangent numbers T_h
    top = 60
    d = exact_arith.odd_scales(top)[1]
    try:
        ok = ok and all(len(row := exact_arith.odd_quotients(t)) == t + 1 and all(
            q * d[j] * d[t - j] == d[t] for j, q in enumerate(row)) for t in range(top + 1))
    except ArithmeticError:
        ok = False
    ok = ok and all((d[k] * frak_slope(k)).denominator == 1 for k in range(top + 1))
    ok = ok and [exact_arith._tangent(h) for h in range(1, 6)] == [1, 2, 16, 272, 7936]
    return ok, (
        f"weighted composition identity k <= n <= 9; D_(x+y)/(D_x D_y) and "
        f"D_k frak_slope(k) integers to {top}; T_1..T_5 = 1, 2, 16, 272, 7936"
    )


def _check_tripwire() -> tuple[bool, str]:
    ok = True
    for s in range(2, 11):
        for lam in partitions_of_size(s):
            if lam[-1] < 2:
                continue
            bound = 2.0**40 * math.factorial(s - 1)
            if abs(error_term(lam).to_float()) > bound:
                ok = False
    return ok, "correction term stays below 2^40 (|m|-1)! for parts >= 2, |m| <= 10"


def _render_bundle() -> str:
    lines = []
    for total in (2, 4):
        for m in partitions_of_size(total):
            res = volume(Stratum(m))
            lines.append(f"{res.stratum} {res.value} {res.relative_error}")
    lines.append(str(sc_constant(Stratum([1, 1]), 1, 2).value))
    lines.append(str(cyl1_total(Stratum([2, 2])).value))
    return "\n".join(lines)


def _check_determinism() -> tuple[bool, str]:
    clear_caches()
    cold = _render_bundle()
    warm = _render_bundle()
    return cold == warm, "volume and SV reports byte-identical cold and warm"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("minimal stratum volume", _check_minimal),
    ("principal volume via two pipelines", _check_principal_two_ways),
    ("principal equality at g=3,4", _check_principal_equality),
    ("pi^(2g) grading for 2g-2 <= 6", _check_grading),
    ("error ordering at genus 3", _check_error_ordering),
    ("minimal-stratum ratio trend", _check_minimal_trend),
    ("Siegel-Veech exactness and exponent classes", _check_sv_exactness),
    ("cylinder decomposition", _check_decomposition),
    ("module cross-consistency", _check_cross_consistency),
    ("combinatorial identities", _check_identities),
    ("correction-term tripwire bound", _check_tripwire),
    ("determinism across cache states", _check_determinism),
]


def run_selftest() -> tuple[bool, list[str]]:
    """Run all checks; returns (all_passed, one report line per check)."""
    lines = []
    all_ok = True
    for idx, (title, fn) in enumerate(CHECKS, 1):
        ok, detail = fn()
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} criterion {idx:2d} ({title}): {detail}")
    return all_ok, lines
