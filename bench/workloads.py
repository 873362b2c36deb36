"""Workload inputs and output checks for the mvvol benchmark.

Stdlib only and independent of mvvol: the checks here must not share code
with the pipeline they judge.  Both the benchmark driver (run.py) and the
pass process (child.py) import this module, so a pass generates its own
inputs from the seed as part of its set-up.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

WORKLOADS = ("principal", "equal-parts", "minimal", "cli-cache")

# Largest sum of (m_i + 1) any workload asks for; passed explicitly so the
# default refusal bound never decides what the benchmark measures.
MAX_WEIGHT = 64
# Largest total degree 2g - 2 in the cli-cache workload's warm cache.
CLI_MAX_SIZE = {False: 8, True: 4}
# Invocations per cli-cache pass: (volume, sv, table, tampered).
CLI_MIX = {False: (12, 12, 2, 2), True: (3, 3, 1, 1)}
TAMPERED_KEY = "1,1"
TAMPERED_ENTRY = {"num": "1", "den": "7", "pi_exp": 4}

# Eskin-Okounkov values, as (numerator, denominator, pi exponent).
EO_TABLE = {
    (2,): (1, 120, 4),
    (1, 1): (1, 135, 4),
    (4,): (61, 108864, 6),
    (3, 1): (16, 42525, 6),
}

_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)


def families(workload: str, quick: bool = False) -> list[list[tuple[int, ...]]]:
    """Strata of a compute workload, grouped into families of rising genus."""
    if workload == "principal":
        top = 6 if quick else 8
        return [[(1,) * n for n in range(2, top + 1, 2)]]
    if workload == "equal-parts":
        twos = [(2,) * n for n in range(1, (3 if quick else 5) + 1)]
        fours = [(4,) * n for n in range(1, (2 if quick else 3) + 1)]
        # k = 2 and k = 4 already occur in the two families above
        ks = (1, 3, 5) if quick else (1, 3, 5, 6, 7, 8, 9, 10, 11)
        return [twos, fours, [(k, k) for k in ks]]
    if workload == "minimal":
        top = 8 if quick else 16
        return [[(2 * g - 2,) for g in range(2, top + 1)]]
    raise ValueError(f"no compute families for workload {workload!r}")


def compute_ops(workload: str, quick: bool = False) -> list[tuple[int, ...]]:
    """Strata of one pass, in ascending genus as `mvvol table` visits them.

    The order does not depend on the seed.  A pass keeps its memos across
    strata, so any order does the same total work, but the order decides
    which stratum pays for a shared memo entry, and so the per-stratum
    times: a seeded order would add seed-to-seed spread to call_p50_ms.
    """
    return sorted((s for fam in families(workload, quick) for s in fam), key=genus)


def genus(degrees: tuple[int, ...]) -> int:
    return (sum(degrees) + 2) // 2


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop (~0.1 s).

    Fraction, big-int, tuple and dict work over about a megabyte, close to
    the pipeline's mix and footprint.  Dividing a pass's time by it removes
    this VM's speed phases, which move both by up to 1.6x, while a change
    to mvvol moves only the pass.  (A loop that stays in L1 tracked the
    phases less well: 0.06 spread against 0.02 over 25 s windows.)
    """
    import time

    w0, c0 = time.perf_counter(), time.process_time()
    table = {}
    for i in range(6000):
        table[(i % 97, i % 89, i)] = Fraction(i, i % 13 + 1) + Fraction(1, i % 7 + 2)
    ordered = sorted(table.values())
    sum(ordered[::50])
    sorted(table, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - w0, time.process_time() - c0


# -- cli-cache -----------------------------------------------------------------


def _partitions(n: int, top: int | None = None) -> list[tuple[int, ...]]:
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, top), 0, -1) for rest in _partitions(n - p, p)]


def cli_strata(quick: bool = False) -> list[tuple[int, ...]]:
    """Every stratum the warm cache holds, the torus aside."""
    return [m for total in range(2, CLI_MAX_SIZE[quick] + 1, 2) for m in _partitions(total)]


def _sv_requests(strata: list[tuple[int, ...]]) -> list[list[str]]:
    out = []
    for m in strata:
        spec = ",".join(map(str, m))
        idx = range(1, len(m) + 1)
        pairs = [(i, j) for i in idx for j in idx if i < j]
        for i, j in pairs:
            out.append([spec, "--kind", "sc", "--zeros", f"{i},{j}"])
            out.append([spec, "--kind", "cyl", "--zeros", f"{i},{j}"])
        for i in idx:
            out.append([spec, "--kind", "loop", "--zeros", str(i)])
            out.append([spec, "--kind", "handle", "--zeros", str(i)])
            for a in range(1, m[i - 1]):
                out.append([spec, "--kind", "loop_per_angle", "--zeros", str(i), "--angle", str(a)])
        out.append([spec, "--kind", "cyl1"])
        out.append([spec, "--kind", "area1"])
        if set(m) == {1}:
            out.append([spec, "--kind", "sc2"])
    return out


def _format_flags(rng: random.Random) -> list[str]:
    fmt = rng.choice(("exact", "decimal", "json"))
    flags = ["--format", fmt]
    if fmt == "decimal":
        flags += ["--digits", str(rng.choice((10, 30, 50)))]
    return flags


def cli_ops(seed: int, quick: bool = False) -> list[dict]:
    """One pass of cli-cache invocations: argv without --cache, and which
    cache file the invocation reads ("warm" or "tampered")."""
    rng = random.Random(seed)
    strata = cli_strata(quick)
    n_volume, n_sv, n_table, n_tampered = CLI_MIX[quick]
    limit = ["--max-weight", str(MAX_WEIGHT)]
    ops = []
    for _ in range(n_volume):
        m = rng.choice(strata)
        spec = ",".join(map(str, m))
        spec = f"H({spec})" if rng.random() < 0.5 else spec
        ops.append({"argv": ["volume", spec] + _format_flags(rng) + limit, "cache": "warm"})
    sv = _sv_requests(strata)
    for _ in range(n_sv):
        ops.append({"argv": ["sv"] + rng.choice(sv) + _format_flags(rng) + limit, "cache": "warm"})
    for _ in range(n_table):
        argv = ["table", "--max-size", str(CLI_MAX_SIZE[quick])] + _format_flags(rng) + limit
        ops.append({"argv": argv, "cache": "warm"})
    for _ in range(n_tampered):
        ops.append({"argv": ["volume", TAMPERED_KEY] + limit, "cache": "tampered"})
    rng.shuffle(ops)
    return ops


def tamper(warm_text: str) -> str:
    """The warm cache with the H(1,1) entry replaced by a wrong but
    well-graded value, in the layout the CLI writes."""
    data = json.loads(warm_text)
    data["entries"][TAMPERED_KEY] = dict(TAMPERED_ENTRY)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- checks --------------------------------------------------------------------


def _ratio(degrees: tuple[int, ...], q: Fraction, e: int) -> Decimal:
    """vol * prod(m_i + 1) / 4, which the paper's theorem sends to 1."""
    prod = 1
    for d in degrees:
        prod *= d + 1
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(q.numerator) * prod * _PI**e / (Decimal(q.denominator) * 4)


def check_cache(entries: dict) -> list[str]:
    """Problems with the warm cache that a cold CLI run wrote: each entry is
    a positive rational times pi^(2g), and the tabulated strata match."""
    problems = []
    for key, rec in entries.items():
        m = tuple(int(d) for d in key.split(",")) if key else ()
        got = (int(rec["num"]), int(rec["den"]), int(rec["pi_exp"]))
        if not (got[0] > 0 and got[1] > 0 and got[2] == 2 * genus(m)):
            problems.append(f"cache entry H{m}: {got} is not a positive rational times pi^{2 * genus(m)}")
        if m in EO_TABLE and EO_TABLE[m] != got:
            problems.append(f"cache entry H{m}: {got} differs from the Eskin-Okounkov table")
    return problems


def check_compute(workload: str, quick: bool, values: dict, reference: dict) -> list[str]:
    """Problems with one pass's volumes; an empty list means the pass is right.

    values maps a stratum tuple to (num, den, pi_exp) or to None when the
    operation failed; reference holds principal_volume(g) by genus.
    """
    problems = []
    for fam in families(workload, quick):
        last = None
        for m in fam:
            got = values.get(m)
            if got is None:
                continue
            num, den, e = got
            if not (num > 0 and den > 0 and Fraction(num, den).denominator == den
                    and e == 2 * genus(m)):
                problems.append(f"H{m}: {num}/{den} * pi^{e} is not a positive rational times pi^{2 * genus(m)}")
                continue
            if m in EO_TABLE and EO_TABLE[m] != (num, den, e):
                problems.append(f"H{m}: {num}/{den} * pi^{e} differs from the Eskin-Okounkov table")
            if workload == "principal" and reference.get(genus(m)) != (num, den, e):
                problems.append(f"H{m}: {num}/{den} * pi^{e} differs from principal_volume({genus(m)})")
            r = _ratio(m, Fraction(num, den), e)
            if not 0 < r < 1:
                problems.append(f"H{m}: vol * prod(m_i + 1) / 4 = {r:.6f} is outside (0, 1)")
            if last is not None and r <= last:
                problems.append(f"H{m}: vol * prod(m_i + 1) / 4 = {r:.6f} does not rise with genus")
            last = r
    return problems
