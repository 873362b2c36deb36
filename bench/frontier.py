"""Feasible frontier: per stratum family, the largest genus whose volume a
cold interpreter computes within a budget of 10 s (BUDGET_S).

    python3 bench/frontier.py

Each stratum runs in a fresh interpreter; a family stops at its first
stratum over the budget.  The frontier moves only on large gains, so it is
a reference figure, not part of run.py or its bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 10

FAMILIES = {
    "principal": lambda g: (1,) * (2 * g - 2),
    "minimal": lambda g: (2 * g - 2,),
    "all-twos": lambda g: (2,) * (g - 1),
    "all-threes": lambda g: (3,) * ((2 * g - 2) // 3) if (2 * g - 2) % 6 == 0 else None,
}

PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import mvvol
m = [int(d) for d in sys.argv[2].split(",")]
t0 = time.perf_counter()
mvvol.volume(m, max_weight=10**6)
print(time.perf_counter() - t0)
"""


def solve_time(stratum: tuple[int, ...]) -> float | None:
    """Cold solve time in seconds, or None when over the budget."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(ROOT / "src"), ",".join(map(str, stratum))],
            capture_output=True, text=True, timeout=BUDGET_S + 10,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"H{stratum} failed:\n{proc.stderr}")
    t = float(proc.stdout.strip())
    return t if t <= BUDGET_S else None


def frontier(family: str) -> dict:
    best = {"genus": None, "stratum": None, "solve_s": None}
    g = 2
    while True:
        stratum = FAMILIES[family](g)
        if stratum is not None:
            t = solve_time(stratum)
            print(f"{family}: H({','.join(map(str, stratum))}) (g={g}) "
                  f"{'over budget' if t is None else f'{t:.2f} s'}", file=sys.stderr)
            if t is None:
                return best
            best = {"genus": g, "stratum": ",".join(map(str, stratum)), "solve_s": t}
        g += 1


def main() -> int:
    print(json.dumps({f: frontier(f) for f in FAMILIES}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
