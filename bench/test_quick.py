"""Checks of the benchmark itself, fast enough to run before a full run.

    python3 -m pytest bench/test_quick.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def test_quick_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    # each result is a JSON line; a "raw ..." line of raw seconds precedes untraced ones
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [(r["workload"], r["trace"]) for r in results] == [
        (w, t) for w in workloads.WORKLOADS for t in (0, 1)
    ]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for r in results:
        assert r["correct"], r
        assert r["attempted"] > 0
        # only the tampered cache entry may fail, once per quick pass
        assert r["failed"] <= (1 if r["workload"] == "cli-cache" else 0)
        assert {n: m["unit"] for n, m in r["metrics"].items()} == units[r["trace"]]


def test_checks_catch_wrong_volumes():
    h2, h4 = workloads.EO_TABLE[(2,)], workloads.EO_TABLE[(4,)]
    assert workloads.check_compute("minimal", True, {(2,): h2, (4,): h4}, {}) == []
    # a wrong coefficient, a wrong pi power, and a ratio that falls with genus
    assert workloads.check_compute("minimal", True, {(2,): (1, 121, 4)}, {})
    assert workloads.check_compute("minimal", True, {(2,): (1, 120, 6)}, {})
    assert workloads.check_compute("minimal", True, {(4,): h4, (6,): (1, 10**9, 8)}, {})
    assert workloads.check_cache({"3,1": {"num": "16", "den": "42525", "pi_exp": 6}}) == []
    assert workloads.check_cache({"3,1": {"num": "16", "den": "42526", "pi_exp": 6}})
    assert workloads.check_cache({"": {"num": "1", "den": "3", "pi_exp": 4}})
    principal = {2: (1, 135, 4)}
    assert workloads.check_compute("principal", True, {(1, 1): (1, 135, 4)}, principal) == []
    assert workloads.check_compute("principal", True, {(1, 1): (1, 135, 4)}, {2: (1, 136, 4)})


def test_inputs_follow_the_seed():
    assert workloads.cli_ops(5) == workloads.cli_ops(5)
    assert workloads.cli_ops(5) != workloads.cli_ops(6)
    # every seed runs the same mix, so failures stay a fixed share
    mix = [op["cache"] for op in workloads.cli_ops(5)]
    assert sorted(mix) == sorted(op["cache"] for op in workloads.cli_ops(6))
