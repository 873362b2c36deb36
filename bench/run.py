"""Benchmark of the exact-volume pipeline: cold passes, checked outputs.

    python3 bench/run.py --workload principal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick

A run repeats cold passes of one workload, each in a fresh interpreter
(child.py), until --seconds have passed, checks every output, and prints as
its last line one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, medians over the passes, with
pass times in units of a reference loop (workloads.reference_loop) and a
line of raw seconds just before the result; with --trace 1 every pass is
traced (tracer.py) and the metrics are per layer.
Raw per-pass figures go to .bench_out/, cache files to a temporary
directory inside the checkout that is removed at the end.

--quick runs one untraced and one traced pass of every workload at reduced
size and reports only whether the checks pass (a few seconds).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_SAMPLES = 25
# A pass that would end later than this is not started once --seconds and
# one pass are done, so a slow program still ends inside 180 s.
PASS_DEADLINE_S = 100
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "solve_rel": "ref",
    "solve_cpu_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_rel": "ref",
}
RAW_UNITS = {"solve_s": "s", "solve_cpu_s": "s", "call_p50_ms": "ms", "ref_ms": "ms"}


class ChildError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("MV_CACHE", None)  # it would override --cache
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    # Bytecode of this run only: the oracle compiles mvvol once, every timed
    # launch loads it fresh, as an installed mvvol starts, and no stale .pyc
    # in the checkout's __pycache__ is read or anything written into src/.
    env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
    return env


def run_child(spec: dict) -> dict:
    spec = dict(spec, launched=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(spec["tmp"]),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{spec['mode']} pass of {spec['workload']} ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{spec['mode']} pass of {spec['workload']} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- grading -------------------------------------------------------------------


def grade(workload: str, seed: int, quick: bool, passes: list[dict], oracle: dict):
    """(attempted, failed, problems) over every pass of a run."""
    attempted = failed = 0
    problems: list[str] = []
    if workload == "cli-cache":
        ops = workloads.cli_ops(seed, quick)
        expected = oracle["expected"]
        problems += workloads.check_cache(oracle["warm_entries"])
        for p in passes:
            for op, (code, stdout) in zip(ops, p["outputs"], strict=True):
                attempted += 1
                want_code, want_out = expected[json.dumps(op["argv"])]
                if code == 0 and (code, stdout) == (want_code, want_out):
                    continue
                if op["cache"] == "tampered":
                    if code != 2:  # rejecting the entry is also a right answer
                        failed += 1
                elif code != 0:
                    failed += 1
                else:
                    problems.append(f"{' '.join(op['argv'])}: printed {stdout!r}, expected {want_out!r}")
        return attempted, failed, problems

    refs = {int(g): tuple(v) for g, v in oracle.get("principal", {}).items()}
    first = None
    for k, p in enumerate(passes):
        values = {}
        for m, num, den, e in p["outputs"]:
            attempted += 1
            if num is None:
                failed += 1
                values[tuple(m)] = None
            else:
                values[tuple(m)] = (num, den, e)
        if first is None:
            first = values
            problems += workloads.check_compute(workload, quick, values, refs)
        elif values != first:
            problems.append(f"pass {k} of {workload} computed other values than pass 0")
    return attempted, failed, problems


# -- one run -------------------------------------------------------------------


def p50_op(passes: list[dict], scale) -> float:
    """Each operation's median over the passes, then the median operation.

    The reference loop runs up to a few seconds before an operation, so
    now and then a speed phase of the VM changes in between; a median over
    the passes drops those samples, where a mean keeps them.
    """
    per_op = zip(*([t / scale(p) for t in p["op_s"]] for p in passes))
    return statistics.median(statistics.median(times) for times in per_op)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(gated metrics, raw times).  Pass times are gated in units of the
    reference loop timed in a copy of each pass's process, forked before
    it imports mvvol; the raw seconds are printed
    and kept, but their spread on this VM is wider than any usable bound."""
    def med(f):
        return statistics.median(f(p) for p in passes)

    gated = {
        "solve_rel": med(lambda p: p["solve_s"] / p["ref_s"]),
        "solve_cpu_rel": med(lambda p: p["solve_cpu_s"] / p["ref_cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
        "call_p50_rel": p50_op(passes, lambda p: p["ref_s"]),
    }
    raw = {
        "solve_s": med(lambda p: p["solve_s"]),
        "solve_cpu_s": med(lambda p: p["solve_cpu_s"]),
        "call_p50_ms": p50_op(passes, lambda p: 1e-3),
        "ref_ms": med(lambda p: p["ref_s"]) * 1000,
    }
    return gated, raw


def per_layer(passes: list[dict]) -> dict[str, float]:
    names = passes[0]["layers"]
    return {n: statistics.median(p["layers"][n] for p in passes) for n in names}


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool, tmp: Path) -> dict:
    spec = {"workload": workload, "seed": seed, "quick": quick, "trace": trace, "tmp": str(tmp)}
    OUT.mkdir(exist_ok=True)
    oracle = run_child(dict(spec, mode="oracle"))

    # Set-up probes alternate with the untraced passes, so both sample the
    # same stretch of machine time.
    probe = not trace
    passes, setups = [], []
    start = time.monotonic()
    while True:
        trace_out = str(OUT / f"trace-{workload}-seed{seed}.json") if trace and not passes else None
        passes.append(run_child(dict(spec, mode="pass", trace_out=trace_out)))
        if probe:
            setups.append(run_child(dict(spec, mode="setup"))["setup_s"])
        elapsed = time.monotonic() - start
        if quick or elapsed >= seconds and (
            len(passes) >= MIN_PASSES or elapsed * (len(passes) + 1) / len(passes) > PASS_DEADLINE_S
        ):
            break
    while probe and not quick and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(dict(spec, mode="setup"))["setup_s"])

    attempted, failed, problems = grade(workload, seed, quick, passes, oracle)
    if trace:
        metrics, raw = per_layer(passes), {}
        units = {n: layer_unit(n) for n in metrics}
    else:
        metrics, raw = end_to_end(passes, setups)
        units = END_TO_END_UNITS
    raw = {n: {"value": v, "unit": RAW_UNITS[n]} for n, v in raw.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "quick": quick,
        "raw": raw,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        "setup_samples": setups,
        "problems": problems,
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    if raw:
        print("raw " + json.dumps(raw))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="check every workload at reduced size, one pass each")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mvvol" / "__init__.py").is_file():
        print(f"error: no mvvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if args.quick:
            ok = True
            for workload in [args.workload] if args.workload else workloads.WORKLOADS:
                for trace in (False, True):
                    result = run(workload, args.seed, args.seconds, trace, True, tmp)
                    ok = ok and result["correct"]
                    print(json.dumps({"workload": workload, "trace": int(trace), **result}))
            return 0 if ok else 1
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), False, tmp)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
