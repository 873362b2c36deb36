"""One cold pass of a benchmark workload, in a fresh interpreter.

Started by run.py with a JSON spec as its only argument; prints one JSON
object.  Modes:

* setup: get ready for the first operation and exit (a set-up sample);
* pass: get ready, then time every operation of the workload once;
* oracle: compute the references the checks compare against, untimed.

Set-up time runs from the moment run.py launched this process, so it covers
interpreter start, importing mvvol, generating the inputs from the seed and,
for cli-cache, writing the warm and the tampered cache files.  Only set-up
mode reports it: a pass first times the reference loop, before it imports
mvvol.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def oracle(spec: dict, mvvol, workloads) -> dict:
    """Cold library computations, made apart from any timed pass."""
    workload, seed, quick, tmp = spec["workload"], spec["seed"], spec["quick"], Path(spec["tmp"])
    if workload == "principal":
        refs = {}
        for m in workloads.families(workload, quick)[0]:
            g = workloads.genus(m)
            q, e = mvvol.principal_volume(g).monomial()
            refs[g] = [q.numerator, q.denominator, e]
        return {"principal": refs}
    if workload != "cli-cache":
        return {}
    main = mvvol.cli.main
    # Expected stdout of every invocation, from values computed in this
    # process without any cache file.
    expected = {}
    for op in workloads.cli_ops(seed, quick):
        key = json.dumps(op["argv"])
        if key not in expected:
            expected[key] = run_cli(main, op["argv"])
    # The warm cache: every stratum with 2g - 2 <= max size, and the torus
    # (the genus-1 stratum the Siegel-Veech ratios reach), as the CLI saves it.
    ref = tmp / "warm.ref.json"
    limit = ["--max-weight", str(workloads.MAX_WEIGHT), "--cache", str(ref)]
    for argv in (["table", "--max-size", str(workloads.CLI_MAX_SIZE[quick])], ["volume", "0"]):
        code, _ = run_cli(main, argv + limit)
        if code != 0:
            raise RuntimeError(f"warming the cache with {argv} exited {code}")
    warm = ref.read_text()
    (tmp / "tampered.ref.json").write_text(workloads.tamper(warm))
    return {"expected": expected, "warm_entries": json.loads(warm)["entries"]}


def reference_times(workloads) -> tuple[float, float]:
    """Mean wall and CPU seconds of two runs of workloads.reference_loop.

    They run before mvvol is imported, in a forked copy of this interpreter:
    nothing a pass leaves in its process (heap, gc settings, threads) can
    move them, and the loop's memory stays out of the pass's peak RSS.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, json.dumps([workloads.reference_loop() for _ in range(2)]).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        runs = json.loads(fh.read() or "null")
    os.waitpid(pid, 0)
    if not runs:
        raise RuntimeError("the reference loop failed")
    return (runs[0][0] + runs[1][0]) / 2, (runs[0][1] + runs[1][1]) / 2


def timed_pass(spec: dict, mvvol, workloads, ref: tuple[float, float] | None) -> dict:
    import resource

    workload, tmp = spec["workload"], Path(spec["tmp"])
    if workload == "cli-cache":
        paths = {}
        for name in ("warm", "tampered"):
            paths[name] = tmp / f"{name}.json"
            paths[name].write_text((tmp / f"{name}.ref.json").read_text())
        ops = [op["argv"] + ["--cache", str(paths[op["cache"]])]
               for op in workloads.cli_ops(spec["seed"], spec["quick"])]
    else:
        ops = workloads.compute_ops(workload, spec["quick"])
    setup_s = time.monotonic() - spec["launched"]
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    perf = time.perf_counter
    op_s, outputs = [], []
    c0, t0 = time.process_time(), perf()
    for i, op in enumerate(ops):
        if tracer:
            tracer.request = i
        if workload == "cli-cache":
            # a fresh mvvol process starts with empty memo tables
            mvvol.clear_caches()
            ts = perf()
            try:
                code, stdout = run_cli(mvvol.cli.main, op)
            except Exception as exc:  # an operation that fails is counted, not fatal
                code, stdout = None, f"{type(exc).__name__}: {exc}"
            op_s.append(perf() - ts)
            outputs.append([code, stdout])
            continue
        ts = perf()
        try:
            value = mvvol.volume(list(op), max_weight=workloads.MAX_WEIGHT).value
        except Exception as exc:  # an operation that fails is counted, not fatal
            op_s.append(perf() - ts)
            outputs.append([list(op), None, f"{type(exc).__name__}: {exc}", None])
            continue
        op_s.append(perf() - ts)
        q, e = value.monomial()
        outputs.append([list(op), q.numerator, q.denominator, e])
    solve_s = perf() - t0
    solve_cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ref_s": ref[0],
        "ref_cpu_s": ref[1],
        "op_s": op_s,
        "outputs": outputs,
    }
    if tracer:
        result["layers"] = tracer.metrics(solve_s)
        if spec.get("trace_out"):
            with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "seed": spec["seed"],
                           "fields": ["id", "parent", "name", "request", "start_s", "end_s"],
                           "spans": tracer.spans}, fh)
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    import workloads

    ref = reference_times(workloads) if spec["mode"] == "pass" else None
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mvvol

    if spec["workload"] == "cli-cache":
        import mvvol.cli

    if src.resolve() not in Path(mvvol.__file__).resolve().parents:
        raise SystemExit(f"imported mvvol from {mvvol.__file__}, not from {src}")
    if spec["mode"] == "oracle":
        result = oracle(spec, mvvol, workloads)
    else:
        result = timed_pass(spec, mvvol, workloads, ref)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
