"""Per-layer tracing of mvvol from outside the package.

install() replaces public functions with wrappers at the module attribute
through which each caller looks them up (a `from x import f` binding is a
separate name, so it is patched where it is used, not where it is defined).
Three kinds of wrapper:

* span: one record per call (name, request, start, end, parent span), plus
  per-layer calls, total time and self time, i.e. time not covered by child
  spans or counted operations;
* counted: total count and time only, for the ~10^5-per-pass operations
  (PiValue arithmetic) whose per-call spans would swamp the trace, and a
  bare count (tally) for frak_z;
* stream: the generators that enumerate partitions; the time spent inside
  them is charged as child time to whichever span consumes them.

Memo hits are not visible at the boundary, so hit ratios are derived from
miss-only calls: multi_bracket enumerates complements, and single_bracket
calls error_term, exactly once per miss.  Names the program no longer has
are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

_perf = time.perf_counter

SPANS = {
    "volumes.volume": [("mvvol", "volume"), ("mvvol.volumes", "volume"),
                       ("mvvol.cli", "volume"), ("mvvol.siegel_veech", "volume")],
    "volumes.c_value": [("mvvol.volumes", "c_value")],
    "f_expansion.capital_f": [("mvvol.volumes", "capital_f")],
    "combinatorics.partitions_of_weight": [("mvvol.f_expansion", "partitions_of_weight")],
    "wick.multi_bracket": [("mvvol.wick", "multi_bracket")],
    "bracket.single_bracket": [("mvvol.wick", "single_bracket")],
    "bracket.error_term": [("mvvol.bracket", "error_term")],
    "cli.main": [("mvvol.cli", "main")],
    "cli.load_cache": [("mvvol.cli", "load_cache")],
    "cli.save_cache": [("mvvol.cli", "save_cache")],
}
SV_FUNCTIONS = ("sc_constant", "sc2_principal", "loop_per_angle", "loop_constant",
                "cyl_constant", "handle_constant", "cyl1_total", "area1_constant")
STREAMS = {
    "combinatorics.set_partitions": [("mvvol.bracket", "set_partitions")],
    "combinatorics.complementary_partitions": [("mvvol.wick", "complementary_partitions")],
}
PIVALUE_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")


class Tracer:
    def __init__(self):
        # each frame is [span id, time covered by children]
        self.stack = [[None, 0.0]]
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.request = None
        self._in_weight = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                self.calls[layer] += 1
                self.total[layer] += d
                self.self_s[layer] += d - frame[1]
                spans[frame[0]] = (frame[0], parent[0], name, self.request, t0, t1)

        return wrapper

    def counted(self, layer: str, fn):
        stack, calls, total = self.stack, self.calls, self.total

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _perf()
            out = fn(*args, **kwargs)
            d = _perf() - t0
            stack[-1][1] += d
            calls[layer] += 1
            total[layer] += d
            return out

        return wrapper

    def tally(self, layer: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def stream(self, layer: str, fn):
        stack, counts, total = self.stack, self.counts, self.total

        def timed(it):
            while True:
                t0 = _perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    d = _perf() - t0
                    stack[-1][1] += d
                    total[layer] += d
                counts[layer + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            t0 = _perf()
            out = fn(*args, **kwargs)
            d = _perf() - t0
            stack[-1][1] += d
            total[layer] += d
            if isinstance(out, (list, tuple)):
                counts[layer + ".yielded"] += len(out)
                return out
            return timed(iter(out))

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        def patch(module, attr, make):
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, make(getattr(mod, attr)))

        for layer, sites in SPANS.items():
            for module, attr in sites:
                patch(module, attr, lambda f, layer=layer, attr=attr: self.span(layer, attr, f))
        for attr in SV_FUNCTIONS:
            patch("mvvol.siegel_veech", attr, lambda f, attr=attr: self.span("siegel_veech", attr, f))
        for layer, sites in STREAMS.items():
            for module, attr in sites:
                patch(module, attr, lambda f, layer=layer: self.stream(layer, f))
        for module in ("mvvol.bracket", "mvvol.volumes"):
            patch(module, "frak_z", lambda f: self.tally("exact_arith.frak_z", f))

        cls = importlib.import_module("mvvol.exact_arith").PiValue
        for op in PIVALUE_OPS:
            if op in vars(cls):
                setattr(cls, op, self.counted("exact_arith.PiValue", vars(cls)[op]))

        # partitions built inside partitions_of_weight, against those it keeps
        def count_built(by_size):
            def wrapper(n):
                out = by_size(n)
                if self._in_weight:
                    self.counts["combinatorics.partitions_of_weight.built"] += len(out)
                return out
            return wrapper

        def count_kept(by_weight):
            def wrapper(w):
                self._in_weight += 1
                try:
                    out = by_weight(w)
                finally:
                    self._in_weight -= 1
                self.counts["combinatorics.partitions_of_weight.kept"] += len(out)
                return out
            return wrapper

        def count_bytes(save):
            def wrapper(path, *args, **kwargs):
                out = save(path, *args, **kwargs)
                self.counts["cli.save_cache.bytes"] += os.path.getsize(path)
                return out
            return wrapper

        patch("mvvol.combinatorics", "partitions_of_size", count_built)
        patch("mvvol.f_expansion", "partitions_of_weight", count_kept)
        patch("mvvol.cli", "save_cache", count_bytes)

    # -- results -------------------------------------------------------------

    def metrics(self, solve_s: float) -> dict[str, float]:
        c, t, s, n = self.calls, self.total, self.self_s, self.counts

        def hit_ratio(calls, misses):
            return 1 - misses / calls if calls else 0.0

        return {
            "bracket.error_term.self_s": s["bracket.error_term"],
            "bracket.error_term.calls": c["bracket.error_term"],
            "combinatorics.set_partitions.yielded": n["combinatorics.set_partitions.yielded"],
            "combinatorics.set_partitions.s": t["combinatorics.set_partitions"],
            "wick.multi_bracket.self_s": s["wick.multi_bracket"],
            "wick.multi_bracket.calls": c["wick.multi_bracket"],
            "wick.multi_bracket.hit_ratio": hit_ratio(
                c["wick.multi_bracket"], c["combinatorics.complementary_partitions"]),
            "combinatorics.complementary_partitions.yielded":
                n["combinatorics.complementary_partitions.yielded"],
            "combinatorics.complementary_partitions.s": t["combinatorics.complementary_partitions"],
            "exact_arith.PiValue.ops": c["exact_arith.PiValue"],
            "exact_arith.PiValue.s": t["exact_arith.PiValue"],
            "combinatorics.partitions_of_weight.built": n["combinatorics.partitions_of_weight.built"],
            "combinatorics.partitions_of_weight.kept": n["combinatorics.partitions_of_weight.kept"],
            "combinatorics.partitions_of_weight.s": t["combinatorics.partitions_of_weight"],
            "f_expansion.capital_f.self_s": s["f_expansion.capital_f"],
            "volumes.c_value.self_s": s["volumes.c_value"],
            "bracket.single_bracket.calls": c["bracket.single_bracket"],
            "bracket.single_bracket.hit_ratio": hit_ratio(
                c["bracket.single_bracket"], c["bracket.error_term"]),
            "exact_arith.frak_z.calls": c["exact_arith.frak_z"],
            "volumes.volume.self_s": s["volumes.volume"],
            "siegel_veech.self_s": s["siegel_veech"],
            "cli.main.self_s": s["cli.main"],
            "cli.load_cache.s": t["cli.load_cache"],
            "cli.save_cache.s": t["cli.save_cache"],
            "cli.save_cache.bytes": n["cli.save_cache.bytes"],
            "trace.solve_s": solve_s,
        }
