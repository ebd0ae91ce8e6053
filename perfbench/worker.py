"""One fresh interpreter of the benchmark: set up, then (in measure mode) run
the corpus in a closed loop with one client and check every result.

Usage: python3 perfbench/worker.py --workload W --mode setup|measure --seed N
       [--seconds S --trace 0|1]

The worker builds the corpus of (workload, seed) itself. It prints ``ready``
as soon as set-up is done, so that the parent can time set-up from process
start, then ``kernel <seconds>``, the calibration kernel's time right after
set-up. In measure mode the last line is one JSON object with the
measurements, the check results and, with --trace 1, the per-layer metrics.

The corpus runs in rounds: every round runs each input once, in one seeded
order, and a new round starts only while one more would still fit in the
time left. An input's latency is the median over its rounds. Every time is
scaled to reference speed (calibrate.py). With --trace 1, untraced and
traced rounds alternate; the per-layer metrics come from the traced rounds
and the tracing overhead from the difference in throughput between the two
kinds.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback

import tracing
from calibrate import REFERENCE_S, Calibration, time_kernel
from corpus import generate
from oracles import LibraryOracle, check_cli, check_ideal_pairs
from workloads import Workload

# layers each workload is meant to load; a traced run fails if one reads zero
LOADED = {
    "certify-cyclic": ("certify", "jtheory", "repring", "exactmath"),
    "certify-quaternion": ("certify", "jtheory", "repring", "exactmath"),
    "cli-cold": ("cli", "groups", "burnside", "certify", "jtheory", "repring",
                 "exactmath", "powerop"),
    "ring-ops": ("burnside", "repring", "powerop", "exactmath", "groups"),
}


class Checker:
    """Counts every execution; an input whose first result fails its oracle,
    or whose later results differ from the first, counts as failed on each
    such execution. Nothing is raised and nothing is skipped."""

    def __init__(self, workload: Workload, corpus: list):
        self.workload = workload
        self.corpus = corpus
        self.first: dict[int, object] = {}
        self.runs = [0] * len(corpus)
        self.mismatches = [0] * len(corpus)
        self.errors: dict[int, str] = {}

    def record(self, i: int, result, error: str | None) -> None:
        self.runs[i] += 1
        if error is not None:
            self.errors.setdefault(i, error)
            self.mismatches[i] += 1
            return
        summary = self.workload.summarize(self.corpus[i], result)
        if i not in self.first:
            self.first[i] = summary
        elif summary != self.first[i]:
            self.mismatches[i] += 1
            self.errors.setdefault(i, "result differs between rounds")

    def problems(self, oracle) -> dict:
        """{index: [problem, ...]} for each input whose first result is wrong."""
        out = {}
        for i, summary in self.first.items():
            item = self.corpus[i]
            try:
                if item["op"] == "cli":
                    bad = check_cli(item, summary["exit"], summary["doc"])
                else:
                    bad = oracle.check(item, summary)
            except Exception as exc:  # a malformed result must not stop the run
                bad = [f"oracle could not read the result: {exc!r}"]
            if bad:
                out[i] = bad
        for i, bad in check_ideal_pairs(self.corpus, self.first).items():
            out.setdefault(i, []).extend(bad)
        return out

    def failed(self, problems: dict) -> tuple[int, list]:
        """(failed executions, indices that failed)."""
        failed, which = 0, []
        for i in range(len(self.corpus)):
            n = self.runs[i] if i in problems else self.mismatches[i]
            if n:
                failed += n
                which.append(i)
        return failed, which


def run_round(workload, calls, order, checker, cal, tracer=None) -> tuple:
    """Run every input once. Returns (wall seconds, per-input latencies, span
    snapshot or None when untraced), all scaled to reference speed; the
    calibration kernel's own time is left out of the wall time."""
    lat = [0.0] * len(calls)
    snaps = []
    clock = time.perf_counter
    first = len(cal.samples)
    cal.tick(force=True)
    spent = cal.spent
    start = clock()
    for i in order:
        t0 = clock()
        try:
            result, error = calls[i](), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        lat[i] = (clock() - t0) * cal.scale()
        checker.record(i, result, error)
        if tracer is not None and workload.name == "cli-cold" and error is None:
            lines = result[2].splitlines()
            if lines and lines[-1].startswith(tracing.TRACE_MARK):
                snaps.append(json.loads(lines[-1][len(tracing.TRACE_MARK):]))
        cal.tick()
    scale = REFERENCE_S / statistics.median(cal.samples[first:])
    wall = (clock() - start - (cal.spent - spent)) * scale
    if tracer is None:
        return wall, lat, None
    snaps.append(tracer.snapshot())
    snap = tracing.merge(snaps)
    for rec in snap["spans"].values():
        rec[1] *= scale
    snap["counters"]["cli.import_ms"] *= scale
    snap["counters"]["powerop.pairs"] = sum(workload.pairs(workload.corpus[i]) for i in order)
    return wall, lat, snap


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    corpus = workload.corpus
    calls = [workload.prepare(item) for item in corpus]
    order = list(range(len(corpus)))
    random.Random(f"order:{seed}").shuffle(order)
    checker = Checker(workload, corpus)
    cal = Calibration()
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    lats: list[list[float]] = [[] for _ in corpus]
    snaps = []
    start = time.perf_counter()
    traced = False
    while True:
        round_start = time.perf_counter()
        if traced and workload.name != "cli-cold":
            tracer.reset()
            tracer.install()
        workload.trace = traced
        try:
            wall, lat, snap = run_round(workload, calls, order, checker, cal,
                                        tracer if traced else None)
        finally:
            if traced and workload.name != "cli-cold":
                tracer.uninstall()
        walls[traced].append(wall)
        if snap is not None:
            snaps.append(snap)
        else:
            for i, x in enumerate(lat):
                lats[i].append(x)
        now = time.perf_counter()
        took, elapsed = now - round_start, now - start
        if trace:
            traced = not traced
            if not traced and elapsed + 2 * took > seconds:
                break
        elif elapsed + took > seconds:
            break
    workload.trace = False
    problems = checker.problems(LibraryOracle(workload))
    failed, which = checker.failed(problems)
    per_input = [statistics.median(x) * 1000.0 for x in lats]
    unexpected = [i for i in which if corpus[i].get("kind") != "known-defect"]
    out = {
        "attempted": sum(checker.runs),
        "failed": failed,
        "unexpected_failures": len(unexpected),
        "problems": {str(i): problems.get(i) or [checker.errors.get(i)] for i in which},
        "rounds": len(walls[False]),
        "kernel_ms": statistics.median(cal.samples) * 1000.0,
        "per_input_ms": per_input,
        # one round's worth of inputs per second, each input at its median
        "ops_per_s": 1000.0 * len(corpus) / sum(per_input),
        "peak_rss_mb": peak_rss_mb(workload.name),
    }
    if trace:
        # the first round also warms caches, so it is left out of the comparison
        plain, traced_ops = (statistics.median(len(corpus) / w for w in ws)
                             for ws in (walls[False][1:] or walls[False], walls[True]))
        metrics = tracing.median_metrics(snaps)
        metrics["trace.ops_per_s_untraced"] = plain
        metrics["trace.ops_per_s_traced"] = traced_ops
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_ops / plain)
        out["layer_metrics"] = metrics
        out["unloaded_layers"] = [
            layer for layer in LOADED[workload.name]
            if not all(tracing.layer_loaded(s, layer) for s in snaps)
        ]
    return out


def peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for the cold CLI it is the largest child
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = Workload(args.workload, generate(args.workload, args.seed))
    workload.setup()
    print("ready", flush=True)
    print(f"kernel {time_kernel(5)!r}", flush=True)
    if args.mode == "setup":
        return 0
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
