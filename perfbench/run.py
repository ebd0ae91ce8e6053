"""The vone benchmark: one command, four seeded workloads, checked results.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload certify-cyclic --seed 1 --seconds 20 --trace 0

Workloads: certify-cyclic, certify-quaternion, cli-cold, ring-ops (see
perfbench/README.md). The seed picks the corpus; the program under test only
sees the generated inputs. With --trace 0 the result carries the end-to-end
metrics, with --trace 1 the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Set-up is timed in fresh interpreters, from process start to ``ready``:
two set-up-only workers and the measuring worker, reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus as corpus_mod  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from workloads import cli_env  # noqa: E402

SETUP_ONLY_WORKERS = 2
DEADLINE_S = 170  # a run that has no result by then stops its workers and fails

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten inputs beyond it: the
    (N-10)th smallest of N values, i.e. percentile 100 (N - 10) / N."""
    ranked = sorted(values)
    n = len(ranked)
    if n < 11:
        return ranked[-1], 100.0
    return ranked[n - 11], 100.0 * (n - 10) / n


def start_worker(workload: str, mode: str, args: list):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--mode", mode, *args]
    start = time.perf_counter()
    # a session of its own, so that stop() also ends the worker's CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=cli_env(),
                            start_new_session=True)
    return proc, start


def wait_ready(proc, start: float) -> float:
    """Set-up time of a fresh worker, scaled to reference speed by the
    calibration kernel the worker times right after it."""
    line = proc.stdout.readline()
    took = time.perf_counter() - start
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not get ready: {line!r}")
    word, _, kernel_s = proc.stdout.readline().partition(" ")
    if word != "kernel":
        raise RuntimeError("worker did not report its calibration kernel")
    return took * REFERENCE_S / float(kernel_s)


def finish(proc) -> str:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def stop(proc) -> None:
    """Kill the worker and everything it started, unless it has exited, and
    wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    proc.stdout.close()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_ONLY_WORKERS):
        proc, start = start_worker(workload, "setup", ["--seed", str(seed)])
        try:
            setups.append(wait_ready(proc, start))
            finish(proc)
        finally:
            stop(proc)
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc, start = start_worker(workload, "measure", args)
    try:
        setups.append(wait_ready(proc, start))
        out = finish(proc)
    finally:
        stop(proc)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = statistics.median(setups)
    return res


def _deadline(signum, frame):
    raise TimeoutError(f"no result within {DEADLINE_S} s")


def report(workload: str, res: dict, trace: bool) -> dict:
    correct = res["unexpected_failures"] == 0
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["layer_metrics"].items()}
        if res["unloaded_layers"]:
            correct = False
            print(f"layers that read zero on {workload}: {res['unloaded_layers']}")
    else:
        per_input = res["per_input_ms"]
        tail_ms, tail_pct = tail(per_input)
        values = {
            "ops_per_s": res["ops_per_s"],
            "latency_p50_ms": statistics.median(per_input),
            "latency_tail_ms": tail_ms,
            "setup_s": res["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{workload:19s} {name:16s} {values[name]:12.4f} {unit}")
        print(f"{workload:19s} {'latency_tail_ms':16s} is p{tail_pct:.1f} of "
              f"{len(per_input)} inputs (median of {res['rounds']} rounds each)")
        print(f"{workload:19s} times are scaled to reference speed; the calibration "
              f"kernel took {res['kernel_ms']:.3f} ms here, {REFERENCE_S * 1000:.3f} ms at reference")
        print(f"{workload:19s} {'fail_ratio':16s} {res['failed'] / res['attempted']:12.4f} "
              f"({res['failed']} of {res['attempted']})")
    for i, problems in res["problems"].items():
        print(f"failed input {i}: {problems}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ops_per_s_untraced") or name.endswith("ops_per_s_traced"):
        return "1/s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "vone", "__init__.py")):
        print("error: run from the root of a vone checkout (src/vone not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
