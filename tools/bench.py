"""Write BENCH_<label>.json: the end-to-end benchmark of a vone checkout,
as perfbench/run.py measures it, summarized over seeds.

Usage (from anywhere):
    python tools/bench.py --label after
    python tools/bench.py --label before --root ../parent-checkout --seeds 1 2 3 --seconds 10

For each workload named in BENCHMARK.json and each seed, the script runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, with the
interpreter that runs the script, in the checkout given by --root (by
default the one this script lives in),
one run at a time, and reads the JSON line each run prints last. The file
it writes, in the current directory unless --out says otherwise, holds:

- the commit SHA of the checkout (with "dirty" when src/, tests/ or
  perfbench/ differ from it), the Python version and nproc;
- the median over all runs of the calibration kernel, in ms, as run.py
  prints it (times are scaled to reference speed by that kernel);
- per workload, the median and quartiles over seeds of each end-to-end
  metric, with the unit and direction BENCHMARK.json gives it;
- each run's seed, correct, failed and attempted.

The script uses the standard library only and changes nothing in the
checkout it measures. It exits 1 when a run fails to produce a result and
0 otherwise, also when a run reads "correct": false; callers check that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_LINE = re.compile(r"calibration kernel took ([0-9.]+) ms here")


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py run: its JSON result and the kernel time it printed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    kernels = [float(m.group(1)) for m in map(KERNEL_LINE.search, lines) if m]
    result["kernel_ms"] = statistics.median(kernels) if kernels else None
    return result


def summarize(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def bench(root: str, label: str, seeds: list, seconds: float) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    sha = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain", "--", "src", "tests", "perfbench")
    out = {
        "label": label,
        "sha": sha,
        "dirty": bool(dirty) if dirty is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "seconds": seconds,
        "calibration_kernel_ms": None,
        "workloads": {},
    }
    kernels = []
    for name in names:
        runs = []
        for seed in seeds:
            res = run_once(root, name, seed, seconds)
            print(f"{name} seed {seed}: correct {res['correct']}, "
                  f"ops_per_s {res['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)
            runs.append(res)
            if res["kernel_ms"] is not None:
                kernels.append(res["kernel_ms"])
        out["workloads"][name] = {
            "metrics": {
                m["name"]: {"unit": m["unit"], "better": m["better"],
                            **summarize([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in metrics
            },
            "runs": [{"seed": seed, "correct": r["correct"], "failed": r["failed"],
                      "attempted": r["attempted"]} for seed, r in zip(seeds, runs)],
        }
    if kernels:
        out["calibration_kernel_ms"] = statistics.median(kernels)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="local", help="the file is BENCH_<label>.json")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="the vone checkout to measure (default: this one)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=float, default=25.0, help="per run, as run.py takes it")
    ap.add_argument("--out", default=None, help="output path (default: ./BENCH_<label>.json)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    try:
        doc = bench(root, args.label, args.seeds, args.seconds)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = args.out or f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
