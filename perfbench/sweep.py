"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload certify-q --seeds 1-10

Runs are sequential, one process at a time, each for the `run_seconds` of
BENCHMARK.json.  For every metric it prints the
median over the runs and the spread: the distance between the first and the
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  `--out FILE` also writes the summary and every run's metrics as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = run_seconds()
    runs = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, seconds, args.trace)
        r["seed"] = seed
        runs.append(r)
        status = "ok" if r["correct"] and not r["failed"] else f"FAILED {r['failed']}"
        print(f"seed {seed}: {status}, {r['attempted']} requests, {r['wall_s']:.1f} s wall", flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:<36} median {s['median']:>12.6g} {s['unit']:<6} spread {s['spread']:7.2%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
