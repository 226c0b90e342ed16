"""Run the benchmark once per seed on each named workload, one run at a time,
and summarise every metric over the runs: median, quartiles (as
statistics.quantiles(n=4) gives them) and the spread (q3 - q1) / median.

    python3 bench/spread.py --workloads cli-pipeline --seeds 1 2 3 4 5 --seconds 40
    python3 bench/spread.py --workloads lowdata-lcl-grid --seeds 0 1 2 --trace 1 --out bench/baseline.json

--out merges the runs and summaries into a JSON file (one entry per workload
and trace mode), together with each metric's unit and, for per-layer
metrics, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import run_bench
import summary

BENCH_DIR = Path(__file__).resolve().parent


def summarise(values):
    s = summary.summarise(values)
    return {"n": s.n, "median": s.median, "q1": s.q1, "q3": s.q3,
            "spread": (s.q3 - s.q1) / abs(s.median) if s.median else 0.0}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), None)
    return json.loads(lines[-1]), env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=run_bench.WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    described = {n: {"unit": u, "better": b, "bound": bound}
                 for n, u, b, bound, _ in run_bench.END_TO_END}
    described.update({n: {"unit": u, "better": b, "moves": moves}
                      for n, u, b, moves in run_bench.PER_LAYER})
    report = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    for workload in args.workloads:
        runs, env = [], None
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{'' if args.trace else values}", flush=True)
        summaries = {}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            summaries[name] = {**s, **described[name]}
            if not args.trace:
                print(f"  {name:<16s} median={s['median']:.6g} q1={s['q1']:.6g} "
                      f"q3={s['q3']:.6g} spread={s['spread']:.2%}")
        report.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seconds": args.seconds, "environment": env,
            "summary": summaries, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
