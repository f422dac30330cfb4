#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 xpbench/spread.py --workload huge_n --runs 10 [--seconds 20]

Runs the benchmark once per seed 1..runs (untraced) and prints, per
end-to-end metric of BENCHMARK.json, the median, the quartiles and the
interquartile distance as a share of the median, next to the metric's
bound and a third of it.  Use it to check that a change to the benchmark
keeps every spread below a third of its bound.  Results are appended, one
JSON line per run, to --log (default .bench_build/xpbench/spread.jsonl).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--log", default=os.path.join(ROOT, ".bench_build",
                                                  "xpbench", "spread.jsonl"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(args.log, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- wide"
        print(f"  {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound'] / 3:>8.4f}{flag}")


if __name__ == "__main__":
    main()
