#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 xpbench/smoke_test.py

Runs every workload of BENCHMARK.json at its tiny size for one second,
untraced and traced, and checks that
  * the last line of standard output is the result object with exactly the
    keys correct, attempted, failed and metrics;
  * the metric names and units equal BENCHMARK.json's end_to_end list
    (untraced) or per_layer list (traced);
  * every output was correct: failed_frac is 0;
  * a traced run wrote its Chrome trace-event file, and the file parses.
Exits 0 when every check holds.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            what = f"{w['name']} --trace {trace}"
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "7", "--seconds", "1", "--trace", trace,
                 "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            if out.returncode != 0:
                problems.append(f"{what}: exit code {out.returncode}\n"
                                f"{out.stderr[-2000:]}")
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{what}: result keys {sorted(result)}")
            want = spec["per_layer" if trace == "1" else "end_to_end"]
            want_units = {m["name"]: m["unit"] for m in want}
            got_units = {k: v["unit"] for k, v in result["metrics"].items()}
            if got_units != want_units:
                problems.append(f"{what}: metrics {got_units} != {want_units}")
            frac = [l for l in lines if l.split()[:1] == ["failed_frac"]]
            if (not result["correct"] or result["failed"] != 0
                    or result["attempted"] < 1
                    or [float(l.split()[1]) for l in frac] != [0.0]):
                problems.append(f"{what}: outputs not all correct "
                                f"({result['failed']} of "
                                f"{result['attempted']} failed)")
            if trace == "1":
                m = re.search(r"^chrome trace: (\S+)$", out.stdout, re.M)
                try:
                    with open(os.path.join(ROOT, m.group(1))) as f:
                        if not json.load(f)["traceEvents"]:
                            problems.append(f"{what}: empty Chrome trace")
                except (AttributeError, OSError, ValueError) as e:
                    problems.append(f"{what}: Chrome trace unreadable: {e}")
            print(f"{what}: {'ok' if not problems else 'checked'}",
                  flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
