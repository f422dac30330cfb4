#!/bin/sh
# Perf-regression harness: run the engine micro-benchmarks plus the five
# gated ablation benches and merge their results into BENCH_sim.json at the
# repository root, under stable section/key names, so two checkouts can be
# diffed with `jq` or compared by eye.
#
# Each ablation bench holds its own gates in its exit code and prints every
# machine-readable result as a one-line JSON object naming the section and
# key it merges into (bench::gate and bench::JsonRow, bench/common.hpp).
# This script only runs them and merges.  The one gate it holds itself is
# the fiber-backend gate, whose inputs are micro_engine's google-benchmark
# JSON and the committed BENCH_sim.baseline.json.  Every bench runs even if
# an earlier one fails; the script exits nonzero if any bench or the fiber
# gate failed.
#
# Usage: scripts/bench_json.sh [build-dir]   (default: build)
#
# Notes on methodology:
#   * micro_engine pins malloc trim/mmap thresholds itself so that
#     engine A/B comparisons measure the engine, not glibc handing pages
#     back to the kernel between iterations (see bench/micro_engine.cpp).
#   * --benchmark_repetitions=5 + max aggregate: on shared/virtualized
#     CI hosts throughput swings +-15% on a seconds timescale, so the
#     best-of run is the least-noise estimator; interleaved medians
#     would need both engine versions in one binary.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
GATED="abl_sweep_scaling abl_serve_qps abl_hybrid_scaling abl_pattern_fit
abl_region_sampling"

# Check every harness up front and name ALL the missing ones in one clear
# message (instead of dying mid-run, or handing jq a half-written file).
missing=""
for bin in micro_engine $GATED; do
  [ -x "$BUILD/bench/$bin" ] || missing="$missing $bin"
done
if [ -n "$missing" ]; then
  echo "error: bench binaries missing from $BUILD/bench:$missing" >&2
  echo "hint: build them first with: cmake --build $BUILD -j" >&2
  echo "      (or pass the right build dir: scripts/bench_json.sh <dir>)" >&2
  exit 1
fi

exec python3 - "$BUILD" $GATED <<'PY'
import json
import subprocess
import sys

build, gated = sys.argv[1], sys.argv[2:]
failed = []


def run(name, *args, echo=True):
    """Run one bench; record a nonzero exit and return its stdout."""
    proc = subprocess.run([f"{build}/bench/{name}", *args],
                          stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        failed.append(name)
    return proc.stdout


raw = run("micro_engine", "--benchmark_min_time=0.2",
          "--benchmark_repetitions=5",
          "--benchmark_report_aggregates_only=false",
          "--benchmark_format=json", echo=False)
data = json.loads(raw) if "micro_engine" not in failed else {}

# Best-of over repetitions, keyed by benchmark name (items/sec where the
# benchmark reports it, else wall ns per iteration).
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    entry = best.setdefault(b["name"], {})
    ips = b.get("items_per_second")
    if ips is not None:
        entry["items_per_second"] = max(entry.get("items_per_second", 0.0), ips)
    entry["ns_per_iteration"] = min(
        entry.get("ns_per_iteration", float("inf")), b["real_time"])

# Every gated bench's JSON rows, merged by section and key; a row whose
# only field is "value" merges as that scalar.
sections = {}
for name in gated:
    for line in run(name).splitlines():
        if line.startswith("{"):
            row = json.loads(line)
            section, key = row.pop("section"), row.pop("key")
            sections.setdefault(section, {})[key] = (
                row["value"] if list(row) == ["value"] else row)

out = {
    "schema": "xp-bench-sim/7",
    "hw_concurrency": sections.get("sweep", {}).get(
        "sweep_e2e_workers_1", {}).get("hw_concurrency", 0),
    "source": [f"bench/{name}" for name in ["micro_engine", *gated]],
    "note": "items_per_second is best-of-5 repetitions; "
            "see scripts/bench_json.sh for methodology",
    "benchmarks": dict(sorted(best.items())),
    **sections,
}

# Embed the committed pre-overhaul numbers (measured with the identical
# pinned-malloc harness — see BENCH_sim.baseline.json) and the resulting
# speedups, so the file tells the before/after story on its own.
try:
    with open("BENCH_sim.baseline.json") as f:
        baseline = json.load(f)
    out["baseline"] = baseline
    speedups = {}
    for name, b in baseline.get("benchmarks", {}).items():
        cur = best.get(name)
        if not cur:
            continue
        if "items_per_second" in b and "items_per_second" in cur:
            speedups[name] = round(
                cur["items_per_second"] / b["items_per_second"], 2)
        elif "ns_per_iteration" in b and "ns_per_iteration" in cur:
            speedups[name] = round(
                b["ns_per_iteration"] / cur["ns_per_iteration"], 2)
    out["speedup_vs_baseline"] = speedups
except FileNotFoundError:
    pass
with open("BENCH_sim.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_sim.json ({len(best)} micro benchmarks, " +
      ", ".join(f"{len(rows)} {s} rows" for s, rows in sections.items()) +
      ")")

# Fiber gate: fcontext backend.  Primary check: the within-run ratio of
# BM_FiberSwitch (process-default backend, fcontext where ported) over
# BM_FiberSwitchUcontext must clear 2x — both numbers come from the same
# host and run, so absolute drift from the committed baseline cannot mask
# a backend regression.  On targets without an fcontext port both
# benchmarks time the same backend, so a ratio of ~1 falls back to the
# committed baseline to catch absolute regressions.
fs = best.get("BM_FiberSwitch", {}).get("items_per_second")
uc = best.get("BM_FiberSwitchUcontext", {}).get("items_per_second")
if not fs or not uc:
    print("fiber gate: skipped (BM_FiberSwitch rows missing)")
else:
    ratio = fs / uc
    base = out.get("baseline", {}).get("benchmarks", {}).get(
        "BM_FiberSwitch", {}).get("items_per_second")
    if ratio >= 2.0:
        print(f"fiber gate: OK (fcontext {ratio:.1f}x ucontext within-run)")
    elif ratio >= 0.85 and base and fs >= 0.7 * base:
        print(f"fiber gate: OK (single-backend build, {fs:.3g} items/s vs "
              f"baseline {base:.3g})")
    else:
        print(f"fiber gate: FAIL — BM_FiberSwitch is {ratio:.2f}x "
              "BM_FiberSwitchUcontext (need >= 2x)", file=sys.stderr)
        failed.append("fiber gate")

if failed:
    print(f"bench_json: FAIL — {', '.join(failed)}", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
