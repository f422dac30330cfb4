#!/bin/sh
# Reproduce everything: build, run the full test suite, regenerate every
# table/figure of the paper, and leave the logs at the repository root
# (test_output.txt, bench_output.txt).  See EXPERIMENTS.md for how to read
# the results.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# A bench whose gate fails exits nonzero; keep going so every table is
# regenerated, and count its [FAIL] lines below.
{
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    "$b" || echo "$b: exit $?"
  done
} 2>&1 | tee bench_output.txt

echo
echo "checks: $(grep -c '\[OK '  bench_output.txt) OK," \
     "$(grep -c '\[??? ' bench_output.txt || true) shape checks not held," \
     "$(grep -c '\[FAIL\]' bench_output.txt || true) gates failed"
