#!/usr/bin/env python3
"""Build and run the ExtraP benchmark.

    python3 xpbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
benchmark (the library from src/ plus xpbench/*.cpp) under .bench_build/xpbench
(or $CARGO_TARGET_DIR/xpbench); later calls only rebuild what changed.
Build output goes to standard error, so the benchmark's result stays the last
line of standard output.  Extra arguments (--tiny) pass through to the
xpbench binary.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"xpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to xpbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "xpbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(base, "xpbench")
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "out")
    os.makedirs(scratch, exist_ok=True)
    # The server socket lives in the scratch directory; a relative path
    # keeps it under the 108-byte limit of a Unix socket address.
    scratch_rel = os.path.relpath(scratch, ROOT)

    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--scratch", scratch_rel] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"xpbench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
