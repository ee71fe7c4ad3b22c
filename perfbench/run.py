#!/usr/bin/env python3
"""Builds and runs the xflux end-to-end benchmark.

    python3 perfbench/run.py --workload <table2|retro|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Configures and builds perfbench/ (the
xflux library from src/ plus the benchmark runner) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the runner
from the checkout root, passing its stdout through; the last line is the
JSON result.  Build output goes to stderr.  Exits non-zero, without a result
line, when the build or the run fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "xflux_perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def main():
    root = Path(__file__).resolve().parent.parent
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = (root / target / "perfbench").resolve()
    binary = build(root, build_dir)

    try:
        done = subprocess.run([str(binary)] + sys.argv[1:], cwd=root,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
