#!/usr/bin/env python3
"""Builds and runs DetLock's end-to-end benchmark.

    python3 perfbench/run.py --workload splash-lock|splash-compute|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) with
perfbench/CMakeLists.txt; build output goes to stderr.  Standard output
carries the host record, one line per metric, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is the benchmark's: nonzero when any output disagreed with the reference
engine, any run failed, or the build failed.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "service", "server.hpp")):
        fail(f"no DetLock sources under {root}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    proc = subprocess.Popen([binary, *argv, "--root", root], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        print(f"perfbench: no result line (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
