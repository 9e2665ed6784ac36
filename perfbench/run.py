#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs it once.

    python3 perfbench/run.py --workload serve-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build (or to
$CARGO_TARGET_DIR when set); the build log goes to stderr, so the last line
of stdout is the result JSON that perfbench prints. Exits non-zero without
a result when the Pandia sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-sparse", "serve-dense", "search-cold")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "tools/pandia_serve.cc"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} is missing; run from a Pandia checkout",
                  file=sys.stderr)
            return 2

    # Relative paths keep the daemon's Unix socket path short.
    build = os.path.relpath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")), root)
    # Configure every time: it is cheap on an existing cache, and CMake stops
    # with an error when the cache belongs to another checkout's sources, so
    # a shared build directory never measures the wrong tree.
    configure = ["cmake", "-S", "perfbench", "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(root, build, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build, "--target", "perfbench", "-j", "4"]]
    for step in steps:
        built = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print(f"error: {' '.join(step)} failed", file=sys.stderr)
            return 2

    command = [
        os.path.join(build, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", os.path.join(build, "pandia_serve"),
        "--work-dir", os.path.join(build, "run-" + args.workload),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
