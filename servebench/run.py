#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark (and the fhg libraries it measures) under .bench_build/servebench;
later calls only re-check the build.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  See servebench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_build", "servebench-out")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _have("ninja") else []
    steps = [configure, ["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def _have(program):
    return any(os.access(os.path.join(path, program), os.X_OK)
               for path in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "servebench"), *sys.argv[1:], "--out", OUT]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
