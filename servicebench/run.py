#!/usr/bin/env python3
"""Build the decision-service benchmark from this checkout and run it.

    python3 servicebench/run.py --workload hot_pep --seed 1 --seconds 10 --trace 0
    python3 servicebench/run.py --self-test

Run from the root of a checkout. The first call configures an optimised
build tree under .bench_build/servicebench (the repository's CMake
project, unchanged, plus the benchmark program in this directory) and builds
the `mdac` library and the program; later calls rebuild incrementally, so
every run measures the code in the checkout. Build output goes to
stderr; stdout carries only the program's output, whose last line is the
result JSON. Exits non-zero, without a result, when the build or the
run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servicebench")
PROGRAM = os.path.join(BUILD, "servicebench")
# Beyond --seconds, a run needs time for its five set-ups and its final
# checks; one that takes longer than this is stopped without a result.
SETUP_ALLOWANCE_S = 60


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("servicebench: no CMakeLists.txt at the checkout root", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release",
                     # The benchmark measures the library; a new compiler
                     # warning in it must not stop the measurement.
                     "-DMDAC_WERROR=OFF"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", BUILD, "--target", "servicebench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_timeout(args):
    """--seconds (the program's default 10 when absent or unreadable;
    the program rejects a bad value itself) plus the set-up allowance."""
    seconds = 10
    if "--seconds" in args[:-1]:
        value = args[args.index("--seconds") + 1]
        if value.isdigit():
            seconds = int(value)
    return seconds + SETUP_ALLOWANCE_S


def main():
    if not build():
        print("servicebench: build failed", file=sys.stderr)
        return 2
    timeout = run_timeout(sys.argv[1:])
    try:
        done = subprocess.run([PROGRAM] + sys.argv[1:], cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("servicebench: run exceeded %d s" % timeout, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
