#!/usr/bin/env python3
"""Build the stack benchmark from source, then run one workload.

Usage (from the repository root):

    python3 stackbench/run.py --workload chat --seed 1 --seconds 12 --trace 0

The first call configures and builds stackbench (and the library under
src/) into .bench_build/ at the repository root; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Every argument is passed to the benchmark
binary unchanged (see stackbench/main.cc for the flags).
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "stackbench")


def build():
    """Configure (once) and build the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("stackbench: no library sources under src/ to build",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.run(
            ["cmake", "--build", BUILD, "--target", "stackbench", "-j", jobs],
            stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("stackbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
