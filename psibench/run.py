#!/usr/bin/env python3
"""Build psibench from source, then run it.

Run from the repository root:

    python3 psibench/run.py --workload fast_small --seed 1 --seconds 20 --trace 0

The build tree is .bench_build/psibench (only the psibench target is
built; the first build compiles the psi library too).  Every argument
is passed to the psibench binary, whose last line of standard output
is the JSON result.  A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "psibench")


def run(cmd):
    """Run cmd with its output on stderr; return its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    # Configure every time: cheap once the cache exists, and a run
    # after a failed configure starts over instead of failing forever.
    rc = run(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    if rc != 0:
        return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "--target", "psibench",
                "-j", jobs])


def main():
    rc = build()
    if rc != 0:
        print("psibench: build failed", file=sys.stderr)
        return rc
    binary = os.path.join(BUILD, "psibench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
