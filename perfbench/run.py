#!/usr/bin/env python3
"""Build the secpol benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The benchmark is built with dune from the checkout's own sources, then
run with the given arguments; its output passes through unchanged, and
the last line of standard output is the JSON result. Build output goes to
standard error. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/main.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
