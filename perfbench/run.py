#!/usr/bin/env python3
"""Builds the ITSPQ end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload mall-day --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark binary unchanged (see src/main.rs). The
binary lands in $CARGO_TARGET_DIR when it is set, else in perfbench/target.
Build output goes to standard error, so the last line of standard output is
the binary's JSON result. A failed build exits non-zero and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode if build.returncode > 0 else 1
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    exe = os.path.join(target, "release", "itspq-perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
