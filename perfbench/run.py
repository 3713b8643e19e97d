#!/usr/bin/env python3
"""Builds the `study` binary and the benchmark from source, then runs one
benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_scores --seed 1 --seconds 20 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). All arguments are passed to the benchmark binary; see
perfbench/README.md. The exit code is the benchmark's, or non-zero when the
build fails (for instance outside a checkout of the repository).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "fp-study", "--bin", "study"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout carries only the result.
        code = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--study-exe", os.path.join(release, "study")]
    return subprocess.call(cmd, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
