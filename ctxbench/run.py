#!/usr/bin/env python3
"""Builds the ctxform benchmark from source and runs one workload.

Run from the root of the repository:

    python3 ctxbench/run.py --workload fig6-batch --seed 1 --seconds 25 --trace 0
    python3 ctxbench/run.py --workload edit-session --seed 1 --seconds 25 --trace 1
    python3 ctxbench/run.py --workload query-cold --seed 1 --check-counters

It builds `ctxform-serve` (the workspace's server binary) and the `ctxbench`
package next to this file, in release mode and offline, into
`$CARGO_TARGET_DIR` (default: `target/` at the repository root), then runs
`ctxbench` with the given arguments. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. The
exit code is the benchmark's: non-zero when a build fails, an argument is
wrong, or an oracle check fails. See `ctxbench/README.md`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("ctxbench: no ctxform workspace around the benchmark", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ctxform-server", "--bin", "ctxform-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("ctxbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "ctxbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "ctxform-serve")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
