#!/usr/bin/env python3
"""Builds the `urb` binary and the benchmark harness, then runs the harness.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <inproc-q3|tcp-q3|sim-n16> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds are release builds into CARGO_TARGET_DIR (default
`.bench_build`). A plain `cargo build --release` at the root builds only the
facade package, so the `urb` binary is built explicitly. When a build fails
the script exits with a non-zero code and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "urb-cli", "--bin", "urb"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            rc = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return 2
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    harness = os.path.join(target, "release", "perfbench")
    urb = os.path.join(target, "release", "urb")
    sys.stdout.flush()
    os.execv(harness, [harness, *sys.argv[1:], "--urb", urb])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
