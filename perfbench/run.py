#!/usr/bin/env python3
"""Builds the release serve_agent and the perfbench client, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload vbf_fp_paper --seed 1 --seconds 15 --trace 0

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Build output goes
to stderr, so the last stdout line is the perfbench result object. The exit
code is perfbench's, or 1 when a build fails.

    python3 perfbench/run.py --test

builds serve_agent and runs the benchmark's own tests against it.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The program under test, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "-p", "bench", "--bin", "serve_agent"],
        # The benchmark client and traced run, a package of its own.
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    server = os.path.join(release, "serve_agent")
    if sys.argv[1:] == ["--test"]:
        env["PERFBENCH_SERVE_AGENT"] = os.path.abspath(server)
        command = ["cargo", "test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
        return subprocess.run(command, env=env).returncode
    command = [os.path.join(release, "perfbench"), "--server", server]
    return subprocess.run(command + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
