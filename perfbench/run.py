#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <topk_planned|sql_dashboard|sharded_failover>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds against the repository's crates by
path, into $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
stderr; the program's log lines and its one-line JSON result go to stdout.
The exit code is the build's when the build fails, else the program's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
