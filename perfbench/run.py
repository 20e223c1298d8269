#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <cube_load|cube_query|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` under the
current directory) and its output to stderr, so the run's last line of
standard output is its JSON result. Stores the run creates live under the
target directory and are removed when the run ends.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(bench / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "perfbench"
    run = subprocess.run(
        [str(exe), *sys.argv[1:], "--data", str(target / "perfbench-data")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
