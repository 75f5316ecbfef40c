#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the benchmark package in release mode
into $CARGO_TARGET_DIR (default .bench_build), then runs it with
MEMCONV_THREADS=1 (the CPU reference's only thread knob) and passes the
arguments through. The last line of standard output is the JSON result.
When the build fails the script exits non-zero and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
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
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    env["MEMCONV_THREADS"] = "1"
    env.pop("MEMCONV_LAUNCH_MODE", None)
    exe = os.path.join(target, "release", "memconv-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
