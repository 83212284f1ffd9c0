#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload genome_pair --seed 1 --seconds 35 --trace 0

Configures and builds perfbench/ with CMake (incrementally after the first
run) into $CARGO_TARGET_DIR, default .bench_build, relative to the
repository root, then runs the fastz_perfbench binary. Build output goes to
stderr; the binary's stdout is passed through, so its last line is the
result object. The exit code is the binary's, or non-zero when the build
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fastz_perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "fastz_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
