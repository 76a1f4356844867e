#!/usr/bin/env python3
"""Build linkbench from the repository sources and run one workload.

    python3 perfbench/run.py --workload coded_link --seed 1 --seconds 20 --trace 0

The build goes to perfbench/.build (Release), checkpoints and traces to
perfbench/.out. Build output goes to stderr, so the last line on stdout
is linkbench's JSON result. Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("coded_link", "acquire_fading", "rf_cosim")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "linkbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "linkbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
