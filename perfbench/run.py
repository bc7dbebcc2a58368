#!/usr/bin/env python3
"""Build gridpipe's wall-clock benchmark from source and run one workload.

    python3 perfbench/run.py --workload paced|adapt|churn --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first call configures and builds an
optimized copy of the library plus the driver under .bench_build/ (build
output goes to stderr); later calls rebuild only what changed. The last
line on stdout is the driver's JSON result. Exits non-zero, without a
result, when the sources are missing, the build fails or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "rt" / "runtime.hpp").is_file():
        log(f"no gridpipe sources under {ROOT / 'src'}")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return BUILD / "perfbench"


def commit():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few items per leg (self-check)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--out-dir", str(OUT)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
