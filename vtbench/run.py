#!/usr/bin/env python3
"""Builds and runs the virtual-time scheduler benchmark.

Run from the repository root:

  python3 vtbench/run.py --workload locality --seed 1 --seconds 25 --trace 0
  python3 vtbench/run.py --selftest --seconds 2

The first call configures and compiles the scheduler sources under src/
together with the benchmark driver into .bench_build/vtbench (about a
minute on 4 cores); later calls only check that the build is current. Build
output goes to stderr, so the last line on stdout is the benchmark's result
object. The exit code is the benchmark's; a failed build exits non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vtbench")
BINARY = os.path.join(BUILD, "vtbench")
# A run ends well inside this; a hung run is killed rather than left behind.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["locality", "recurring", "cells"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    data_dir = os.path.join(BUILD, "data")
    os.makedirs(data_dir, exist_ok=True)
    command = [BINARY, "--seconds", str(args.seconds), "--data-dir", data_dir,
               "--seed", str(args.seed)]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--trace", str(args.trace)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
