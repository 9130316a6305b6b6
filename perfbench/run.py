#!/usr/bin/env python3
"""Builds tempo's benchmark from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload paged-paper --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout). The last line of standard output is the result
object; build logs and diagnostics go to standard error. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            cmd += ["--trace-out", os.path.join(
                build_dir(), f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return 0
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
