#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload synth_mix|paper512|serve_mix \
        --seed N --seconds S --trace 0|1 [--max-requests N]

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo like the repository's default), scratch files to
.bench_build/perfbench-work. The binary's output passes through unchanged:
metric, counter and DEFECT lines, then one JSON object as the last line.
perfbench/README.md describes the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("synth_mix", "paper512", "serve_mix")


def build():
    """Configures and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace, max_requests=None, capture=False):
    """Runs one workload; returns the CompletedProcess (stdout captured if asked)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR]
    if max_requests is not None:
        cmd += ["--max-requests", str(max_requests)]
    # subprocess.run kills the child and waits for it if the timeout expires.
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--max-requests", type=int)
    args = parser.parse_args()
    build()
    sys.stdout.flush()
    try:
        proc = run(args.workload, args.seed, args.seconds, args.trace, args.max_requests)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
