#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seed N] [--workloads a,b] [--repeat]

Runs every workload with a tiny request count (paper512 always makes its one
synthesis) in both modes and checks the output contract: exit code 0, a
final JSON line whose metrics are exactly BENCHMARK.json's end_to_end
(--trace 0) or per_layer (--trace 1) names with their units, every named
metric line printed with a unit, error_rate 0 and every work counter.

--repeat runs each workload's untraced case a second time with the same
seed and lists every work counter with whether the two runs agree; only
counters that repeat exactly can back a count claim. Exits 1 if a contract
check fails (a counter that differs is reported, not failed).
"""
import argparse
import json
import os
import re
import sys

import run

# Metric lines every run prints, per workload, under workload-specific names.
NAMED = {
    "synth_mix": ["setup_s", "setup_wall_s", "synth_s.p50", "synth_s.tail", "synth_cpu_s.p50",
                  "synth_cpu_s.p95", "synth_cpu_s.tail", "synth_per_s", "synth_per_cpu_s", "resynth_s.p50",
                  "busbw_gmean_GBps", "error_rate", "peak_rss_mb"],
    "paper512": ["setup_s", "setup_wall_s", "synth_s.p50", "synth_s.tail", "synth_cpu_s.p50",
                 "synth_cpu_s.p95", "synth_cpu_s.tail", "synth_per_s", "synth_per_cpu_s", "busbw_gmean_GBps",
                 "error_rate", "peak_rss_mb"],
    "serve_mix": ["setup_s", "setup_wall_s", "serve_hit_ms.p50", "serve_hit_ms.tail",
                  "serve_hit_cpu_ms.p50", "serve_hit_cpu_ms.p95", "serve_hit_cpu_ms.tail",
                  "serve_miss_ms.p50",
                  "serve_rps", "serve_per_cpu_s", "hit_ratio", "busbw_gmean_GBps",
                  "error_rate", "peak_rss_mb"],
}
COUNTERS = ["solver.calls", "synth.subdemands", "synth.combinations", "sim.events",
            "solve_cache.misses", "solver.nodes_explored", "solver.lp_iterations"]
MAX_REQUESTS = {"synth_mix": 6, "paper512": None, "serve_mix": 12}
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)")
COUNTER_LINE = re.compile(r"^counter (\S+)\s+(-?\d+)$")


def run_case(workload, seed, trace):
    """Runs one case; returns (problems, counters)."""
    proc = run.run(workload, seed, 1, trace, MAX_REQUESTS[workload], capture=True)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not JSON"], {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("JSON keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correct=%s failed=%s" % (result.get("correct"), result.get("failed")))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append("JSON metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected)),
            sorted(k for k in expected if k in got and got[k] != expected[k])))
    named = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            named[m.group(1)] = (float(m.group(2)), m.group(3))
    for name in NAMED[workload]:
        if name not in named:
            problems.append("metric line %s missing" % name)
    if named.get("error_rate", (1.0, ""))[0] != 0.0:
        problems.append("error_rate %s" % (named.get("error_rate"),))
    counters = {}
    for line in lines:
        m = COUNTER_LINE.match(line)
        if m:
            counters[m.group(1)] = int(m.group(2))
    for name in COUNTERS:
        if name not in counters:
            problems.append("counter %s missing" % name)
    return problems, counters


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()
    run.build()
    failed = False
    for workload in args.workloads.split(","):
        if workload not in run.WORKLOADS:
            sys.exit("unknown workload %s" % workload)
        counters = None
        for trace in (0, 1):
            problems, got = run_case(workload, args.seed, trace)
            if trace == 0:
                counters = got
            print("%-10s trace=%d %s" % (workload, trace, "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failed |= bool(problems)
        if args.repeat:
            problems, again = run_case(workload, args.seed, 0)
            for p in problems:
                print("    repeat: " + p)
            failed |= bool(problems)
            for name in COUNTERS:
                a, b = counters.get(name), again.get(name)
                print("    %-24s %14s %14s  %s" % (name, a, b, "same" if a == b else "DIFFERS"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
