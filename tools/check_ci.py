#!/usr/bin/env python3
"""The CI gates and reports over tauhlsc traces and bench JSON, one per step.

    warm-cache TRACE.json       the second `lint --store` process serves
                                >= 90% of its pass evaluations from the
                                cache tiers and never re-runs the schedule
                                pass
    micro-perf BENCH.json       print the parallel and kernel speedups of a
                                google-benchmark `micro_perf` run (report
                                only, never fails)
    schedule-runs TRACE.json    across the `ablation_p_sweep` pipeline
                                trace, the schedule pass misses the cache at
                                most once per benchmark
    kernel-floors BENCH.json    `kernel_speed` speedups hold their floors:
                                >= 3x equivalence, >= 2x Gray-code sweep

Usage: check_ci.py GATE FILE
Exits 1 with a message when a gate fails.
"""

import argparse
import json
import sys


def pass_events(trace):
    return [e for e in trace["traceEvents"] if e["ph"] == "X"]


def warm_cache(path):
    events = pass_events(json.load(open(path)))
    total = len(events)
    by_tier = {}
    for e in events:
        by_tier.setdefault(e["args"]["cache"], []).append(e)
    misses = by_tier.get("miss", [])
    served = total - len(misses)
    rate = served / total if total else 0.0
    print(f"run 2: {total} pass evaluations, "
          f"{len(by_tier.get('disk', []))} disk hits, "
          f"{len(by_tier.get('hit', []))} memory hits, "
          f"{len(misses)} misses ({100.0 * rate:.1f}% served)")
    schedule_misses = [e for e in misses if e["name"] == "schedule"]
    if schedule_misses:
        return (f"{len(schedule_misses)} schedule pass recomputes "
                "in the warm run")
    if rate < 0.90:
        return f"warm-run hit rate {100.0 * rate:.1f}% < 90%"
    return None


def micro_perf(path):
    data = json.load(open(path))
    times = {b["name"]: b["real_time"] for b in data["benchmarks"]}

    parallel = {n: t for n, t in times.items()
                if n.startswith("BM_ParallelExactAverage")}
    for name, t in sorted(parallel.items()):
        print(f"{name}: {t:.3f} ms")
    base = parallel.get("BM_ParallelExactAverage/1/real_time")
    best = min((t for n, t in parallel.items()
                if not n.endswith("/1/real_time")), default=None)
    if base and best:
        print(f"best parallel speedup: {base / best:.2f}x")

    # Gray-code incremental kernel vs the brute-force reference
    # (single thread): the algorithmic speedup this repo tracks per change.
    for naive, incr, label in [
        ("BM_NaiveExactAverageFir5", "BM_IncrementalExactAverageFir5",
         "5th-order FIR P-sweep"),
        ("BM_NaiveExactAverage", "BM_IncrementalExactAverage",
         "AR-lattice single P"),
    ]:
        if naive in times and incr in times:
            print(f"incremental speedup ({label}): "
                  f"{times[naive] / times[incr]:.2f}x")
    if "BM_ClosedFormSyncAverage" in times:
        print(f"closed-form sync average: "
              f"{times['BM_ClosedFormSyncAverage']:.0f} ns")

    # Exact makespan law of a 24-TAU-op graph: frontier DP vs the
    # Gray-code sweep over 2^24 masks; Monte-Carlo mask sampling:
    # partial engine vs a whole std::mt19937_64 per sample.
    for slow, fast, label in [
        ("BM_GrayHistogram", "BM_FrontierDpHistogram",
         "frontier DP over Gray-code histogram"),
        ("BM_SampleMaskStd", "BM_SampleMask",
         "partial-engine mask sampler over std"),
    ]:
        if slow in times and fast in times:
            print(f"{label}: {times[slow] / times[fast]:.2f}x")
    return None


def schedule_runs(path):
    events = json.load(open(path))["traceEvents"]
    runs = {e["args"]["name"] for e in events if e["ph"] == "M"}
    benchmarks = {name.split("@P=")[0] for name in runs}
    misses = [e for e in events
              if e["ph"] == "X" and e["name"] == "schedule"
              and e["args"]["cache"] == "miss"]
    hits = sum(1 for e in events
               if e["ph"] == "X" and e["args"].get("cache") == "hit")
    total = sum(1 for e in events if e["ph"] == "X")
    print(f"{len(runs)} pipeline runs over {len(benchmarks)} benchmarks; "
          f"{total} pass evaluations, {hits} cache hits "
          f"({100.0 * hits / total:.1f}% hit rate); "
          f"{len(misses)} schedule executions")
    if len(misses) > len(benchmarks):
        return (f"schedule ran {len(misses)} times for "
                f"{len(benchmarks)} benchmarks: artifact reuse broken")
    return None


def kernel_floors(path):
    t = json.load(open(path))["timingsMs"]
    equiv = t["equivalence"]["speedup"]
    sweep = t["sweep"]["speedup"]
    print(f"equivalence suite: {equiv:.2f}x (floor 3x); "
          f"Gray-code sweep: {sweep:.2f}x (floor 2x)")
    if equiv < 3.0:
        return f"equivalence speedup {equiv:.2f}x below the 3x floor"
    if sweep < 2.0:
        return f"sweep speedup {sweep:.2f}x below the 2x floor"
    return None


GATES = {
    "warm-cache": warm_cache,
    "micro-perf": micro_perf,
    "schedule-runs": schedule_runs,
    "kernel-floors": kernel_floors,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("file")
    args = parser.parse_args()
    failure = GATES[args.gate](args.file)
    if failure:
        sys.exit(failure)


if __name__ == "__main__":
    main()
