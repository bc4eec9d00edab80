#!/usr/bin/env python3
"""The CI gates and reports over tauhlsc traces, lint reports and bench JSON.

One subcommand per CI step:

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

and one per `tauhlsc lint --lint-json` mode, each taking
`[--expect RULE=N ...] REPORT.json [...]`.  Belt and braces on top of
tauhlsc's exit code, which already fails on any error-severity diagnostic:
every mode checks that the document is a "tauhls-lint" report with zero
errors and prints a one-line summary; the mode adds its own assertions:

    equiv         nothing more (--equiv / --timing runs)
    model-check   schema v4+, no MDL007 bound warning, a non-empty "symbolic"
                  section in which every property is PROVED by k-induction
                  (inductionK >= 1)
    regions       no MDL007 bound warning (hierarchical --model-check runs;
                  pair with --expect MDL008=<leaves>)
    xprop         schema v5+, a non-empty "xprop" section in which every
                  property is PROVED, and no rule skipped by --only

--expect RULE=N (repeatable) additionally requires exactly N diagnostics
with code RULE in every report.

Usage: check_ci.py GATE FILE
       check_ci.py MODE [--expect RULE=N ...] REPORT.json [...]
Exits 1 with a message when a gate fails (the first failed report).
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


MIN_LINT_VERSION = {"model-check": 4, "xprop": 5}


def check_lint(path, mode, expect):
    report = json.load(open(path))
    if report.get("schema") != "tauhls-lint":
        return f"{path}: not a tauhls-lint report"
    if report["version"] < MIN_LINT_VERSION.get(mode, 0):
        return f"{path}: schema v{report['version']} predates {mode} rows"
    by_rule = report["byRule"]
    summary = (f"{path}: schema v{report['version']}, {report['errors']} "
               f"errors, {report['warnings']} warnings")

    if mode in ("model-check", "regions") and by_rule.get("MDL007"):
        return f"{path}: MDL007 still present in {by_rule}"
    if mode in ("model-check", "xprop"):
        section = "symbolic" if mode == "model-check" else "xprop"
        rows = report[section]
        bad = [r for r in rows if r["verdict"] != "PROVED"
               or (mode == "model-check" and r["inductionK"] < 1)]
        summary += f", {len(rows) - len(bad)}/{len(rows)} {section} proved"
        if bad:
            return f"{path}: unproved properties: {bad}"
        if not rows:
            return f"{path}: the {section} checker never ran"
    if mode == "xprop" and report["skipped"]:
        return f"{path}: rules skipped: {report['skipped']}"
    for rule, count in expect.items():
        if by_rule.get(rule, 0) != count:
            return f"{path}: expected {count} {rule}, got {by_rule}"
    if report["errors"]:
        return f"{path}: {report['errors']} error diagnostics"
    print(f"{summary}; rules fired: {by_rule}")
    return None


def lint_reports(mode, expect_items, paths):
    expect = {}
    for item in expect_items:
        rule, _, count = item.partition("=")
        expect[rule] = int(count)
    for path in paths:
        failure = check_lint(path, mode, expect)
        if failure:
            return failure
    return None


LINT_MODES = ["equiv", "model-check", "regions", "xprop"]

GATES = {
    "warm-cache": warm_cache,
    "micro-perf": micro_perf,
    "schedule-runs": schedule_runs,
    "kernel-floors": kernel_floors,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subcommands = parser.add_subparsers(dest="gate", required=True)
    for gate in sorted(GATES):
        subcommands.add_parser(gate).add_argument("file")
    for mode in LINT_MODES:
        lint = subcommands.add_parser(mode)
        lint.add_argument("--expect", action="append", default=[],
                          metavar="RULE=N")
        lint.add_argument("reports", nargs="+")
    args = parser.parse_args()
    if args.gate in GATES:
        failure = GATES[args.gate](args.file)
    else:
        failure = lint_reports(args.gate, args.expect, args.reports)
    if failure:
        sys.exit(failure)


if __name__ == "__main__":
    main()
