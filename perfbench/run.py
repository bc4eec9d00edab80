#!/usr/bin/env python3
"""End-to-end benchmark of the compile-and-prove flow.

    python3 perfbench/run.py --workload table2-flow --seed 1 --seconds 28 --trace 0

Builds flowbench (Release) from the checkout's sources, then repeats samples
for --seconds.  One sample is a set of fresh flowbench processes over one
empty store directory:

    set-up processes    each sets up the workload 51 times (median set-up)
    cold process        cold run (empty caches, empty store)
    warm-disk processes fresh caches over the store the cold process filled;
                        they and the cold process then repeat the run on
                        their populated caches (warm-memory)

With --trace 1 each sample also runs the traced replay in its own process,
and the per-layer metrics are printed instead of the end-to-end ones.  Every
output is checked against perfbench/expected/<workload>.json and across the
three regimes.  The last stdout line is the JSON summary; README.md
describes the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2-flow", "table2-lint", "fuzz-flow", "dse-sweep")
PROCESS_TIMEOUT_S = 150
# Set-up and warm runs take milliseconds, so each sample starts several
# set-up processes and several warm-disk processes over its store.
SETUP_PROCESSES = 5
WARM_DISK_PROCESSES = 2
# Time metrics report this nearest-rank quantile of the run's readings, not
# their median.  A shared host slows every process by up to 1.5x for periods
# of seconds, whatever CPU it runs on, and the share of slowed readings changes
# from run to run: on table2-lint the per-process readings clustered at 29 ms
# and 44 ms, and run medians spread 23% (warm-memory) and 19% (cold) over five
# seeds.  Contention only ever adds time, so a low quantile follows the
# uncontended speed as long as a tenth of the run was uncontended.
TIME_QUANTILE = 0.10
TIME_METRICS = ("setup_s", "cold_ms", "warm_disk_ms", "warm_memory_ms")
# Pool threads per workload (capped at nproc).  One by default: on a shared
# 4-vCPU host, interleaved cold processes showed a per-sample quartile spread
# of warm-memory time of 9% with one thread against 22-26% with two or four,
# at the same median cold time (every pass wave waits for its slowest
# thread), and serial passes let the traced replay reconcile with the
# untraced cold run.  dse-sweep keeps four: explore's point fan-out is part
# of what it measures, and it halves the sample length.
POOL_THREADS = {"dse-sweep": 4}
# Passes some workload runs; core.pass_ms.<pass> is reported for each.
PASSES = ("schedule", "distributed", "signal-opt", "cent-sync", "latency",
          "verify", "area-dist", "area-cent-sync", "equiv", "timing", "xcheck")


def reject_duplicates(pairs):
    """json object hook: a repeated key is an error, never an overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def loads(text):
    return json.loads(text, object_pairs_hook=reject_duplicates)


def dumps(obj):
    """Serialize a result file; json.dumps cannot repeat a dict key, and
    every row is keyed by design or controller name."""
    return json.dumps(obj, indent=1, sort_keys=True)


def build(build_dir):
    """Configure and build flowbench; returns its path or exits 1."""
    binary_dir = build_dir / "perfbench"
    binary_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(binary_dir), "-j", jobs]]
    if not (binary_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(binary_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    # Keep the compiler's temporary files inside the build tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                sys.stderr.write(f"perfbench: build failed, see {log}\n")
                sys.stderr.write(log.read_text()[-3000:])
                sys.exit(1)
    return binary_dir / "flowbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run_flowbench(binary, args, threads, phase, store, extra=()):
    """One flowbench process; returns its parsed result or None on failure."""
    cmd = [str(binary), "--workload", args.workload, "--phase", phase,
           "--store", str(store), "--seed", str(args.seed),
           "--threads", str(threads), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {phase} process timed out\n")
        return None
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(f"perfbench: {phase} process exited "
                         f"{r.returncode}: {r.stderr.strip()[-2000:]}\n")
        return None
    return loads(r.stdout.strip().splitlines()[-1])


class Checker:
    """Counts attempted and failed runs.  A design run fails when it threw,
    its process exited non-zero, its output differs from the committed
    expectation or from the cold regime, or its regime broke a cache
    invariant.  Each set-up and trace process counts as one run, which fails
    when the process does."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.decided = 0
        self.checked = 0

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def process(self, name, result):
        self.attempted += 1
        if result is None:
            self.fail(f"{name}: process failed")

    def regime(self, name, reg, reference, invariant):
        designs = self.expected["designs"]
        self.attempted += len(designs)
        if reg is None:
            for _ in designs:
                self.fail(f"{name}: process failed")
            return
        if not invariant(reg):
            for _ in designs:
                self.fail(f"{name}: cache invariant broken (hits {reg['hits']},"
                          f" disk hits {reg['disk_hits']}, misses {reg['misses']})")
            return
        got = reg["designs"]
        for design in designs:
            row = got.get(design)
            if row is None:
                self.fail(f"{name}/{design}: missing")
            elif not row["ok"]:
                self.fail(f"{name}/{design}: {row['error'][:300]}")
            elif row["outputs"] != designs[design]:
                self.fail(f"{name}/{design}: output differs from expected")
            elif reference is not None and row["outputs"] != reference[design]["outputs"]:
                self.fail(f"{name}/{design}: output differs from the cold run")
        for design in set(got) - set(designs):
            self.fail(f"{name}/{design}: not in the expected outputs")

    def sample(self, cold, warms):
        """Check one sample's three regimes (cold, warm-memory, warm-disk).
        A cold run may hit artifacts it made itself (designs or explore
        points that share work), but none may come from disk: its process
        and store start empty."""
        cold_reg = cold["regimes"]["cold"] if cold else None
        self.regime("cold", cold_reg, None, lambda r: r["disk_hits"] == 0)
        ref = cold_reg["designs"] if cold_reg else None
        for proc in [cold, *warms]:
            self.regime("warm-memory", proc["regimes"]["warm_memory"] if proc else None,
                        ref, lambda r: r["misses"] == 0 and r["disk_hits"] == 0
                        and r["hits"] > 0)
        for warm in warms:
            self.regime("warm-disk", warm["regimes"]["warm_disk"] if warm else None,
                        ref, lambda r: r["misses"] == 0 and r["hits"] > 0
                        and r["disk_hits"] == r["hits"])
        if cold_reg:
            for row in cold_reg["designs"].values():
                self.decided += row["decided"]
                self.checked += row["checked"]


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    vals = sorted(values)
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


def percentile_line(values, unit):
    """p10 and median plus the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    text = (f"p{TIME_QUANTILE * 100:g} {quantile(vals, TIME_QUANTILE):.6g} {unit}, "
            f"median {statistics.median(vals):.6g} {unit}")
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            text += f", p{p:g} {vals[rank - 1]:.6g} {unit}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite expected/<workload>.json from one cold run "
                         "(after a reviewed change of the flow's outputs)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("perfbench: no library sources next to perfbench/\n")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)
    results = build_dir / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stores = build_dir / "perfbench-stores"
    threads = min(POOL_THREADS.get(args.workload, 1), os.cpu_count() or 1)

    def flowbench(phase, store, extra=()):
        return run_flowbench(binary, args, threads, phase, store, extra)

    expected_path = HERE / "expected" / f"{args.workload}.json"

    if args.update_expected:
        store = stores / f"update-{os.getpid()}"
        shutil.rmtree(store, ignore_errors=True)
        cold = flowbench("cold", store)
        shutil.rmtree(store, ignore_errors=True)
        if cold is None:
            return 1
        designs = cold["regimes"]["cold"]["designs"]
        bad = [d for d, row in designs.items() if not row["ok"]]
        if bad:
            sys.stderr.write(f"perfbench: designs failed: {bad}\n")
            return 1
        expected_path.write_text(dumps(
            {"designs": {d: row["outputs"] for d, row in designs.items()}}) + "\n")
        print(f"wrote {expected_path}")
        return 0

    checker = Checker(loads(expected_path.read_text()))
    samples = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        store = stores / f"{os.getpid()}-{len(samples)}"
        shutil.rmtree(store, ignore_errors=True)
        setups = [flowbench("setup", store / "setup")
                  for _ in range(SETUP_PROCESSES)]
        cold = flowbench("cold", store)
        warms = [flowbench("warm-disk", store) if cold else None
                 for _ in range(WARM_DISK_PROCESSES)]
        trace = None
        if args.trace:
            trace_file = results / f"trace-{args.workload}-seed{args.seed}.json"
            trace = flowbench("trace", store / "unused",
                              ("--trace-json", str(trace_file)))
        shutil.rmtree(store, ignore_errors=True)
        for setup in setups:
            checker.process("set-up", setup)
        if args.trace:
            checker.process("trace", trace)
        checker.sample(cold, warms)
        samples.append({"setups": setups, "cold": cold, "warms": warms,
                        "trace": trace})
        elapsed = time.monotonic() - started
        if elapsed + (time.monotonic() - t0) > args.seconds:
            break
    try:
        stores.rmdir()
    except OSError:
        pass

    ok_samples = [s for s in samples
                  if all(s["setups"]) and s["cold"] and all(s["warms"])]
    provenance = dict(ok_samples[0]["cold"]["provenance"]) if ok_samples else {}
    provenance.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                       "workload_seed": args.seed, "run_seconds": args.seconds})

    def med(values):
        return statistics.median(values) if values else 0.0

    series = {}
    if ok_samples:
        series = {
            "cold_ms": [s["cold"]["regimes"]["cold"]["ms"] for s in ok_samples],
            "warm_memory_ms": [p["regimes"]["warm_memory"]["ms"] for s in ok_samples
                               for p in [s["cold"], *s["warms"]]],
            "warm_disk_ms": [w["regimes"]["warm_disk"]["ms"]
                             for s in ok_samples for w in s["warms"]],
            "setup_s": [u["setup_s"] for s in ok_samples for u in s["setups"]],
            "peak_rss_mb": [s["cold"]["peak_rss_mb"] for s in ok_samples],
            "store_kb": [s["cold"]["store_bytes"] / 1024 for s in ok_samples],
        }
    # Report exactly the metrics BENCHMARK.json declares, with its units.
    declared = loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    print(f"perfbench {args.workload}: seed {args.seed}, {len(samples)} samples, "
          f"{threads} pool threads")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for message in checker.messages:
        print(f"FAIL {message}")
    fail_ratio = checker.failed / max(1, checker.attempted)
    print(f"fail_ratio: {fail_ratio:.4f} ratio "
          f"({checker.failed} of {checker.attempted} runs)")

    values = {}
    reconciliation = {}
    if not args.trace:
        for name, vals in series.items():
            print(f"{name}: {percentile_line(vals, units[name])}")
            values[name] = (quantile(vals, TIME_QUANTILE) if name in TIME_METRICS
                            else med(vals))
        decided = checker.decided / max(1, checker.checked)
        print(f"decided_ratio: {decided:.6g} ratio "
              f"({checker.decided} of {checker.checked} checks decided)")
        values["decided_ratio"] = decided
    else:
        traced = [s for s in ok_samples if s["trace"]]
        layers = {}
        for key in (traced[0]["trace"]["layers"] if traced else {}):
            layers[key] = med([s["trace"]["layers"][key] for s in traced])
        for p in PASSES:
            layers[f"core.pass_ms.{p}"] = med(
                [s["cold"]["pass_ms"].get(p, 0.0) for s in ok_samples])
        cold_regs = [s["cold"]["regimes"]["cold"] for s in ok_samples]
        # Hits within the cold run itself, over its lookups.
        layers["core.cache.hit_ratio"] = med(
            [r["hits"] / max(1, r["hits"] + r["misses"]) for r in cold_regs])
        layers["core.cache.disk_hits"] = med(
            [s["warms"][0]["regimes"]["warm_disk"]["disk_hits"] for s in ok_samples])
        layers["core.store.blobs"] = med(
            [s["cold"]["store_blobs"] for s in ok_samples])
        points = [s["cold"]["explore_points"] for s in ok_samples]
        layers["explore.point_ms"] = (
            med([r["ms"] / p for r, p in zip(cold_regs, points)])
            if points and min(points) > 0 else 0.0)
        cold_ms = med(series.get("cold_ms", []))
        if traced:
            # Printed, not reported as metrics: a faster layer or a faster
            # pipeline moves these either way, so they have no better side.
            unattributed = cold_ms - layers["trace.self_sum_ms"]
            replay_vs_cold = layers["trace.replay_ms"] - cold_ms
            reconciliation = {"unattributed_ms": unattributed,
                              "replay_vs_cold_ms": replay_vs_cold}
            print(f"reconciliation: self times sum to {layers['trace.self_sum_ms']:.2f} ms"
                  f" against untraced cold_ms {cold_ms:.2f} ms; unattributed "
                  f"{unattributed:.2f} ms; traced replay "
                  f"{layers['trace.replay_ms']:.2f} ms ({replay_vs_cold:+.2f} ms "
                  f"against cold_ms); tracing overhead "
                  f"{layers['trace.overhead_ms']:.3f} ms")
        values = layers

    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            sys.stderr.write(f"perfbench: no value for metric {m['name']}\n")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")

    correct = checker.failed == 0 and bool(ok_samples)
    summary = {"correct": correct, "attempted": checker.attempted,
               "failed": checker.failed, "metrics": metrics}
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(dumps({
        "provenance": provenance, "summary": summary, "fail_ratio": fail_ratio,
        "failures": checker.messages, "series": series,
        "reconciliation": reconciliation}) + "\n")
    print(f"wrote {result_file}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
