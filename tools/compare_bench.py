#!/usr/bin/env python3
"""Diff a fresh bench JSON against its committed baseline (schema driven).

One comparator for every tracked bench emitter.  All of them share the same
document shape:

    {"schema": "<name>", "version": N,
     "structural": {...},      # deterministic, machine independent
     "timingsMs": {...},       # wall clock, machine dependent
     ...}                      # extra context fields (e.g. "simdBackend")

The "structural" section must match the baseline exactly -- any drift fails
the run (exit 1), so changing it is a deliberate, reviewed baseline update
(regenerate with the emitting bench binary's `--json` flag and commit the
diff).  The "timingsMs" section is machine dependent and only reported;
speedup floors are gated separately in CI (.github/workflows/ci.yml).
Remaining top-level fields are context and are not compared.

Known schemas and the bench binaries that emit them:

    tauhls-bench-kernels     build/bench/kernel_speed
    tauhls-bench-pipeline    build/bench/pipeline_trajectory
    tauhls-bench-modelcheck  build/bench/model_check_speed
    tauhls-bench-regions     build/bench/region_flow
    tauhls-bench-xcheck      build/bench/xcheck_speed

A document with a repeated object key is rejected: the parser would keep
only the last value, so the structural gate would silently skip the rest.

Usage: compare_bench.py BASELINE CURRENT [-o REPORT.md]
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = {
    "tauhls-bench-kernels": "Kernel bench comparison",
    "tauhls-bench-pipeline": "Pipeline bench trajectory",
    "tauhls-bench-modelcheck": "Model-check bench comparison",
    "tauhls-bench-regions": "Hierarchical-regions bench comparison",
    "tauhls-bench-xcheck": "X-safety bench comparison",
}


def flatten(prefix, node, out):
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            flatten(f"{prefix}[{i}]", value, out)
    else:
        out[prefix] = node


def reject_duplicates(pairs):
    """object_pairs_hook: a repeated key would silently hide all but its
    last value from the comparison, so it is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load(path):
    with open(path) as f:
        try:
            return json.load(f, object_pairs_hook=reject_duplicates)
        except ValueError as e:
            sys.exit(f"{path}: {e}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("-o", "--output", help="markdown report path")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    schema = base.get("schema")
    if schema not in KNOWN_SCHEMAS:
        failures.append(f"{args.baseline}: unknown schema {schema!r}")
    if cur.get("schema") != schema:
        failures.append(
            f"schema mismatch: baseline={schema!r} "
            f"current={cur.get('schema')!r}")
    if base.get("version") != cur.get("version"):
        failures.append(
            f"schema version changed: {base.get('version')} -> "
            f"{cur.get('version')} (regenerate the baseline)")

    base_struct, cur_struct = {}, {}
    flatten("", base.get("structural", {}), base_struct)
    flatten("", cur.get("structural", {}), cur_struct)
    title = KNOWN_SCHEMAS.get(schema, f"Bench comparison ({schema!r})")
    lines = [f"# {title}", ""]
    lines.append("## Structural (must match the baseline)")
    lines.append("")
    lines.append("| metric | baseline | current |")
    lines.append("|---|---|---|")
    for key in sorted(set(base_struct) | set(cur_struct)):
        b = base_struct.get(key, "-")
        c = cur_struct.get(key, "-")
        marker = "" if b == c else "  <-- DRIFT"
        lines.append(f"| {key} | {b} | {c}{marker} |")
        if b != c:
            failures.append(f"structural drift: {key}: {b} -> {c}")

    base_times, cur_times = {}, {}
    flatten("", base.get("timingsMs", {}), base_times)
    flatten("", cur.get("timingsMs", {}), cur_times)
    lines.append("")
    lines.append("## Timings (informational, machine dependent)")
    lines.append("")
    lines.append("| metric | baseline ms | current ms | delta |")
    lines.append("|---|---|---|---|")
    for key in sorted(set(base_times) | set(cur_times)):
        b = base_times.get(key)
        c = cur_times.get(key)
        if isinstance(b, (int, float)) and isinstance(c, (int, float)) and b:
            delta = f"{100.0 * (c - b) / b:+.1f}%"
        else:
            delta = "-"
        lines.append(f"| {key} | {b} | {c} | {delta} |")

    lines.append("")
    if failures:
        lines.append("## Result: FAIL")
        lines.extend(f"- {f}" for f in failures)
    else:
        lines.append("## Result: OK (structural metrics match the baseline)")
    report = "\n".join(lines) + "\n"

    if args.output:
        with open(args.output, "w") as f:
            f.write(report)
    print(report, end="")

    if failures:
        print(f"\nFAIL: {len(failures)} mismatch(es)", file=sys.stderr)
        return 1
    print("\nOK: structural fields match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
