#!/usr/bin/env python3
"""Assert what a `tauhlsc lint --lint-json` report must show, per lint mode.

Belt and braces on top of tauhlsc's exit code, which already fails on any
error-severity diagnostic.  Every mode checks that the document is a
"tauhls-lint" report with zero errors and prints a one-line summary; the
mode adds its own assertions:

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

Usage: check_lint_json.py MODE [--expect RULE=N ...] REPORT.json [...]
Exits 1 with the first failed assertion.
"""

import argparse
import json
import sys

MIN_VERSION = {"model-check": 4, "xprop": 5}


def check(path, mode, expect):
    report = json.load(open(path))
    if report.get("schema") != "tauhls-lint":
        return f"{path}: not a tauhls-lint report"
    if report["version"] < MIN_VERSION.get(mode, 0):
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode",
                        choices=["equiv", "model-check", "regions", "xprop"])
    parser.add_argument("--expect", action="append", default=[],
                        metavar="RULE=N")
    parser.add_argument("reports", nargs="+")
    args = parser.parse_args()
    expect = {}
    for item in args.expect:
        rule, _, count = item.partition("=")
        expect[rule] = int(count)
    for path in args.reports:
        failure = check(path, args.mode, expect)
        if failure:
            sys.exit(failure)


if __name__ == "__main__":
    main()
