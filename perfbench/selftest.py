#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload (those named in BENCHMARK.json, then fleet_open and
durable_mixed) for one second, untraced and traced, and checks that each
run is correct and prints every metric BENCHMARK.json names, with its
unit: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Then, as a negative test, runs each workload with one
reference row perturbed and checks that the correctness gate trips: a
non-zero exit and "correct": false.

Run from the repository root:

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable but not in BENCHMARK.json (see README.md); smoke-tested too.
UNGATED_WORKLOADS = ["fleet_open", "durable_mixed"]


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("missing %s" % metric["name"])
        elif got.get("unit") != metric["unit"]:
            problems.append("%s has unit %r, expected %r"
                            % (metric["name"], got.get("unit"), metric["unit"]))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    workloads = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or result.get("correct") is not True:
                failures.append("%s: exit %d, result %r\n%s"
                                % (label, code, result, err[-2000:]))
                continue
            failures += ["%s: %s" % (label, p)
                         for p in check_metrics(result, spec[key])]
            print("ok   %s: %d metrics" % (label, len(result["metrics"])))
        code, result, err = run(workload, 0, ["--perturb-reference"])
        label = "%s --perturb-reference" % workload
        if (code == 0 or result is None or result.get("correct") is not False
                or "correctness gate failed" not in err):
            failures.append("%s: the gate did not trip (exit %d, result %r)"
                            % (label, code, result))
        else:
            print("ok   %s: gate tripped (exit %d)" % (label, code))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
