#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE NEW [--manifest BENCHMARK.json]

BASE and NEW are saved standard output of runs, appended one after
another (run.sh ... >> base.log); the lines that start with
"perfbench-record " are the records.  Runs are paired in file order, so
alternate the parent and the change when collecting them.

For each workload and metric it prints each side's median and quartiles
and a verdict:

  improved    the change wins at least nine tenths of the pairs (ties
              count for neither) and the medians are further apart than
              the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics), or it loses nine
              tenths of the pairs by more than the parent's spread
              (per-layer metrics, which have no bound)
  unchanged   within the bound, and the parent's spread is within it too
  unresolved  anything else: the runs are too noisy to tell

Exit status: 1 when any end-to-end metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys

PREFIX = "perfbench-record "


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith(PREFIX):
                line = line[len(PREFIX):]
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" not in rec:
                continue
            key = (rec["workload"], bool(rec.get("trace")))
            runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, lower_is_better, bound):
    """The verdict for one metric, given paired runs in order."""
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    parent_spread = bq3 - bq1
    pairs = list(zip(base, new))
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    apart = abs(nmed - bmed) > parent_spread
    if pairs and wins >= 0.9 * len(pairs) and apart and sign * (bmed - nmed) > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and apart and sign * (nmed - bmed) > 0:
            return "worse"
        return "unresolved"
    if bmed == 0:
        return "unresolved"
    change = sign * (nmed - bmed) / abs(bmed)
    if change > bound:
        return "worse"
    if parent_spread / abs(bmed) > bound:
        return "unresolved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--manifest", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.manifest) as f:
        manifest = json.load(f)
    declared = {}
    for m in manifest["end_to_end"]:
        declared[m["name"]] = (m["better"] == "lower", m["bound"])
    for m in manifest["per_layer"]:
        declared[m["name"]] = (m["better"] == "lower", None)
    base, new = load(args.base), load(args.new)
    regressed = False
    header = "%-18s %-40s %10s %26s %26s  %s" % (
        "workload", "metric", "pairs", "base q1/median/q3", "new q1/median/q3", "verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        b_runs, n_runs = base[key], new[key]
        names = [n for n in b_runs[0]["metrics"] if n in declared]
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            lower, bound = declared[name]
            v = verdict(bv, nv, lower, bound)
            regressed = regressed or (v == "worse" and bound is not None)
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-18s %-40s %10d %26s %26s  %s" % (
                workload + (" (traced)" if traced else ""), name, min(len(bv), len(nv)),
                fmt(quartiles(bv)), fmt(quartiles(nv)), v))
    for key in sorted(set(base) ^ set(new)):
        print("%s%s: runs on one side only" % (key[0], " (traced)" if key[1] else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
