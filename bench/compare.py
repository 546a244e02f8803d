"""Compare two result sets of the benchmark, for example a parent commit and
a change measured on the same machine with the same benchmark code.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py`` writes (.bench_results/ by
default).  The metrics and their bounds are read from the tree's
BENCHMARK.json.  Untraced records give the end-to-end metrics; runs of the two
sides are paired by seed.  For every workload and metric the report gives
each side's median and quartiles, the share of pairs the change won (ties
count for neither side), and a verdict by the rules of the benchmark:

- unresolved: the parent's own spread (quartile distance over median) is
  wider than the metric's bound, and not every change run beats every
  parent run;
- improved: at least ten pairs, the change wins at least nine tenths of
  them, and the medians differ by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no worse: otherwise.

The share of failed operations is compared as well; a change that fails a
larger share is worse.  Exit status is 1 when any verdict is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(directory):
    """Untraced run records of a result set, by workload then seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") != 0:
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """(verdict, share of pairs won) for paired lists of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    spread = (q3 - q1) / abs(med_p) if med_p else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    if len(parent) >= 10 and share >= 0.9 and abs(med_c - med_p) > q3 - q1:
        if sign * (med_c - med_p) > 0:
            return "improved", share
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse", share
    return "no worse", share


def environments(runs):
    keys = ("git_sha", "python", "numpy", "nproc")
    seen = {tuple(rec["environment"].get(k) for k in keys)
            for by_seed in runs.values() for rec in by_seed.values()}
    return [dict(zip(keys, env)) for env in sorted(seen, key=str)]


def main(argv=None):
    ap = argparse.ArgumentParser(description="compare two benchmark result sets")
    ap.add_argument("parent")
    ap.add_argument("change")
    ns = ap.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    parent, change = load(ns.parent), load(ns.change)
    print("parent:", environments(parent))
    print("change:", environments(change))
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print(f"\n{workload}: no seeds measured on both sides")
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        print(f"\n{workload}: {len(seeds)} paired runs, seeds {seeds}")
        print(f"  {'metric':30s} {'parent q1/med/q3':>36s} {'change q1/med/q3':>36s} "
              f"{'won':>5s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            v, share = verdict(p, c, m["better"], m["bound"])
            any_worse |= v == "worse"
            fmt = "{:11.5g} {:11.5g} {:11.5g}"
            print(f"  {name:30s} {fmt.format(*quartiles(p)):>36s} "
                  f"{fmt.format(*quartiles(c)):>36s} {share:5.2f}  {v}")
        p_share = sum(r["result"]["failed"] for r in p_runs) / \
            sum(r["result"]["attempted"] for r in p_runs)
        c_share = sum(r["result"]["failed"] for r in c_runs) / \
            sum(r["result"]["attempted"] for r in c_runs)
        v = "worse" if c_share > p_share else ("improved" if c_share < p_share
                                                else "no worse")
        any_worse |= v == "worse"
        wrong = [r["seed"] for r in c_runs if not r["result"]["correct"]]
        print(f"  {'failed share':30s} {p_share:36.5f} {c_share:36.5f} {'':5s}  {v}")
        if wrong:
            any_worse = True
            print(f"  change produced wrong output on seeds {wrong}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
