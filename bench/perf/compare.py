#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/perf/compare.py SET_A SET_B [--benchmark BENCHMARK.json]

Each set is a file, or a directory of files, holding the standard output
of one or more `perf.exe` runs.  For every (workload, end-to-end metric)
the script prints each set's median and quartiles, the spread (distance
between the quartiles as a share of the median) and the change of B's
median against A's, then a verdict:

  ok      both spreads within the bound (setup_s exempt) and B no worse
          than A by more than the bound
  SPREAD  a set's spread exceeds the bound
  WORSE   B's median is worse than A's by more than the bound

It also checks that every run was correct with no failed operation, and
that the pinned counts of a workload are identical in every run.  Exit
status 1 when anything fails.  Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def runs(path):
    """Yield (detail, result) for every run found under `path`."""
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path))]
        if os.path.isdir(path)
        else [path]
    )
    for name in files:
        detail = None
        with open(name) as f:
            for line in f:
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "workload" in obj:
                    detail = obj
                elif "metrics" in obj and detail is not None:
                    yield detail, obj
                    detail = None


def load(path):
    """Group the untraced runs of a set by workload."""
    by_workload = {}
    for detail, result in runs(path):
        if detail["trace"] == 0:
            by_workload.setdefault(detail["workload"], []).append((detail, result))
    return by_workload


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("set_a")
    ap.add_argument("set_b")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    sets = [load(args.set_a), load(args.set_b)]
    bad = 0
    for w in bench["workloads"]:
        name = w["name"]
        groups = [s.get(name, []) for s in sets]
        if not all(groups):
            print(f"{name}: missing runs")
            bad += 1
            continue
        everything = groups[0] + groups[1]
        if not all(r["correct"] and r["failed"] == 0 for _, r in everything):
            print(f"{name}: a run failed")
            bad += 1
        if len({json.dumps(d.get("pinned"), sort_keys=True) for d, _ in everything}) != 1:
            print(f"{name}: pinned counts differ between runs")
            bad += 1
        for m in bench["end_to_end"]:
            stats = [summary([r["metrics"][m["name"]]["value"] for _, r in g]) for g in groups]
            (ma, _, _, sa), (mb, _, _, sb) = stats
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                verdict = "SPREAD"
            if worse > m["bound"]:
                verdict = "WORSE"
            bad += verdict != "ok"
            cols = "  ".join(
                f"{med:.6g} [{q1:.6g}, {q3:.6g}] {100 * sp:5.2f}%" for med, q1, q3, sp in stats
            )
            print(
                f"{name:13} {m['name']:19} n={len(groups[0])}/{len(groups[1])}  {cols}"
                f"  change {100 * change:+6.2f}%  bound {100 * m['bound']:.0f}%  {verdict}"
            )
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
