#!/usr/bin/env python3
"""Diff two run records and fail on deterministic regressions.

Usage: bench_diff.py BASELINE CURRENT [--delta OUT.json]

Both inputs are run records (schema cfc-record/1, written by
lib/base/record.ml): BENCH_{mcheck,native,scale,kv}.json and
lint_report.json.  A record names its bench, the sweep it ran (the set
of rows it covers) and a set of tables.  Each table lists its columns,
and each column declares how it is compared:

  key        part of the row's identity: rows are matched on these;
  exact      any change fails;
  no_growth  an increase fails (for booleans: false -> true), any other
             change is a note;
  no_drop    a decrease fails (for booleans: true -> false), any other
             change is a note;
  note       a change is a note;
  wall       wall clock or host-dependent: never compared;
  collapse   fails only below 1/1000 of a positive baseline (a livelock,
             not a noisy neighbour).

The baseline's declarations are the contract.  Every table of the
baseline is indexed by its key columns and each baseline row is looked
up in the current record:

  - a missing row fails when both records name the same sweep, and is a
    note otherwise (a --quick run covers a subset of the full rows);
  - a baseline table with rows of which none appear in the current
    record fails whatever the sweeps (the run checked nothing);
  - rows and columns new in the current record are notes.

Which columns the four benches and the lint report gate is written next
to the columns themselves (bench/*_bench.ml, lib/analysis/lint.ml,
lib/workload/workload_report.ml).

Exit status 0 = no regression, 1 = regression, 2 = usage/IO error, an
input that is not a run record, or records of different benches.
Stdlib only.
"""

import argparse
import json
import sys

SCHEMA = "cfc-record/1"
POLICIES = ("key", "exact", "no_growth", "no_drop", "note", "wall", "collapse")


class Malformed(Exception):
    pass


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        schema = doc.get("schema") if isinstance(doc, dict) else None
        raise Malformed(f"{path}: not a {SCHEMA} run record (schema {schema!r})")
    for t in doc["tables"].values():
        for col, policy in t["columns"].items():
            if policy not in POLICIES:
                raise Malformed(f"{path}: column {col} has unknown policy {policy!r}")
    return doc


def label(table, keys, k):
    return " ".join(
        [table] + [f"{c}={v}" for c, v in zip(keys, k) if v is not None]
    )


def compare(policy, b, c):
    """(failed, changed) for one cell under its column's policy."""
    if policy in ("key", "wall"):
        return False, False
    if policy == "collapse":
        return (b or 0) > 0 and (c or 0) * 1000 < b, False
    if b == c:
        return False, False
    if policy == "exact":
        return True, True
    ordered = b is not None and c is not None
    if policy == "no_growth":
        return not ordered or c > b, True
    if policy == "no_drop":
        return not ordered or c < b, True
    return False, True


def diff_table(name, btab, ctab, same_sweep, regressions, changes):
    cols = btab["columns"]
    keys = [c for c, p in cols.items() if p == "key"]

    def index(rows):
        out = {tuple(r[k] for k in keys): r for r in rows}
        if len(out) != len(rows):
            raise Malformed(f"table {name}: two rows share a key {keys}")
        return out

    base, cur = index(btab["rows"]), index(ctab["rows"])
    matched = 0
    for k, b in base.items():
        where = label(name, keys, k)
        c = cur.get(k)
        if c is None:
            if same_sweep:
                regressions.append(f"{where}: row disappeared from the sweep")
            else:
                changes.append(f"{where}: not in the current sweep")
            continue
        matched += 1
        for col, policy in cols.items():
            bv, cv = b.get(col), c.get(col)
            failed, changed = compare(policy, bv, cv)
            if failed:
                regressions.append(f"{where}: {col} ({policy}) {bv} -> {cv}")
            elif changed:
                changes.append(f"{where}: {col} {bv} -> {cv}")
    if btab["rows"] and not matched:
        regressions.append(
            f"{name}: none of the {len(btab['rows'])} baseline rows "
            "appear in the current record"
        )
    for k in cur:
        if k not in base:
            changes.append(f"{label(name, keys, k)}: new row")
    for col in ctab["columns"]:
        if col not in cols:
            changes.append(f"{name}: new column {col}")
    return len(btab["rows"]), len(ctab["rows"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--delta", help="write a JSON delta report here")
    args = ap.parse_args()

    try:
        base = load(args.baseline)
        cur = load(args.current)
        if base["bench"] != cur["bench"]:
            raise Malformed(
                f"records of different benches: {base['bench']} vs {cur['bench']}"
            )
        same_sweep = base["sweep"] == cur["sweep"]
        regressions, changes = [], []
        n_base = n_cur = 0
        for name, btab in base["tables"].items():
            ctab = cur["tables"].get(name, {"columns": {}, "rows": []})
            nb, nc = diff_table(name, btab, ctab, same_sweep, regressions, changes)
            n_base += nb
            n_cur += nc
        for name in cur["tables"]:
            if name not in base["tables"]:
                changes.append(f"{name}: new table")
    except (OSError, ValueError, Malformed) as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, AttributeError) as exc:
        print(f"bench_diff: malformed record ({exc!r})", file=sys.stderr)
        return 2

    report = {
        "bench": base["bench"],
        "baseline_sweep": base["sweep"],
        "current_sweep": cur["sweep"],
        "regressions": regressions,
        "changes": changes,
        "status": "fail" if regressions else "ok",
    }
    if args.delta:
        with open(args.delta, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    for line in changes:
        print(f"note: {line}")
    for line in regressions:
        print(f"REGRESSION: {line}")
    print(
        f"bench_diff: {base['bench']} ({base['sweep']} vs {cur['sweep']}): "
        f"{n_base} baseline rows, {n_cur} current, "
        f"{len(regressions)} regression(s)"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
