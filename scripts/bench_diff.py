#!/usr/bin/env python3
"""Diff two bench JSON files and fail on deterministic regressions.

Usage: bench_diff.py BASELINE CURRENT [--delta OUT.json]

Both inputs must carry the same kind of schema; the mode is picked from
it automatically.

cfc-mcheck-bench (BENCH_mcheck.json, schema /4): verdicts, state counts
and prune counts are deterministic (seeded exploration, fixed configs),
so against a committed baseline:

  - a verdict change on any (name, kind, engine, n, extra) entry fails;
  - growth in states explored fails (the memoization, the partial-order
    reduction or the symmetry canonicalisation lost ground);
  - an entry present in the baseline but missing from the current run
    fails (a silent sweep cap crept back in);
  - an exhaustive baseline entry coming back truncated fails — this is
    the n=4 tournament-lock headline gate (the bench itself also
    refuses to write such a row);
  - any change of runs, pruned_dedup, pruned_sym, pruned_por,
    fp_collisions or seen_pop fails: a search cut off at the state cap
    keeps its states count while the path it took changes, and these
    counts are what shows it;
  - new entries and wall-time changes are reported, never asserted
    (CI runners are noisy).

cfc-native-bench (BENCH_native.json): wall-clock columns are noisy on CI
runners and never asserted, but two families of fields are deterministic
and gated on every row present in both files (a --quick run sweeps a
subset of the full baseline, so missing rows are only noted):

  - "entries": an exclusion_ok flip fails (the witness saw a lost
    update);
  - "recoverable": an exclusion_ok flip under crash injection, growth of
    recovery_rmr_max (the cold-cache recovery path got more expensive),
    or a change of predicted_rmr_held (the closed form silently moved)
    fails.

cfc-kv-bench (BENCH_kv.json): the sharded KV service on two drivers.

  - "wheel_entries" keyed (name, clients, theta, mix) are fully
    deterministic (seeded wheel runs) except wall_s: a nonzero
    lost_updates/torn_scans fails (a bucket lock dropped a mutation), a
    growth of entry_steps_max fails, any other deterministic field
    change is noted; a baseline row missing from the current run fails
    when both files were produced in the same mode (same "quick" flag)
    and is a note otherwise (full baselines carry 4096-client rows a
    --quick CI run does not sweep);
  - "native_entries" keyed (name, domains, theta, mix): an exclusion_ok
    flip fails; throughput is wall-clock and CI schedulers routinely
    swing it 100x, so only a 1000x collapse against the baseline fails
    (the total-collapse detector — a livelocked lock, not a noisy
    neighbour);
  - a determinism_ok flip to false fails on its own.

cfc-scale-bench (BENCH_scale.json): everything except wall_s is
deterministic (seeded wheel runs, exact streaming measures), and a
--quick run sweeps a subset of the n values, so missing rows are notes
and rows present in both files are gated:

  - "cf_entries" keyed (name, n): an ok flip or a false ok fails (a
    measured contention-free count diverged from the registered closed
    form); any change of cf_steps or cf_registers fails (the solo path
    itself moved — intentional algorithm changes must refresh the
    baseline);
  - "chaos_entries" keyed (name, n): growth of entry_steps_max or
    recovery_rmr_max fails (the crash-recovery curve regressed); other
    deterministic field changes are noted;
  - a determinism_ok flip to false fails on its own.

cfc-lint (lint_report.json): the static-analysis verdicts are fully
deterministic, so every change against the committed baseline is
intentional or a regression.  Subjects are keyed (family, name, config):

  - a subject present in the baseline but missing from the current
    report fails (the battery silently shrank);
  - a flip of liveness or spin_class fails;
  - growth of the harmful race count fails (total race count changes
    are notes — adding a register legitimately adds Sync pairs);
  - a register vanishing or changing its required semantics
    (safe/regular/atomic) fails;
  - growth of a subject's error-severity violation count, or of the
    report-wide error total, fails;
  - new subjects and new registers are notes.

Exit status 0 = no regression, 1 = regression, 2 = usage/IO error.
Stdlib only.
"""

import argparse
import json
import sys


def key(entry):
    extra = tuple(
        sorted(
            (k, v)
            for k, v in entry.items()
            if k
            not in (
                "name",
                "kind",
                "engine",
                "n",
                "verdict",
                "runs",
                "states",
                "pruned",
                "pruned_dedup",
                "pruned_sym",
                "pruned_por",
                "fp_collisions",
                "seen_pop",
                "seen_cap",
                "truncated",
                "trunc_reason",
                "wall_s",
                "wall_hint_s",
                "states_per_sec",
            )
        )
    )
    return (entry["name"], entry["kind"], entry["engine"], entry["n"], extra)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc


def index(rows, key_fn):
    out = {}
    for e in rows:
        out[key_fn(e)] = e
    return out


# Deterministic counts of a model-checker row that must not move at all.
MCHECK_EXACT = (
    "runs",
    "pruned_dedup",
    "pruned_sym",
    "pruned_por",
    "fp_collisions",
    "seen_pop",
)


def diff_mcheck(base_doc, cur_doc, regressions, changes):
    base = index(base_doc.get("entries", []), key)
    cur = index(cur_doc.get("entries", []), key)

    for k, b in sorted(base.items()):
        label = "{} {} engine={} n={} {}".format(*k)
        c = cur.get(k)
        if c is None:
            regressions.append(f"{label}: entry disappeared from the sweep")
            continue
        if c["verdict"] != b["verdict"]:
            regressions.append(
                f"{label}: verdict {b['verdict']} -> {c['verdict']}"
            )
        if c["states"] > b["states"]:
            regressions.append(
                f"{label}: states explored grew {b['states']} -> {c['states']}"
            )
        elif c["states"] != b["states"]:
            changes.append(
                f"{label}: states {b['states']} -> {c['states']}"
            )
        if c.get("truncated") and not b.get("truncated"):
            regressions.append(
                f"{label}: now truncated ({c.get('trunc_reason', '?')})"
            )
        for field in MCHECK_EXACT:
            if field in b and field in c and c[field] != b[field]:
                regressions.append(
                    f"{label}: {field} changed {b[field]} -> {c[field]}"
                )

    added = [k for k in cur if k not in base]
    for k in sorted(added):
        changes.append("{} {} engine={} n={} {}: new entry".format(*k))
    return len(base), len(cur)


# The native sweep's size depends on the run mode (--quick sweeps fewer
# domain counts and rounds than the committed full baseline), so keys
# deliberately exclude [rounds] and a baseline row absent from the
# current run is a note, not a failure.  Only rows present in both are
# gated, and only on their deterministic fields.
def native_entry_key(e):
    return (e["name"], e["domains"], e["mean_think"])


def native_rec_key(e):
    return (e["name"], e["domains"], e["crash_every"])


def diff_native(base_doc, cur_doc, regressions, changes):
    base = index(base_doc.get("entries", []), native_entry_key)
    cur = index(cur_doc.get("entries", []), native_entry_key)
    for k, b in sorted(base.items()):
        label = "{} domains={} think={}".format(*k)
        c = cur.get(k)
        if c is None:
            changes.append(f"{label}: not in current sweep (mode mismatch?)")
            continue
        if b["exclusion_ok"] and not c["exclusion_ok"]:
            regressions.append(f"{label}: exclusion_ok flipped true -> false")
    for k in sorted(set(cur) - set(base)):
        changes.append("{} domains={} think={}: new entry".format(*k))

    rbase = index(base_doc.get("recoverable", []), native_rec_key)
    rcur = index(cur_doc.get("recoverable", []), native_rec_key)
    for k, b in sorted(rbase.items()):
        label = "recoverable {} domains={} crash_every={}".format(*k)
        c = rcur.get(k)
        if c is None:
            changes.append(f"{label}: not in current sweep (mode mismatch?)")
            continue
        if b["exclusion_ok"] and not c["exclusion_ok"]:
            regressions.append(
                f"{label}: exclusion_ok flipped true -> false under crashes"
            )
        if c["recovery_rmr_max"] > b["recovery_rmr_max"]:
            regressions.append(
                f"{label}: recovery_rmr_max grew "
                f"{b['recovery_rmr_max']} -> {c['recovery_rmr_max']}"
            )
        if c["predicted_rmr_held"] != b["predicted_rmr_held"]:
            regressions.append(
                f"{label}: predicted_rmr_held changed "
                f"{b['predicted_rmr_held']} -> {c['predicted_rmr_held']}"
            )
        if c["recoveries"] != b["recoveries"]:
            changes.append(
                f"{label}: recoveries {b['recoveries']} -> {c['recoveries']}"
            )
    for k in sorted(set(rcur) - set(rbase)):
        changes.append(
            "recoverable {} domains={} crash_every={}: new entry".format(*k)
        )
    return len(base) + len(rbase), len(cur) + len(rcur)


def scale_key(e):
    return (e["name"], e["n"])


def diff_scale(base_doc, cur_doc, regressions, changes):
    base = index(base_doc.get("cf_entries", []), scale_key)
    cur = index(cur_doc.get("cf_entries", []), scale_key)
    for k, b in sorted(base.items()):
        label = "cf {} n={}".format(*k)
        c = cur.get(k)
        if c is None:
            changes.append(f"{label}: not in current sweep (mode mismatch?)")
            continue
        if not c["ok"]:
            regressions.append(
                f"{label}: closed-form mismatch (cf_steps={c['cf_steps']} "
                f"predicted={c['predicted_steps']}, "
                f"cf_registers={c['cf_registers']} "
                f"predicted={c['predicted_registers']})"
            )
        for field in ("cf_steps", "cf_registers"):
            if c[field] != b[field]:
                regressions.append(
                    f"{label}: {field} changed {b[field]} -> {c[field]} "
                    f"(solo path moved; refresh the baseline if intended)"
                )
    for k in sorted(set(cur) - set(base)):
        changes.append("cf {} n={}: new entry".format(*k))

    cbase = index(base_doc.get("chaos_entries", []), scale_key)
    ccur = index(cur_doc.get("chaos_entries", []), scale_key)
    for k, b in sorted(cbase.items()):
        label = "chaos {} n={}".format(*k)
        c = ccur.get(k)
        if c is None:
            changes.append(f"{label}: not in current sweep (mode mismatch?)")
            continue
        for field in ("entry_steps_max", "recovery_rmr_max"):
            if c[field] > b[field]:
                regressions.append(
                    f"{label}: {field} grew {b[field]} -> {c[field]}"
                )
        for field in (
            "acquisitions",
            "crashes",
            "recoveries",
            "recovery_steps_max",
            "events",
            "spawned",
            "live_peak",
        ):
            if c[field] != b[field]:
                changes.append(
                    f"{label}: {field} {b[field]} -> {c[field]}"
                )
    for k in sorted(set(ccur) - set(cbase)):
        changes.append("chaos {} n={}: new entry".format(*k))

    if not cur_doc.get("determinism_ok", True):
        regressions.append(
            "determinism_ok is false: same seed no longer reproduces the "
            "chaos run bit for bit"
        )
    return len(base) + len(cbase), len(cur) + len(ccur)


def kv_wheel_key(e):
    return (e["name"], e["clients"], e["theta"], e["mix"])


def kv_native_key(e):
    return (e["name"], e["domains"], e["theta"], e["mix"])


KV_WHEEL_DET_FIELDS = (
    "ops",
    "acquisitions",
    "hot_share",
    "turns",
    "total_steps",
    "spawned",
    "live_peak",
)


def diff_kv(base_doc, cur_doc, regressions, changes):
    same_mode = base_doc.get("quick") == cur_doc.get("quick")
    base = index(base_doc.get("wheel_entries", []), kv_wheel_key)
    cur = index(cur_doc.get("wheel_entries", []), kv_wheel_key)
    for k, b in sorted(base.items()):
        label = "kv wheel {} clients={} theta={} mix={}".format(*k)
        c = cur.get(k)
        if c is None:
            if same_mode:
                regressions.append(f"{label}: entry disappeared from the sweep")
            else:
                changes.append(f"{label}: not in current sweep (mode differs)")
            continue
        if c["lost_updates"] != 0 or c["torn_scans"] != 0:
            regressions.append(
                f"{label}: witness failure (lost_updates={c['lost_updates']} "
                f"torn_scans={c['torn_scans']})"
            )
        if c["entry_steps_max"] > b["entry_steps_max"]:
            regressions.append(
                f"{label}: entry_steps_max grew "
                f"{b['entry_steps_max']} -> {c['entry_steps_max']}"
            )
        elif c["entry_steps_max"] != b["entry_steps_max"]:
            changes.append(
                f"{label}: entry_steps_max "
                f"{b['entry_steps_max']} -> {c['entry_steps_max']}"
            )
        for field in KV_WHEEL_DET_FIELDS:
            if c[field] != b[field]:
                changes.append(f"{label}: {field} {b[field]} -> {c[field]}")
    for k in sorted(set(cur) - set(base)):
        changes.append("kv wheel {} clients={} theta={} mix={}: new entry".format(*k))

    nbase = index(base_doc.get("native_entries", []), kv_native_key)
    ncur = index(cur_doc.get("native_entries", []), kv_native_key)
    for k, b in sorted(nbase.items()):
        label = "kv native {} domains={} theta={} mix={}".format(*k)
        c = ncur.get(k)
        if c is None:
            if same_mode:
                regressions.append(f"{label}: entry disappeared from the sweep")
            else:
                changes.append(f"{label}: not in current sweep (mode differs)")
            continue
        if b["exclusion_ok"] and not c["exclusion_ok"]:
            regressions.append(f"{label}: exclusion_ok flipped true -> false")
        if b["throughput"] > 0 and c["throughput"] * 1000 < b["throughput"]:
            regressions.append(
                f"{label}: throughput collapsed "
                f"{b['throughput']:.0f} -> {c['throughput']:.0f} ops/s (>1000x)"
            )
    for k in sorted(set(ncur) - set(nbase)):
        changes.append(
            "kv native {} domains={} theta={} mix={}: new entry".format(*k)
        )

    if not cur_doc.get("determinism_ok", True):
        regressions.append(
            "determinism_ok is false: same seed no longer reproduces the "
            "wheel KV run bit for bit"
        )
    return len(base) + len(nbase), len(cur) + len(ncur)


def lint_key(e):
    return (e["family"], e["name"], e["config"])


def diff_lint(base_doc, cur_doc, regressions, changes):
    base = index(base_doc.get("subjects", []), lint_key)
    cur = index(cur_doc.get("subjects", []), lint_key)
    for k, b in sorted(base.items()):
        label = "lint {} {} [{}]".format(*k)
        c = cur.get(k)
        if c is None:
            regressions.append(f"{label}: subject vanished from the battery")
            continue
        for field in ("liveness", "spin_class"):
            if c[field] != b[field]:
                regressions.append(
                    f"{label}: {field} flipped {b[field]} -> {c[field]}"
                )
        if c["races"]["harmful"] > b["races"]["harmful"]:
            regressions.append(
                f"{label}: harmful races grew "
                f"{b['races']['harmful']} -> {c['races']['harmful']}"
            )
        if c["races"]["total"] != b["races"]["total"]:
            changes.append(
                f"{label}: race count {b['races']['total']} -> "
                f"{c['races']['total']}"
            )
        bsem = {r["name"]: r["semantics"] for r in b.get("registers", [])}
        csem = {r["name"]: r["semantics"] for r in c.get("registers", [])}
        for name, sem in sorted(bsem.items()):
            if name not in csem:
                regressions.append(f"{label}: register {name} vanished")
            elif csem[name] != sem:
                regressions.append(
                    f"{label}: register {name} semantics flipped "
                    f"{sem} -> {csem[name]}"
                )
        for name in sorted(set(csem) - set(bsem)):
            changes.append(f"{label}: new register {name} ({csem[name]})")
        berr = sum(
            1 for v in b.get("violations", []) if v["severity"] == "error"
        )
        cerr = sum(
            1 for v in c.get("violations", []) if v["severity"] == "error"
        )
        if cerr > berr:
            regressions.append(
                f"{label}: error violations grew {berr} -> {cerr}"
            )
    for k in sorted(set(cur) - set(base)):
        changes.append("lint {} {} [{}]: new subject".format(*k))
    if cur_doc.get("errors", 0) > base_doc.get("errors", 0):
        regressions.append(
            f"lint: report-wide errors grew {base_doc.get('errors', 0)} -> "
            f"{cur_doc.get('errors', 0)}"
        )
    return len(base), len(cur)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--delta", help="write a JSON delta report here")
    args = ap.parse_args()

    try:
        base_doc = load(args.baseline)
        cur_doc = load(args.current)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_diff: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    base_schema = base_doc.get("schema", "?")
    cur_schema = cur_doc.get("schema", "?")
    base_family = base_schema.split("/")[0]
    if base_family != cur_schema.split("/")[0]:
        print(
            f"bench_diff: schema mismatch {base_schema} vs {cur_schema}",
            file=sys.stderr,
        )
        return 2

    regressions = []
    changes = []
    try:
        if base_family == "cfc-native-bench":
            n_base, n_cur = diff_native(base_doc, cur_doc, regressions, changes)
        elif base_family == "cfc-scale-bench":
            n_base, n_cur = diff_scale(base_doc, cur_doc, regressions, changes)
        elif base_family == "cfc-kv-bench":
            n_base, n_cur = diff_kv(base_doc, cur_doc, regressions, changes)
        elif base_family == "cfc-lint":
            n_base, n_cur = diff_lint(base_doc, cur_doc, regressions, changes)
        else:
            n_base, n_cur = diff_mcheck(base_doc, cur_doc, regressions, changes)
    except KeyError as exc:
        print(f"bench_diff: malformed entry, missing {exc}", file=sys.stderr)
        return 2

    report = {
        "baseline_schema": base_schema,
        "current_schema": cur_schema,
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
        f"bench_diff: {n_base} baseline entries, {n_cur} current, "
        f"{len(regressions)} regression(s)"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
