#!/usr/bin/env python3
"""Self-test of the diff gate: every gate bench_diff.py enforces must trip
on a doctored copy of the committed record it guards, and each committed
record must pass against itself.

Run from anywhere: python3 scripts/test_bench_diff.py
Stdlib only.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPT = os.path.join(HERE, "bench_diff.py")
RECORDS = {
    "mcheck": "BENCH_mcheck.json",
    "native": "BENCH_native.json",
    "scale": "BENCH_scale.json",
    "kv": "BENCH_kv.json",
    "lint": "lint_report.json",
}


def committed(bench):
    with open(os.path.join(ROOT, RECORDS[bench]), encoding="utf-8") as f:
        return json.load(f)


def rows(doc, table):
    return doc["tables"][table]["rows"]


def first(doc, table, **match):
    for r in rows(doc, table):
        if all(r[k] == v for k, v in match.items()):
            return r
    raise AssertionError(f"no {table} row matching {match}")


def run(base, cur):
    """Exit status and stdout of bench_diff.py on two documents."""
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, doc in (("base.json", base), ("cur.json", cur)):
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        p = subprocess.run(
            [sys.executable, SCRIPT] + paths, capture_output=True, text=True
        )
        return p.returncode, p.stdout + p.stderr


class DiffGate(unittest.TestCase):
    def assertTrips(self, base, cur, *fragments):
        rc, out = run(base, cur)
        self.assertEqual(rc, 1, out)
        failed = [l for l in out.splitlines() if l.startswith("REGRESSION:")]
        for frag in fragments:
            self.assertTrue(any(frag in l for l in failed), f"{frag!r} not in\n{out}")

    def assertPasses(self, base, cur):
        rc, out = run(base, cur)
        self.assertEqual(rc, 0, out)
        return out

    def doctor(self, bench, table, change, **match):
        base = committed(bench)
        cur = copy.deepcopy(base)
        change(first(cur, table, **match))
        return base, cur

    # -- clean passes ----------------------------------------------------

    def test_committed_records_pass_against_themselves(self):
        for bench in RECORDS:
            with self.subTest(bench=bench):
                doc = committed(bench)
                self.assertEqual(doc["bench"], bench)
                self.assertIn("0 regression(s)", self.assertPasses(doc, doc))

    def test_wall_columns_never_compared(self):
        base, cur = self.doctor(
            "mcheck", "entries", lambda r: r.update(wall_s=r["wall_s"] * 100)
        )
        self.assertPasses(base, cur)

    # -- mcheck ----------------------------------------------------------

    def test_mcheck_verdict_flip(self):
        base, cur = self.doctor(
            "mcheck", "entries", lambda r: r.update(verdict="violation"),
            verdict="ok",
        )
        self.assertTrips(base, cur, "verdict (exact) ok -> violation")

    def test_mcheck_states_growth(self):
        base, cur = self.doctor(
            "mcheck", "entries", lambda r: r.update(states=r["states"] + 1)
        )
        self.assertTrips(base, cur, "states (no_growth)")

    def test_mcheck_states_shrink_is_a_note(self):
        base, cur = self.doctor(
            "mcheck", "entries", lambda r: r.update(states=r["states"] - 1)
        )
        self.assertIn("note:", self.assertPasses(base, cur))

    def test_mcheck_exact_counts(self):
        for field in ("runs", "pruned_dedup", "pruned_sym", "pruned_por",
                      "fp_collisions", "seen_pop"):
            with self.subTest(field=field):
                base, cur = self.doctor(
                    "mcheck", "entries", lambda r: r.update({field: r[field] + 1})
                )
                self.assertTrips(base, cur, f"{field} (exact)")

    def test_mcheck_newly_truncated(self):
        base, cur = self.doctor(
            "mcheck", "entries", lambda r: r.update(truncated=True),
            truncated=False,
        )
        self.assertTrips(base, cur, "truncated (no_growth) False -> True")

    # -- native ----------------------------------------------------------

    def test_native_exclusion_flip(self):
        for table in ("entries", "recoverable"):
            with self.subTest(table=table):
                base, cur = self.doctor(
                    "native", table, lambda r: r.update(exclusion_ok=False)
                )
                self.assertTrips(base, cur, "exclusion_ok (no_drop)")

    def test_native_recovery_rmr_growth(self):
        base, cur = self.doctor(
            "native", "recoverable",
            lambda r: r.update(recovery_rmr_max=r["recovery_rmr_max"] + 1),
        )
        self.assertTrips(base, cur, "recovery_rmr_max (no_growth)")

    def test_native_predicted_rmr_change(self):
        base, cur = self.doctor(
            "native", "recoverable",
            lambda r: r.update(predicted_rmr_held=r["predicted_rmr_held"] - 1),
        )
        self.assertTrips(base, cur, "predicted_rmr_held (exact)")

    # -- scale -----------------------------------------------------------

    def test_scale_solo_path_moved(self):
        for field in ("cf_steps", "cf_registers"):
            with self.subTest(field=field):
                base, cur = self.doctor(
                    "scale", "cf_entries", lambda r: r.update({field: r[field] - 1})
                )
                self.assertTrips(base, cur, f"{field} (exact)")

    def test_scale_ok_flip(self):
        base, cur = self.doctor("scale", "cf_entries", lambda r: r.update(ok=False))
        self.assertTrips(base, cur, "ok (no_drop) True -> False")

    def test_scale_chaos_entry_growth(self):
        base, cur = self.doctor(
            "scale", "chaos_entries",
            lambda r: r.update(entry_steps_max=r["entry_steps_max"] + 1),
        )
        self.assertTrips(base, cur, "entry_steps_max (no_growth)")

    # -- kv --------------------------------------------------------------

    def test_kv_lost_update(self):
        for table in ("wheel_entries", "native_entries"):
            with self.subTest(table=table):
                base, cur = self.doctor(
                    "kv", table, lambda r: r.update(lost_updates=1)
                )
                self.assertTrips(base, cur, "lost_updates (no_growth) 0 -> 1")

    def test_kv_throughput_collapse(self):
        base, cur = self.doctor(
            "kv", "native_entries",
            lambda r: r.update(throughput=r["throughput"] / 2000),
        )
        self.assertTrips(base, cur, "throughput (collapse)")
        base, cur = self.doctor(
            "kv", "native_entries",
            lambda r: r.update(throughput=r["throughput"] / 100),
        )
        self.assertPasses(base, cur)

    # -- any bench -------------------------------------------------------

    def test_determinism_flip(self):
        for bench in ("scale", "kv"):
            with self.subTest(bench=bench):
                base, cur = self.doctor(
                    bench, "summary", lambda r: r.update(determinism_ok=False)
                )
                self.assertTrips(base, cur, "determinism_ok (no_drop)")

    def test_missing_row(self):
        base = committed("kv")
        cur = copy.deepcopy(base)
        gone = rows(cur, "wheel_entries").pop()
        self.assertTrips(base, cur, "row disappeared from the sweep")
        cur["sweep"] = "other"
        out = self.assertPasses(base, cur)
        self.assertIn("not in the current sweep", out)
        self.assertIn(f"clients={gone['clients']}", out)

    def test_table_with_no_matching_row(self):
        base = committed("kv")
        cur = copy.deepcopy(base)
        cur["sweep"] = "other"
        cur["tables"]["wheel_entries"]["rows"] = []
        self.assertTrips(base, cur, "wheel_entries: none of the")
        del cur["tables"]["wheel_entries"]
        self.assertTrips(base, cur, "wheel_entries: none of the")

    def test_not_a_record(self):
        base = committed("kv")
        old = {"schema": "cfc-kvv-bench/1", "wheel_entries": [{"name": "x"}]}
        for bad in (old, {"entries": []}, [], dict(base, schema="cfc-record/0")):
            with self.subTest(bad=str(bad)[:40]):
                self.assertEqual(run(bad, base)[0], 2)
                self.assertEqual(run(base, bad)[0], 2)
        self.assertEqual(run(old, {})[0], 2)

    def test_different_benches(self):
        base = committed("kv")
        rc, out = run(base, dict(base, bench="scale"))
        self.assertEqual(rc, 2, out)

    def test_unknown_policy(self):
        base = committed("kv")
        cur = copy.deepcopy(base)
        cur["tables"]["summary"]["columns"]["determinism_ok"] = "sometimes"
        self.assertEqual(run(base, cur)[0], 2)

    def test_duplicate_key(self):
        base = committed("kv")
        cur = copy.deepcopy(base)
        wheel = rows(cur, "wheel_entries")
        wheel.append(copy.deepcopy(wheel[0]))
        self.assertEqual(run(base, cur)[0], 2)

    # -- lint ------------------------------------------------------------

    def test_lint_verdict_flips(self):
        for field, value in (("liveness", "deadlock-risk"),
                             ("spin_class", "unbounded")):
            with self.subTest(field=field):
                base, cur = self.doctor(
                    "lint", "subjects", lambda r: r.update({field: value})
                )
                self.assertTrips(base, cur, f"{field} (exact)")

    def test_lint_harmful_race_growth(self):
        base, cur = self.doctor(
            "lint", "subjects",
            lambda r: r.update(races_harmful=r["races_harmful"] + 1),
        )
        self.assertTrips(base, cur, "races_harmful (no_growth)")
        base, cur = self.doctor(
            "lint", "subjects",
            lambda r: r.update(races_total=r["races_total"] + 1),
        )
        self.assertPasses(base, cur)

    def test_lint_register_vanishes_or_changes(self):
        base = committed("lint")
        cur = copy.deepcopy(base)
        gone = rows(cur, "registers").pop(0)
        self.assertTrips(
            base, cur, f"register={gone['register']}: row disappeared"
        )
        base, cur = self.doctor(
            "lint", "registers", lambda r: r.update(semantics="safe-ok")
        )
        self.assertTrips(base, cur, "semantics (exact)")

    def test_lint_error_growth(self):
        base, cur = self.doctor("lint", "subjects", lambda r: r.update(errors=1))
        self.assertTrips(base, cur, "errors (no_growth) 0 -> 1")
        base, cur = self.doctor("lint", "summary", lambda r: r.update(errors=1))
        self.assertTrips(base, cur, "summary: errors (no_growth) 0 -> 1")


if __name__ == "__main__":
    unittest.main()
