#!/usr/bin/env python3
"""Unit tests for the bench gates. compare_bench.py: in particular the
host_cores rule — a candidate captured on fewer than N cores must not
fail the gate on */par<N> entries (an N-domain pool on fewer cores
measures scheduler contention, not the code), while serial entries keep
gating and --gate-entry still force-gates them. check_ratio.py: pass,
fail and missing-entry cases of the speedup-ratio gate. Stdlib only:

    python3 scripts/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "compare_bench.py")
RATIO_SCRIPT = os.path.join(HERE, "check_ratio.py")


def capture(entries, host_cores):
    doc = {
        "schema_version": 1,
        "kind": "bench-regress",
        "workload": "synthetic",
        "switches": [16],
        "entries": [{"name": n, "ns": ns} for n, ns in entries.items()],
    }
    if host_cores is not None:
        doc["host_cores"] = host_cores
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    return path


def run(baseline, current, *extra):
    proc = subprocess.run(
        [sys.executable, SCRIPT, baseline, current, *extra],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


BASE = {
    "mlpc.solve/16": 100e6,
    "mlpc.solve/16/par4": 40e6,
    "verify.closure/16": 50e6,
}


class TestSingleCorePar4Skip(unittest.TestCase):
    def setUp(self):
        self.paths = []

    def tearDown(self):
        for p in self.paths:
            os.unlink(p)

    def cap(self, entries, host_cores):
        p = capture(entries, host_cores)
        self.paths.append(p)
        return p

    def test_par4_regression_skipped_on_one_core(self):
        # par4 3x slower, but the candidate host has one core: pass.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("host_cores: 1", out)
        self.assertIn("(not gated)", out)

    def test_par4_regression_fails_on_multicore(self):
        # Same regression with 4 cores: the gate must trip.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 4)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("mlpc.solve/16/par4", out)

    def test_serial_regression_still_fails_on_one_core(self):
        # One core skips par4 only — serial entries keep gating.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "verify.closure/16": 200e6}, 1)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("verify.closure/16", out)

    def test_gate_entry_forces_par4_even_on_one_core(self):
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        code, out = run(base, cur, "--gate-entry", "*/par4")
        self.assertNotEqual(code, 0, out)

    def test_missing_host_cores_is_treated_as_multicore(self):
        # Old-format captures predate the field; don't silently skip.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, None)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)

    def test_all_current_files_must_be_one_core(self):
        # Min-merge of a 1-core and a 4-core capture: par4 stays gated.
        base = self.cap(BASE, 1)
        cur1 = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        cur2 = self.cap({**BASE, "mlpc.solve/16/par4": 130e6}, 4)
        code, out = run(base, cur1, cur2)
        self.assertNotEqual(code, 0, out)

    def test_clean_run_passes(self):
        base = self.cap(BASE, 1)
        cur = self.cap(BASE, 1)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)

    def test_par2_gates_at_its_scale(self):
        # /par2 strips to the /16 scale: gated under --only-switches 16
        # on a 2-core capture, not gated under --only-switches 50.
        base = self.cap({"runner.round10/16/par2": 800e6}, 2)
        cur = self.cap({"runner.round10/16/par2": 2000e6}, 2)
        code, out = run(base, cur, "--only-switches", "16")
        self.assertNotEqual(code, 0, out)
        self.assertIn("runner.round10/16/par2", out)
        code, out = run(base, cur, "--only-switches", "50")
        self.assertEqual(code, 0, out)

    def test_par8_skipped_on_two_cores(self):
        # An 8-domain pool on a 2-core host is not gated; /par2 still is.
        base = self.cap(
            {"runner.round10/16/par8": 800e6, "runner.round10/16/par2": 800e6}, 8
        )
        cur = self.cap(
            {"runner.round10/16/par8": 2000e6, "runner.round10/16/par2": 800e6}, 2
        )
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("(not gated)", out)
        cur = self.cap(
            {"runner.round10/16/par8": 800e6, "runner.round10/16/par2": 2000e6}, 2
        )
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)


class TestOneSidedEntries(unittest.TestCase):
    """Entries present in only one file are reported, never gated: a
    fresh bench entry (shard.plan/200, rulegraph.build/1000, ...) must
    not fail CI the day it is introduced, before the committed baseline
    has been recaptured — and a baseline-only entry must not fail a
    candidate measured at a smaller --switches subset."""

    def setUp(self):
        self.paths = []

    def tearDown(self):
        for p in self.paths:
            os.unlink(p)

    def cap(self, entries, host_cores=4):
        p = capture(entries, host_cores)
        self.paths.append(p)
        return p

    def test_candidate_only_entry_passes(self):
        base = self.cap(BASE)
        cur = self.cap({**BASE, "shard.plan/200": 900e6, "shard.build/1000": 1.3e9})
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("(only in current)", out)

    def test_candidate_only_entry_passes_even_if_huge(self):
        # No baseline number means no ratio — magnitude is irrelevant.
        base = self.cap(BASE)
        cur = self.cap({**BASE, "plan.full/1000": 1e15})
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)

    def test_candidate_only_entry_passes_under_only_switches(self):
        base = self.cap(BASE)
        cur = self.cap({**BASE, "shard.plan/200": 900e6})
        code, out = run(base, cur, "--only-switches", "200")
        self.assertEqual(code, 0, out)

    def test_baseline_only_entry_passes(self):
        # Candidate measured at a subset of the baseline's scales.
        base = self.cap({**BASE, "plan.full/200": 2.6e9})
        cur = self.cap(BASE)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("(only in baseline)", out)

    def test_shared_entries_still_gate_alongside_one_sided(self):
        # Tolerating new names must not blunt the gate on shared ones.
        base = self.cap(BASE)
        cur = self.cap({**BASE, "verify.closure/16": 200e6, "shard.plan/200": 900e6})
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("verify.closure/16", out)


def run_ratio(capture_path, *args):
    proc = subprocess.run(
        [sys.executable, RATIO_SCRIPT, capture_path, *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


class TestCheckRatio(unittest.TestCase):
    """check_ratio.py gates NUM/DEN >= --min-ratio and the presence of
    every --require entry."""

    ENTRIES = {
        "plan.full/200": 6e9,
        "shard.plan/200": 2.5e9,
        "shard.build/1000": 3.3e9,
    }

    def setUp(self):
        self.path = capture(self.ENTRIES, 1)

    def tearDown(self):
        os.unlink(self.path)

    def test_ratio_above_bound_passes(self):
        code, out = run_ratio(
            self.path, "plan.full/200", "shard.plan/200", "--min-ratio", "2",
            "--require", "shard.build/1000",
        )
        self.assertEqual(code, 0, out)
        self.assertIn("2.40x", out)

    def test_ratio_below_bound_fails(self):
        code, out = run_ratio(
            self.path, "plan.full/200", "shard.plan/200", "--min-ratio", "3"
        )
        self.assertNotEqual(code, 0, out)
        self.assertIn("need 3.00x", out)

    def test_missing_ratio_entry_fails(self):
        code, out = run_ratio(
            self.path, "plan.full/50", "plan.edit/50", "--min-ratio", "10"
        )
        self.assertNotEqual(code, 0, out)
        self.assertIn("missing entries: plan.full/50, plan.edit/50", out)

    def test_missing_required_entry_fails(self):
        code, out = run_ratio(
            self.path, "plan.full/200", "shard.plan/200", "--min-ratio", "2",
            "--require", "shard.plan/1000",
        )
        self.assertNotEqual(code, 0, out)
        self.assertIn("missing entries: shard.plan/1000", out)


if __name__ == "__main__":
    unittest.main()
