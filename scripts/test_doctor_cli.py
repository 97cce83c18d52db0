#!/usr/bin/env python3
"""Exit-code regression test for the `drx doctor` CLI, run from ctest.

Usage: test_doctor_cli.py <path-to-drx>

Locks in the documented contract (tools/drx.cpp header):
  0  inputs parsed, nothing gates
  1  --strict and the trace reports dropped events
  2  usage error
  3  an input file was unreadable or malformed
These codes are load-bearing: the CI doctor step and docs/OBSERVABILITY.md
both dispatch on them, so a renumbering must fail loudly here.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

DRX = None


def run_doctor(*args):
    proc = subprocess.run([DRX, "doctor", *args], capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestDoctorCli(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _trace(self, name, doc):
        path = self.tmp / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_no_inputs_is_usage_error(self):
        code, _, err = run_doctor()
        self.assertEqual(code, 2)
        self.assertIn("usage", err)

    def test_unknown_flag_is_usage_error(self):
        for args in (["--frobnicate"], ["--profile", "profile.json"]):
            code, _, _ = run_doctor(*args)
            self.assertEqual(code, 2, args)

    def test_clean_trace_strict_exits_zero(self):
        trace = self._trace("clean.json", {
            "traceEvents": [],
            "metadata": {"events": 0, "dropped": 0}})
        code, out, err = run_doctor("--strict", "--trace", trace)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")

    def test_malformed_trace_exits_three(self):
        path = self.tmp / "broken.json"
        path.write_text('{"traceEvents": [oops', encoding="utf-8")
        code, _, err = run_doctor("--strict", "--trace", str(path))
        self.assertEqual(code, 3)
        self.assertIn("broken.json", err)

    def test_wrong_shape_trace_exits_three(self):
        trace = self._trace("shape.json", {"events": []})
        code, _, _ = run_doctor("--trace", trace)
        self.assertEqual(code, 3)

    def test_unreadable_input_exits_three(self):
        code, _, err = run_doctor("--trace", str(self.tmp / "absent.json"))
        self.assertEqual(code, 3)
        self.assertIn("cannot read", err)

    def test_dropped_events_gate_only_under_strict(self):
        trace = self._trace("dropped.json", {
            "traceEvents": [],
            "metadata": {"events": 7, "dropped": 3}})
        code, _, _ = run_doctor("--trace", trace)
        self.assertEqual(code, 0)  # advisory without --strict
        code, _, err = run_doctor("--strict", "--trace", trace)
        self.assertEqual(code, 1)
        self.assertIn("dropped", err)

    def test_window_stall_is_advisory(self):
        # Four epochs without byte movement, then resumption: io-stall is
        # reported, and like every analysis verdict it never gates.
        epochs = [
            {"t_us": (i + 1) * 1000, "span_us": 1000,
             "metrics": {"counters": {"pfs.bytes_read": b} if b else {},
                         "histograms": {}}}
            for i, b in enumerate([100, 0, 0, 0, 0, 100])]
        doc = self._trace("series.json", {
            "format": "drx-window", "version": 1, "epoch_deltas": epochs})
        code, out, err = run_doctor("--window", doc)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("io-stall", out)
        code, _, _ = run_doctor("--strict", "--window", doc)
        self.assertEqual(code, 0)

    def test_malformed_input_beats_strict_gate(self):
        path = self.tmp / "broken.json"
        path.write_text("]", encoding="utf-8")
        code, _, _ = run_doctor("--strict", "--trace", str(path))
        self.assertEqual(code, 3)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    DRX = sys.argv.pop(1)
    unittest.main()
