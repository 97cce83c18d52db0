#!/usr/bin/env python3
"""Exit-code regression test for the `drx stats` CLI, run from ctest.

Usage: test_stats_cli.py <path-to-drx>

Locks in the documented contract (tools/drx.cpp header):
  0  success
  1  an input file was unreadable or malformed
  2  usage error
with particular attention to the --top mode, which reads either a
DRX_TRACE trace (op-summary events, cat "op") or a drx-flight dump
(kind "op" ring records) and prints the N slowest ops with their
per-stage latency breakdown.
"""

import json
import struct
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

DRX = None


def snapshot_bytes(counters):
    """A binary MetricsSnapshot (obs/metrics.cpp serialize: "DRXM" v1,
    little-endian, u32-length-prefixed names)."""
    out = struct.pack("<III", 0x4452584D, 1, len(counters))
    for name, value in counters:
        raw = name.encode()
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<Q", value)
    out += struct.pack("<I", 0)  # histograms
    return out


def run_stats(*args, stdin=None):
    proc = subprocess.run([DRX, "stats", *args], capture_output=True,
                          text=True, timeout=60, input=stdin)
    return proc.returncode, proc.stdout, proc.stderr


def op_event(name, op, dur, dominant, pid=1):
    return {"name": name, "cat": "op", "ph": "X", "pid": pid, "tid": 1,
            "ts": 0, "dur": dur,
            "args": {"op": op, "lock_wait_ns": 0, "cache_fault_ns": 0,
                     "queue_wait_ns": 0, "io_service_ns": dur * 900,
                     "copy_ns": 0, "other_ns": dur * 100,
                     "dominant": dominant}}


TRACE = {"displayTimeUnit": "ms",
         "traceEvents": [op_event("op.read_box", 1, 500, "io_service"),
                         op_event("op.write_box", 2, 900, "io_service"),
                         op_event("op.extend", 3, 100, "other")],
         "metadata": {"events": 3, "flows": 0, "ops": 3, "dropped": 0}}

FLIGHT = {"format": "drx-flight", "version": 1, "reason": "on-demand",
          "threads": [{"tid": 1, "records": [
              {"seq": 1, "kind": "op", "name": "op.cached_get",
               "ts_ns": 0, "dur_ns": 700000, "arg": 3, "op": 4,
               "parent": 0, "rank": 0},
              {"seq": 2, "kind": "span", "name": "io.pool.job",
               "ts_ns": 0, "dur_ns": 650000, "arg": 0, "op": 4,
               "parent": 0, "rank": 0}]}]}


class TestStatsCli(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _file(self, name, doc):
        path = self.tmp / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_no_args_is_usage_error(self):
        code, _, err = run_stats()
        self.assertEqual(code, 2)
        self.assertIn("usage", err)

    def test_top_without_count_is_usage_error(self):
        code, _, _ = run_stats("--top")
        self.assertEqual(code, 2)

    def test_top_with_bad_count_is_usage_error(self):
        code, _, _ = run_stats("--top", "zero", "x.json")
        self.assertEqual(code, 2)
        code, _, _ = run_stats("--top", "0", "x.json")
        self.assertEqual(code, 2)

    def test_top_with_extra_mode_is_usage_error(self):
        code, _, _ = run_stats("--top", "3", "--json", "x.json")
        self.assertEqual(code, 2)

    def test_top_missing_file_exits_one(self):
        code, _, err = run_stats("--top", "3", str(self.tmp / "absent.json"))
        self.assertEqual(code, 1)
        self.assertIn("cannot read", err)

    def test_top_malformed_json_exits_one(self):
        path = self.tmp / "broken.json"
        path.write_text('{"traceEvents": [oops', encoding="utf-8")
        code, _, _ = run_stats("--top", "3", str(path))
        self.assertEqual(code, 1)

    def test_top_wrong_document_kind_exits_one(self):
        path = self._file("other.json", {"something": "else"})
        code, _, err = run_stats("--top", "3", path)
        self.assertEqual(code, 1)
        self.assertIn("neither a trace", err)

    def test_top_trace_prints_slowest_ops_with_stages(self):
        path = self._file("trace.json", TRACE)
        code, out, err = run_stats("--top", "2", path)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("top 2 op(s)", out)
        lines = out.splitlines()
        # Slowest first, truncated to N: write_box (900us) then read_box.
        self.assertIn("op.write_box", lines[2])
        self.assertIn("op.read_box", lines[3])
        self.assertNotIn("op.extend", out)
        # Per-stage breakdown columns present for trace input.
        self.assertIn("io_service", lines[1])
        self.assertIn("queue_wait", lines[1])
        self.assertIn("dominant", lines[1])

    def test_top_larger_n_than_ops_prints_all(self):
        path = self._file("trace.json", TRACE)
        code, out, _ = run_stats("--top", "10", path)
        self.assertEqual(code, 0)
        self.assertIn("top 3 op(s)", out)
        self.assertIn("op.extend", out)

    def test_top_with_negative_count_is_usage_error(self):
        # strtoul would wrap -1 to 2^64-1 and print every op.
        code, _, _ = run_stats("--top", "-1", self._file("t.json", TRACE))
        self.assertEqual(code, 2)

    def test_top_with_blank_or_signed_count_is_usage_error(self):
        # strtol would skip the blank and take the sign: " +5" as 5.
        code, _, _ = run_stats("--top", " +5", self._file("t.json", TRACE))
        self.assertEqual(code, 2)

    # ---- --check-json ----------------------------------------------------

    def test_check_json_reads_a_pipe(self):
        code, out, err = run_stats("--check-json", "/dev/stdin",
                                   stdin='{"a":1}\n')
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("valid JSON", out)

    # ---- --diff ----------------------------------------------------------

    def _snapshot(self, name, counters):
        path = self.tmp / name
        path.write_bytes(snapshot_bytes(counters))
        return str(path)

    def test_diff_prints_delta(self):
        a = self._snapshot("a.bin", [("serve.requests", 10)])
        b = self._snapshot("b.bin", [("serve.requests", 17)])
        code, out, err = run_stats("--diff", a, b)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn(f"delta {a} -> {b}", out)
        self.assertIn("serve.requests", out)
        self.assertIn("+7", out)

    def test_diff_json_is_machine_readable(self):
        a = self._snapshot("a.bin", [("serve.requests", 5)])
        code, out, err = run_stats("--json", "--diff", a, a)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertEqual(json.loads(out)["counters"]["serve.requests"], 0)

    def test_diff_missing_snapshot_exits_one(self):
        a = self._snapshot("a.bin", [("x", 1)])
        code, _, err = run_stats("--diff", a, str(self.tmp / "absent.bin"))
        self.assertEqual(code, 1)
        self.assertIn("cannot read", err)

    def test_top_flight_dump_prints_dominant_stage(self):
        path = self._file("flight.json", FLIGHT)
        code, out, err = run_stats("--top", "5", path)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("op.cached_get", out)
        self.assertIn("io_service", out)  # dominant stage index 3
        self.assertNotIn("io.pool.job", out)  # span records are not ops


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    DRX = sys.argv.pop(1)
    unittest.main()
