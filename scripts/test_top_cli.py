#!/usr/bin/env python3
"""Exit-code and rendering regression test for the `drx top` CLI, run from
ctest.

Usage: test_top_cli.py <path-to-drx>

Locks in the documented contract (tools/drx.cpp header):
  0  success
  1  scrape/parse failure
  2  usage error
The offline --render mode is the same code path the live poll loop uses,
so these fixtures exercise the renderer (windowed latency table, counter
rates, per-shard cache row, queue/session gauges) without needing a live
exporter.
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

DRX = None


def run_top(*args, env=None):
    proc = subprocess.run([DRX, "top", *args], capture_output=True,
                          text=True, timeout=60, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def histogram(count, total, buckets):
    return {"count": count, "sum": total, "p50": 0, "p95": 0, "p99": 0,
            "max": 0, "buckets": buckets}


WINDOW = {
    "format": "drx-window", "version": 1,
    "config": {"epoch_ms": 10000, "epochs": 6, "horizon_ms": 60000},
    "slo": [{"histogram": "serve.request.latency_us", "target_us": 16383,
             "budget": 0.01}],
    "now_us": 99000000,
    "window": {
        "span_us": 30000000, "epochs": 3,
        "metrics": {
            "counters": {"core.cache.shard.0.accesses": 40,
                         "core.cache.shard.1.accesses": 25,
                         # Not decimal indexes: no shard row for these.
                         "core.cache.shard.-1.accesses": 7,
                         "core.cache.shard. 3.accesses": 9,
                         "serve.requests": 60},
            "histograms": {
                # 60 observations in bucket 10 (~512us).
                "serve.request.latency_us":
                    histogram(60, 30720, [0] * 10 + [60]),
                # Non-latency histogram: must not land in the op table.
                "serve.request.bytes": histogram(60, 480000, [0] * 13 + [60]),
            },
        },
    },
    "epoch_deltas": [],
}

LIVE = {
    "format": "drx-live", "version": 1,
    "metrics": {"counters": {}, "histograms": {}},
    "gauges": [
        {"name": "serve.queue.depth", "labels": {"array": "a"}, "value": 3},
        {"name": "serve.cache.fast_hit_ratio", "labels": {"array": "a"},
         "value": 0.75},
        {"name": "serve.session.submitted",
         "labels": {"array": "a", "session": "0"}, "value": 12},
        {"name": "serve.session.completed",
         "labels": {"array": "a", "session": "0"}, "value": 11},
        {"name": "serve.session.failed",
         "labels": {"array": "a", "session": "0"}, "value": 1},
    ],
}


class TestTopCli(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _file(self, name, doc):
        path = self.tmp / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_no_port_and_no_render_is_usage_error(self):
        code, _, err = run_top(env={"PATH": "/usr/bin:/bin"})
        self.assertEqual(code, 2)
        self.assertIn("usage", err)

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_top("--frobnicate")
        self.assertEqual(code, 2)

    def test_render_without_path_is_usage_error(self):
        code, _, _ = run_top("--render")
        self.assertEqual(code, 2)

    def test_bad_port_is_usage_error(self):
        code, _, _ = run_top("--port", "notaport")
        self.assertEqual(code, 2)
        code, _, _ = run_top("--port", "70000")
        self.assertEqual(code, 2)

    def test_negative_count_is_usage_error(self):
        # strtoul would wrap -1 to 2^64-1 and poll forever.
        code, _, _ = run_top("--count", "-1", "--port", "1")
        self.assertEqual(code, 2)

    def test_malformed_port_env_is_usage_error(self):
        # The exporter refuses "9477x" and never starts; reading it as
        # 9477 would only end in a connection error.
        code, _, err = run_top(env={"PATH": "/usr/bin:/bin",
                                    "DRX_METRICS_PORT": "9477x"})
        self.assertEqual(code, 2)
        self.assertIn("DRX_METRICS_PORT", err)

    def test_blank_or_signed_port_env_is_usage_error(self):
        # strtol would skip the blank and take the sign: " +9477" as 9477.
        code, _, err = run_top("--count", "1",
                               env={"PATH": "/usr/bin:/bin",
                                    "DRX_METRICS_PORT": " +9477"})
        self.assertEqual(code, 2)
        self.assertIn("DRX_METRICS_PORT", err)

    def test_bad_interval_is_usage_error(self):
        # NaN, infinity and huge values would overflow sleep_for's ticks.
        for bad in ("0", "-1", " 1", "1x", "nan", "inf", "1e300"):
            code, _, _ = run_top("--interval", bad, "--port", "1")
            self.assertEqual(code, 2, bad)

    def test_render_missing_file_exits_one(self):
        code, _, err = run_top("--render", str(self.tmp / "absent.json"))
        self.assertEqual(code, 1)
        self.assertIn("cannot read", err)

    def test_render_malformed_json_exits_one(self):
        path = self.tmp / "broken.json"
        path.write_text('{"format": oops', encoding="utf-8")
        code, _, _ = run_top("--render", str(path))
        self.assertEqual(code, 1)

    def test_render_window_only(self):
        path = self._file("window.json", WINDOW)
        code, out, err = run_top("--render", path)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        # Header carries the configured horizon and the measured span.
        self.assertIn("window 60s", out)
        self.assertIn("span 30.0s", out)
        # Latency table: only *_us histograms, with the windowed rate
        # (60 requests over 30s = 2.0/s).
        self.assertIn("serve.request.latency_us", out)
        self.assertIn("2.0", out)
        self.assertNotIn("serve.request.bytes", out)
        # Counters as windowed rates: name, per-second rate, window total.
        row = next(ln for ln in out.splitlines()
                   if ln.startswith("serve.requests"))
        self.assertEqual(row.split()[1:], ["2.0", "60"])
        # Per-shard cache traffic, ordered by shard index.
        self.assertIn("cache shards (windowed accesses): 0:40 1:25\n", out)

    def test_render_skips_counters_that_did_not_move(self):
        window = copy.deepcopy(WINDOW)
        window["window"]["metrics"]["counters"]["serve.rejected"] = 0
        code, out, _ = run_top("--render", self._file("w.json", window))
        self.assertEqual(code, 0)
        self.assertNotIn("serve.rejected", out)

    def test_render_with_gauges_shows_sessions(self):
        window = self._file("window.json", WINDOW)
        live = self._file("live.json", LIVE)
        code, out, err = run_top("--render", window, "--gauges", live)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("queue depth 3", out)
        self.assertIn("fast-hit ratio 0.75", out)
        # Per-session table row: array, session, submitted/completed/failed.
        self.assertIn("session", out)
        session_rows = [ln for ln in out.splitlines()
                        if ln.startswith("a ") and "12" in ln]
        self.assertEqual(len(session_rows), 1)
        self.assertIn("11", session_rows[0])
        self.assertIn("1", session_rows[0])

    def test_render_with_malformed_gauges_exits_one(self):
        window = self._file("window.json", WINDOW)
        bad = self.tmp / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, _ = run_top("--render", window, "--gauges", str(bad))
        self.assertEqual(code, 1)

    def test_unreachable_port_exits_one(self):
        # Port 1 on loopback is essentially never listening; connect fails
        # fast and `drx top` must report a scrape error, not hang.
        code, _, err = run_top("--port", "1", "--count", "1",
                               "--interval", "0.1")
        self.assertEqual(code, 1)
        self.assertIn("error", err)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    DRX = sys.argv.pop(1)
    unittest.main()
