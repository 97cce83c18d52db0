#!/usr/bin/env python3
"""Unit tests for the scripts/ checkers, run from ctest as `scripts_unit`.

Written against stdlib unittest so the suite runs in the bare CI image;
the test names follow pytest conventions, so `pytest scripts/` collects
them too where pytest is available.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, SCRIPTS_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_regression = _load("check_bench_regression")
prefetch_gate = _load("check_prefetch_gate")
bench_exact = _load("check_drx_bench_exact")
exposition = _load("check_exposition")

# drx_verify is a package of sibling modules imported bare (it runs as
# `python3 scripts/drx_verify`), so its directory must be importable
# before its __main__ executes.
DRX_VERIFY_DIR = SCRIPTS_DIR / "drx_verify"
sys.path.insert(0, str(DRX_VERIFY_DIR))


def _load_verify(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, DRX_VERIFY_DIR / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


drx_verify = _load_verify("drx_verify_cli", "__main__.py")
ast_frontend = _load_verify("ast_frontend", "ast_frontend.py")


def run_main(mod, argv):
    """Runs mod.main(argv), returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mod.main(argv)
        except SystemExit as exc:  # argparse --help / usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def write_report(directory, name, docs):
    path = Path(directory) / name
    path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                    encoding="utf-8")
    return str(path)


def bench_doc(bench, rows, counters=None):
    doc = {"bench": bench,
           "table": {"headers": ["pattern", "backend", "sim ms", "requests"],
                     "rows": rows}}
    if counters is not None:
        doc["metrics"] = {"counters": counters}
    return doc


def cache_rows(sim_ms, requests):
    return [["sequential sweep", "DrxFile", "99.0", "999"],
            ["", f"CachedDrxFile depth=4", str(sim_ms), str(requests)]]


def scan_doc(band_ms, band_requests, band_label="rle, band-written"):
    """A bench_chunk_cache_compression report line."""
    return {"bench": "bench_chunk_cache_compression",
            "table": {"headers": ["scan", "sim ms", "eff MB/s", "PFS MB",
                                  "MB saved", "eff bw speedup",
                                  "storage requests"],
                      "rows": [["rle", "29.4", "71.4", "0.20", "1.90",
                                "1.7x", "128"],
                               [band_label, str(band_ms), "2.8", "3.14",
                                "", "", str(band_requests)]]}}


def gate_report(directory, name, sequential, band, counters=None,
                band_label="rle, band-written"):
    """Both report lines check_prefetch_gate.py reads: `sequential` and
    `band` are (sim ms, requests) of the two gated scans."""
    return write_report(directory, name, [
        bench_doc("bench_chunk_cache", cache_rows(*sequential), counters),
        scan_doc(*band, band_label=band_label)])


class TestBenchRegression(unittest.TestCase):
    def test_help_exits_zero(self):
        code, out, _ = run_main(bench_regression, ["--help"])
        self.assertEqual(code, 0)

    def test_missing_file_exits_two(self):
        code, _, err = run_main(
            bench_regression, ["/nonexistent/a.json", "/nonexistent/b.json"])
        self.assertEqual(code, 2)
        self.assertIn("ERROR", err)

    def test_invalid_json_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.json"
            bad.write_text("{not json\n", encoding="utf-8")
            good = write_report(tmp, "good.json",
                                [bench_doc("b", [["r", "x", "1", "2"]])])
            code, _, err = run_main(bench_regression, [good, str(bad)])
        self.assertEqual(code, 2)
        self.assertIn("invalid JSON", err)

    def test_non_report_json_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [{"rows": []}])
            code, _, err = run_main(bench_regression, [path, path])
        self.assertEqual(code, 2)
        self.assertIn("not a DRX_BENCH_JSON", err)

    def test_identical_reports_ok(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json",
                                [bench_doc("b", [["r", "x", "10", "20"]])])
            code, out, _ = run_main(bench_regression, [path, path])
        self.assertEqual(code, 0)
        self.assertIn("OK: all bench rows within tolerance", out)

    def test_drift_warns_but_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_report(tmp, "base.json",
                                [bench_doc("b", [["r", "x", "10", "20"]])])
            cur = write_report(tmp, "cur.json",
                               [bench_doc("b", [["r", "x", "20", "20"]])])
            code, out, _ = run_main(bench_regression, [base, cur, "0.25"])
        self.assertEqual(code, 0)  # warn-only by design
        self.assertIn("WARN:", out)
        self.assertIn("+100%", out)

    def test_copy_coalescing_healthy_ratio_ok(self):
        doc = bench_doc("bench_scatter", [["r", "x", "10", "20"]],
                        {"core.copy.runs": 100,
                         "core.copy.elements": 100000})
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [doc])
            code, out, _ = run_main(
                bench_regression, [path, path, "--copy-coalescing"])
        self.assertEqual(code, 0)
        self.assertIn("1000.0 elements/run", out)
        self.assertNotIn("WARN:", out)

    def test_copy_coalescing_degraded_ratio_warns(self):
        doc = bench_doc("bench_scatter", [["r", "x", "10", "20"]],
                        {"core.copy.runs": 100,
                         "core.copy.elements": 150})
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [doc])
            code, out, _ = run_main(
                bench_regression, [path, path, "--copy-coalescing", "5"])
        self.assertEqual(code, 0)  # warn-only by design
        self.assertIn("WARN: copy-coalescing", out)

    def test_copy_coalescing_missing_counters_warns(self):
        doc = bench_doc("bench_scatter", [["r", "x", "10", "20"]])
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [doc])
            code, out, _ = run_main(
                bench_regression, [path, path, "--copy-coalescing"])
        self.assertEqual(code, 0)
        self.assertIn("counters missing", out)

    @staticmethod
    def _overhead_doc(ratio, window_ratio=1.005, with_window_row=True):
        rows = [["flight-on", "1000", "10.2", "170"],
                ["flight-off", "1000", "10.0", "167"],
                ["window-on", "1000", "10.1", "168"],
                ["window-off", "1000", "10.0", "167"],
                ["overhead", f"{ratio:.3f}"]]
        if with_window_row:
            rows.append(["window_overhead", f"{window_ratio:.3f}"])
        return {"bench": "bench_obs_overhead",
                "table": {"headers": ["mode", "touches", "wall ms", "ns/op"],
                          "rows": rows}}

    def test_obs_overhead_under_gate_ok(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [self._overhead_doc(1.01)])
            code, out, _ = run_main(
                bench_regression, [path, path, "--obs-overhead"])
        self.assertEqual(code, 0)
        self.assertIn("wall ratio 1.010", out)
        self.assertIn("window-on/window-off wall ratio 1.005", out)
        self.assertNotIn("WARN: obs-overhead", out)

    def test_obs_overhead_over_gate_warns(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [self._overhead_doc(1.10)])
            code, out, _ = run_main(
                bench_regression, [path, path, "--obs-overhead"])
        self.assertEqual(code, 0)  # warn-only by design
        self.assertIn("WARN: obs-overhead", out)

    def test_window_overhead_over_gate_warns(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(
                tmp, "r.json", [self._overhead_doc(1.01, window_ratio=1.08)])
            code, out, _ = run_main(
                bench_regression, [path, path, "--obs-overhead"])
        self.assertEqual(code, 0)  # warn-only by design
        self.assertIn("WARN: obs-overhead: windowed metrics", out)

    def test_window_overhead_missing_row_warns(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(
                tmp, "r.json",
                [self._overhead_doc(1.01, with_window_row=False)])
            code, out, _ = run_main(
                bench_regression, [path, path, "--obs-overhead"])
        self.assertEqual(code, 0)
        self.assertIn("no 'window_overhead' ratio row", out)

    def test_obs_overhead_missing_bench_warns(self):
        doc = bench_doc("bench_scatter", [["r", "x", "10", "20"]])
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(tmp, "r.json", [doc])
            code, out, _ = run_main(
                bench_regression, [path, path, "--obs-overhead", "1.02"])
        self.assertEqual(code, 0)
        self.assertIn("no bench_obs_overhead report", out)


VALID_SCRAPE = """\
# HELP drx_serve_requests_total cumulative counter
# TYPE drx_serve_requests_total counter
drx_serve_requests_total 1234
# TYPE drx_core_cache_shard_accesses gauge
drx_core_cache_shard_accesses{shard="0"} 40
drx_core_cache_shard_accesses{shard="1"} 25
# TYPE drx_serve_request_latency_us histogram
drx_serve_request_latency_us_bucket{window="60s",le="511"} 10
drx_serve_request_latency_us_bucket{window="60s",le="16383"} 58
drx_serve_request_latency_us_bucket{window="60s",le="+Inf"} 60
drx_serve_request_latency_us_sum{window="60s"} 30720
drx_serve_request_latency_us_count{window="60s"} 60
"""


class TestCheckExposition(unittest.TestCase):
    def _lint(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scrape.prom"
            path.write_text(text, encoding="utf-8")
            return run_main(exposition, [str(path)])

    def test_help_exits_zero(self):
        code, _, _ = run_main(exposition, ["--help"])
        self.assertEqual(code, 0)

    def test_missing_file_exits_two(self):
        code, _, err = run_main(exposition, ["/nonexistent/scrape.prom"])
        self.assertEqual(code, 2)
        self.assertIn("ERROR", err)

    def test_no_args_exits_two(self):
        code, _, err = run_main(exposition, [])
        self.assertEqual(code, 2)
        self.assertIn("usage", err)

    def test_valid_scrape_passes(self):
        code, out, _ = self._lint(VALID_SCRAPE)
        self.assertEqual(code, 0, out)
        self.assertIn("valid Prometheus exposition", out)
        self.assertIn("8 samples", out)

    def test_empty_input_passes(self):
        code, out, _ = self._lint("")
        self.assertEqual(code, 0)
        self.assertIn("0 samples", out)

    def test_bad_metric_name_flagged(self):
        code, out, _ = self._lint("# TYPE 9bad gauge\n")
        self.assertEqual(code, 1)
        self.assertIn("bad metric name", out)

    def test_unparseable_sample_flagged(self):
        code, out, _ = self._lint("# TYPE drx_x gauge\ndrx_x\n")
        self.assertEqual(code, 1)
        self.assertIn("unparseable sample", out)

    def test_bad_value_flagged(self):
        code, out, _ = self._lint("# TYPE drx_x gauge\ndrx_x notanum\n")
        self.assertEqual(code, 1)
        self.assertIn("bad sample value", out)

    def test_sample_without_type_flagged(self):
        code, out, _ = self._lint("drx_untyped 1\n")
        self.assertEqual(code, 1)
        self.assertIn("no preceding TYPE", out)

    def test_duplicate_type_flagged(self):
        code, out, _ = self._lint(
            "# TYPE drx_x gauge\n# TYPE drx_x gauge\ndrx_x 1\n")
        self.assertEqual(code, 1)
        self.assertIn("duplicate TYPE", out)

    def test_counter_without_total_suffix_flagged(self):
        code, out, _ = self._lint("# TYPE drx_reqs counter\ndrx_reqs 1\n")
        self.assertEqual(code, 1)
        self.assertIn("does not end in _total", out)

    def test_duplicate_series_flagged(self):
        code, out, _ = self._lint(
            '# TYPE drx_x gauge\ndrx_x{a="1"} 1\ndrx_x{a="1"} 2\n')
        self.assertEqual(code, 1)
        self.assertIn("duplicate series", out)

    def test_bad_label_syntax_flagged(self):
        code, out, _ = self._lint('# TYPE drx_x gauge\ndrx_x{a=1} 2\n')
        self.assertEqual(code, 1)
        self.assertIn("bad label syntax", out)

    def test_non_cumulative_buckets_flagged(self):
        code, out, _ = self._lint(
            "# TYPE drx_h histogram\n"
            'drx_h_bucket{le="1"} 10\n'
            'drx_h_bucket{le="2"} 5\n'
            'drx_h_bucket{le="+Inf"} 10\n'
            "drx_h_sum 15\n"
            "drx_h_count 10\n")
        self.assertEqual(code, 1)
        self.assertIn("not cumulative", out)

    def test_missing_inf_bucket_flagged(self):
        code, out, _ = self._lint(
            "# TYPE drx_h histogram\n"
            'drx_h_bucket{le="1"} 10\n'
            "drx_h_sum 15\n"
            "drx_h_count 10\n")
        self.assertEqual(code, 1)
        self.assertIn("no +Inf bucket", out)

    def test_count_bucket_mismatch_flagged(self):
        code, out, _ = self._lint(
            "# TYPE drx_h histogram\n"
            'drx_h_bucket{le="+Inf"} 10\n'
            "drx_h_sum 15\n"
            "drx_h_count 11\n")
        self.assertEqual(code, 1)
        self.assertIn("_count", out)

    def test_histograms_keyed_per_label_set(self):
        # Two windows of the same family are distinct label sets; each
        # must be internally coherent but they need not agree.
        code, out, _ = self._lint(
            "# TYPE drx_h histogram\n"
            'drx_h_bucket{window="10s",le="+Inf"} 3\n'
            'drx_h_count{window="10s"} 3\n'
            'drx_h_bucket{window="60s",le="+Inf"} 60\n'
            'drx_h_count{window="60s"} 60\n')
        self.assertEqual(code, 0, out)


class TestPrefetchGate(unittest.TestCase):
    def test_help_exits_zero(self):
        code, _, _ = run_main(prefetch_gate, ["--help"])
        self.assertEqual(code, 0)

    def test_missing_file_exits_two(self):
        code, _, err = run_main(
            prefetch_gate, ["/nonexistent/off.json", "/nonexistent/on.json"])
        self.assertEqual(code, 2)
        self.assertIn("ERROR", err)

    def test_invalid_json_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.json"
            bad.write_text("][", encoding="utf-8")
            code, _, err = run_main(prefetch_gate, [str(bad), str(bad)])
        self.assertEqual(code, 2)
        self.assertIn("invalid JSON", err)

    def test_wrong_bench_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_report(
                tmp, "r.json", [bench_doc("bench_other", cache_rows(1, 1))])
            code, _, err = run_main(prefetch_gate, [path, path])
        self.assertEqual(code, 2)
        self.assertIn("bench_chunk_cache", err)

    def test_gate_passes_when_prefetch_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            off = gate_report(tmp, "off.json", (10.0, 100), (8347.2, 1024))
            on = gate_report(tmp, "on.json", (8.0, 80), (761.7, 101),
                             {"core.cache.prefetch_issued": 5})
            code, out, _ = run_main(prefetch_gate, [off, on])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_gate_fails_on_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            off = gate_report(tmp, "off.json", (10.0, 100), (8347.2, 1024))
            on = gate_report(tmp, "on.json", (12.0, 120), (761.7, 101),
                             {"core.cache.prefetch_issued": 5})
            code, _, err = run_main(prefetch_gate, [off, on])
        self.assertEqual(code, 1)
        self.assertIn("FAIL", err)

    def test_gate_fails_when_band_written_scan_regresses(self):
        # The sequential sweep wins, but the band-written compressed scan
        # issues as many requests with read-ahead as without it.
        with tempfile.TemporaryDirectory() as tmp:
            off = gate_report(tmp, "off.json", (10.0, 100), (8347.2, 1024))
            on = gate_report(tmp, "on.json", (8.0, 80), (761.7, 1024),
                             {"core.cache.prefetch_issued": 5})
            code, _, err = run_main(prefetch_gate, [off, on])
        self.assertEqual(code, 1)
        self.assertIn("band-written compressed scan: storage requests", err)

    def test_missing_band_written_row_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            off = gate_report(tmp, "off.json", (10.0, 100), (8347.2, 1024),
                              band_label="rle, other")
            on = gate_report(tmp, "on.json", (8.0, 80), (761.7, 101),
                             {"core.cache.prefetch_issued": 5})
            code, _, err = run_main(prefetch_gate, [off, on])
        self.assertEqual(code, 2)
        self.assertIn("rle, band-written", err)


def drx_bench_doc(workload, e2e, per_layer, smoke=False, failed=0):
    """A drx_bench --json report with the given metric values."""
    def section(values):
        return {k: {"value": v, "unit": "x"} for k, v in values.items()}
    return {"workload": workload, "smoke": smoke, "correct": failed == 0,
            "failed": failed, "end_to_end": section(e2e),
            "per_layer": section(per_layer)}


ZONE_PINNED = ({"sim_ms_per_op": 11.033584000000157},
               {"pfs.requests_per_op": 8, "pfs.seeks_per_op": 8,
                "pfs.sim_ms_min": 11.033583999999799,
                "pfs.sim_ms_max": 11.03358400000073})
APPEND_PINNED = ({"sim_ms_per_op": 12.013801070312411},
                 {"pfs.requests_per_op": 12.64453125,
                  "pfs.seeks_per_op": 8.6328125,
                  "pfs.bytes_read_per_op": 1901952})


class TestDrxBenchExact(unittest.TestCase):
    def _run(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, doc in enumerate(docs):
                path = Path(tmp) / f"r{i}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            return run_main(bench_exact, paths)

    def test_help_exits_zero(self):
        code, _, _ = run_main(bench_exact, ["--help"])
        self.assertEqual(code, 0)

    def test_missing_file_exits_two(self):
        code, _, err = run_main(bench_exact, ["/nonexistent/zone.json"])
        self.assertEqual(code, 2)
        self.assertIn("ERROR", err)

    def test_pinned_values_pass(self):
        code, out, _ = self._run([
            drx_bench_doc("zone_collective", *ZONE_PINNED),
            drx_bench_doc("append_extend", *APPEND_PINNED)])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_extra_request_fails(self):
        e2e, per_layer = APPEND_PINNED
        code, _, err = self._run([drx_bench_doc(
            "append_extend", e2e,
            dict(per_layer, **{"pfs.requests_per_op": 12.6484375}))])
        self.assertEqual(code, 1)
        self.assertIn("pfs.requests_per_op", err)

    def test_sim_time_beyond_tolerance_fails(self):
        e2e, per_layer = ZONE_PINNED
        code, _, err = self._run([drx_bench_doc(
            "zone_collective", {"sim_ms_per_op": 11.0336}, per_layer)])
        self.assertEqual(code, 1)
        self.assertIn("sim_ms_per_op", err)

    def test_failed_run_fails(self):
        code, _, err = self._run(
            [drx_bench_doc("zone_collective", *ZONE_PINNED, failed=1)])
        self.assertEqual(code, 1)
        self.assertIn("did not read back correctly", err)

    def test_smoke_report_exits_two(self):
        code, _, err = self._run(
            [drx_bench_doc("zone_collective", *ZONE_PINNED, smoke=True)])
        self.assertEqual(code, 2)
        self.assertIn("smoke", err)

    def test_other_workload_exits_two(self):
        code, _, err = self._run([drx_bench_doc("scan_ooc", {}, {})])
        self.assertEqual(code, 2)
        self.assertIn("zone_collective", err)

    def test_missing_metric_exits_two(self):
        code, _, err = self._run([drx_bench_doc(
            "append_extend", APPEND_PINNED[0], {})])
        self.assertEqual(code, 2)
        self.assertIn("pfs.requests_per_op", err)


class TestDrxVerify(unittest.TestCase):
    """CLI contract of the whole-program analyzer (scripts/drx_verify).

    The analyzer's precision/recall over real defects is pinned by the
    ctest corpus gate (tests/verify/check_corpus.py); these tests cover
    the exit-code contract, the suppression syntax, and the AST walker
    on a hand-written clang-style JSON fixture (no clang needed).
    """

    HIERARCHY = str(SCRIPTS_DIR.parent / "docs" / "LOCK_ORDER.md")

    def _tree(self, tmp, files):
        root = Path(tmp)
        for rel, body in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body, encoding="utf-8")
        return str(root)

    def _run(self, root, *extra):
        return run_main(drx_verify, ["--root", root, "--hierarchy",
                                     self.HIERARCHY, *extra])

    def test_help_exits_zero(self):
        code, _, _ = run_main(drx_verify, ["--help"])
        self.assertEqual(code, 0)

    def test_missing_src_root_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = self._run(tmp)
        self.assertEqual(code, 2)
        self.assertIn("no such subtree", err)

    def test_missing_hierarchy_exits_three(self):
        with tempfile.TemporaryDirectory() as tmp:
            self._tree(tmp, {"src/a.cpp": "void f() {}\n"})
            code, _, err = run_main(drx_verify, [
                "--root", tmp,
                "--hierarchy", str(Path(tmp) / "absent.md")])
        self.assertEqual(code, 3)

    def test_bad_compile_commands_exits_three(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {
                "src/a.cpp": "void f() {}\n",
                "build/compile_commands.json": "this is not json\n"})
            code, _, err = self._run(
                root, "--frontend", "ast",
                "--compile-commands",
                str(Path(root) / "build" / "compile_commands.json"))
        self.assertEqual(code, 3)
        self.assertIn("cannot load", err)

    def test_compile_commands_not_an_array_exits_three(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {
                "src/a.cpp": "void f() {}\n",
                "build/compile_commands.json": "{\"file\": \"a.cpp\"}\n"})
            code, _, err = self._run(
                root, "--frontend", "ast",
                "--compile-commands",
                str(Path(root) / "build" / "compile_commands.json"))
        self.assertEqual(code, 3)
        self.assertIn("not a compile_commands.json array", err)

    def test_malformed_ast_dump_exits_three(self):
        # A stand-in "clang" that emits broken JSON: the CLI must report
        # malformed input, not crash or pass.
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {
                "src/a.cpp": "void f() {}\n",
                "fake-clang": "#!/bin/sh\necho '{'\n"})
            fake = Path(root) / "fake-clang"
            fake.chmod(0o755)
            cc = [{"directory": root, "file": "src/a.cpp",
                   "command": "c++ -c src/a.cpp"}]
            ccpath = Path(root) / "compile_commands.json"
            ccpath.write_text(json.dumps(cc), encoding="utf-8")
            code, _, err = self._run(
                root, "--frontend", "ast",
                "--compile-commands", str(ccpath), "--clang", str(fake))
        self.assertEqual(code, 3)
        self.assertIn("malformed AST JSON", err)

    def test_ast_walker_on_synthetic_fixture(self):
        # Clang-style AST JSON, hand-written: a function that acquires a
        # MutexLock must yield ACQUIRE + scope-close RELEASE facts.
        fixture = {
            "kind": "TranslationUnitDecl",
            "inner": [{
                "kind": "NamespaceDecl", "name": "drx",
                "inner": [{
                    "kind": "FunctionDecl", "name": "touch",
                    "loc": {"file": "src/core/a.cpp", "line": 3},
                    "type": {"qualType": "void ()"},
                    "inner": [{
                        "kind": "CompoundStmt",
                        "inner": [{
                            "kind": "DeclStmt",
                            "inner": [{
                                "kind": "VarDecl", "name": "lock",
                                "loc": {"line": 4},
                                "type": {"qualType": "util::MutexLock"},
                                "inner": [{
                                    "kind": "CXXConstructExpr",
                                    "inner": [{
                                        "kind": "DeclRefExpr",
                                        "referencedDecl": {"name": "mu_"},
                                    }],
                                }],
                            }],
                        }],
                    }],
                }],
            }],
        }
        facts = ast_frontend.parse_ast_json(
            fixture, SCRIPTS_DIR.parent, "src/core/a.cpp")
        fns = [f for f in facts.functions if f.name == "drx::touch"]
        self.assertEqual(len(fns), 1)
        kinds = [(e.kind, e.data) for e in fns[0].events]
        self.assertIn(("acquire", "mu_"), kinds)
        self.assertIn(("release", "mu_"), kinds)

    def test_ast_walker_rejects_wrong_root(self):
        with self.assertRaises(ast_frontend.AstError):
            ast_frontend.parse_ast_json(
                {"kind": "CompoundStmt"}, SCRIPTS_DIR.parent, "x.cpp")
        with self.assertRaises(ast_frontend.AstError):
            ast_frontend.parse_ast_json(
                ["not", "a", "dict"], SCRIPTS_DIR.parent, "x.cpp")

    DEFECT = ("#include \"util/error.hpp\"\n"
              "namespace drx {\n"
              "Status spill() { return Status::ok(); }\n"
              "void f() {\n"
              "  (void)spill();\n"
              "}\n"
              "}  // namespace drx\n")

    def test_discarded_status_found(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {"src/util/a.cpp": self.DEFECT})
            code, out, _ = self._run(root)
        self.assertEqual(code, 1)
        self.assertIn("error-discipline", out)

    def test_suppression_silences_finding(self):
        body = self.DEFECT.replace(
            "  (void)spill();",
            "  // drx-verify: allow(error-discipline) best-effort spill\n"
            "  (void)spill();")
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {"src/util/a.cpp": body})
            code, _, _ = self._run(root)
            strict_code, _, _ = self._run(root, "--strict")
        self.assertEqual(code, 0)
        self.assertEqual(strict_code, 0)  # justified: strict-clean too

    def test_strict_rejects_bare_suppression(self):
        body = self.DEFECT.replace(
            "  (void)spill();",
            "  // drx-verify: allow(error-discipline)\n"
            "  (void)spill();")
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {"src/util/a.cpp": body})
            code, _, _ = self._run(root)
            strict_code, out, _ = self._run(root, "--strict")
        self.assertEqual(code, 0)  # suppressed either way
        self.assertEqual(strict_code, 1)  # but strict wants the reason

    def test_json_and_text_reports_written(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self._tree(tmp, {"src/util/a.cpp": self.DEFECT})
            jout = Path(tmp) / "out" / "findings.json"
            tout = Path(tmp) / "out" / "findings.txt"
            code, _, _ = self._run(root, "--json", str(jout),
                                   "--text", str(tout), "-q")
            payload = json.loads(jout.read_text(encoding="utf-8"))
            text = tout.read_text(encoding="utf-8")
        self.assertEqual(code, 1)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertEqual(payload["findings"][0]["rule"], "error-discipline")
        self.assertIn("error-discipline", text)


class TestDrxVerifyInvariants(unittest.TestCase):
    """Path scopes and exemptions of drx_verify's invariant pass.

    Each unscoped rule is pinned by a seeded file in tests/verify/corpus;
    those files all live under tests/, so the rules that only apply to
    (or exempt) particular src/ files are covered here on temp trees."""

    CACHE = "src/core/chunk_cache.cpp"
    UNDER_LOCK = ("Status ChunkCache::pin(std::uint64_t a) {\n"
                  "  util::MutexLock lock(s.mu);\n"
                  "  auto buf = std::make_unique<std::byte[]>(n);\n"
                  "}\n")
    # name -> (path, source, rule, how many times it must fire there)
    CASES = {
        "raw_primitive_in_sync_header":
            ("src/util/sync.hpp", "std::mutex m;\n", "raw-sync-primitive", 0),
        "guarded_mutex_member": (
            "src/a.hpp", "class C {\n  util::Mutex mu_;\n"
            "  int x DRX_GUARDED_BY(mu_);\n};\n",
            "unannotated-mutex-member", 0),
        "push_span_inside_obs": (
            "src/obs/trace.hpp", "detail::push_span(n, c, t, 0, 0);\n",
            "hot-path-obs-guard", 0),
        "axial_extend_outside_metadata": (
            "src/core/other.cpp", "meta_.mapping.extend(0, 2);\n",
            "axial-mutation", 1),
        "axial_extend_in_metadata": (
            "src/core/metadata.cpp", "mapping.extend(0, 2);\n",
            "axial-mutation", 0),
        "alloc_under_cache_lock":
            (CACHE, UNDER_LOCK, "cache-lock-alloc", 1),
        "alloc_under_lock_outside_cache":
            ("src/core/other.cpp", UNDER_LOCK, "cache-lock-alloc", 0),
        "alloc_after_unlock": (CACHE, UNDER_LOCK.replace(
            "  auto", "  lock.unlock();\n  auto"), "cache-lock-alloc", 0),
        "alloc_after_lock_scope_ends": (
            CACHE, "Status ChunkCache::run_job(std::uint64_t a) {\n"
            "  {\n    util::MutexLock lock(mu_);\n  }\n"
            "  auto buf = std::make_unique<std::byte[]>(n);\n}\n",
            "cache-lock-alloc", 0),
        "alloc_in_locked_helper": (
            CACHE, "std::unique_ptr<std::byte[]> ChunkCache::grab_locked("
            "Shard& s) {\n  return std::make_unique<std::byte[]>(n);\n}\n",
            "cache-lock-alloc", 1),
        "element_walk_in_hot_file": (
            "src/core/drx_file.cpp",
            "for_each_index(clip, [&](const Index& i) {});\n",
            "element-granular-copy", 1),
        "chunk_grid_walk_in_hot_file": (
            "src/core/drx_file.cpp",
            "for_each_index(space_.covering_chunks(box), fn);\n",
            "element-granular-copy", 0),
        "element_walk_outside_hot_files": (
            "src/core/coords.hpp",
            "for_each_index(box, [&](const Index& i) {});\n",
            "element-granular-copy", 0),
        "submit_with_current_op": (
            "src/core/a.cpp",
            "pool_->submit(obs::current_op(), [this] { run(); });\n",
            "pool-submit-opctx", 0),
        "submit_context_on_next_line": (
            "src/mpio/a.cpp", "results.push_back(pool.submit_with_future(\n"
            "    obs::current_op(), [&] { return run(); }));\n",
            "pool-submit-opctx", 0),
        "submit_inside_src_io": (
            "src/io/async_pool.cpp",
            "pool_->submit([this] { return run(); });\n",
            "pool-submit-opctx", 0),
        "empty_context_suppressed": (
            "src/core/a.cpp", "// drx-verify: allow(pool-submit-opctx) "
            "startup path, no op can be in flight\n"
            "pool_->submit(obs::OpContext{}, [this] { run(); });\n",
            "pool-submit-opctx", 0),
    }

    def test_scopes_and_exemptions(self):
        for name, (path, body, rule, want) in self.CASES.items():
            with self.subTest(name), tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / path).parent.mkdir(parents=True)
                (Path(tmp) / path).write_text(body, encoding="utf-8")
                out = Path(tmp) / "findings.json"
                run_main(drx_verify, [
                    "--root", tmp, "--hierarchy", TestDrxVerify.HIERARCHY,
                    "-q", "--json", str(out)])
                found = json.loads(out.read_text(encoding="utf-8"))
                self.assertEqual(sum(
                    1 for f in found["findings"]
                    if f["rule"] == rule and not f["suppressed"]), want)

    def test_bare_invariant_suppression_fails_strict(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "src").mkdir()
            (Path(tmp) / "src" / "a.cpp").write_text(
                "// drx-verify: allow(raw-sync-primitive)\nstd::mutex m;\n",
                encoding="utf-8")
            args = ["--root", tmp, "--hierarchy", TestDrxVerify.HIERARCHY]
            code, _, _ = run_main(drx_verify, args)
            strict_code, out, _ = run_main(drx_verify, args + ["--strict"])
        self.assertEqual(code, 0)
        self.assertEqual(strict_code, 1)
        self.assertIn("[raw-sync-primitive] suppression without", out)


if __name__ == "__main__":
    unittest.main()
