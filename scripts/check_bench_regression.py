#!/usr/bin/env python3
"""Warn-only bench regression check against the committed baseline.

Compares a fresh DRX_BENCH_JSON report file against BENCH_baseline.json:
benches are matched by name, rows by their leading label cells, and every
shared numeric cell is compared. Simulated-time and request-count columns
are deterministic, so drift beyond the tolerance is a real behavior
change, not scheduler noise — but machine-dependent effects can still
leak in, so drift NEVER fails the build: it prints WARN lines for CI
logs (and the doctor artifact) and exits 0. Unreadable or malformed
input, on the other hand, is a broken pipeline and exits 2.
"""

import argparse
import json
import sys


class InputError(Exception):
    """A report file is unreadable or is not DRX_BENCH_JSON."""


def load_reports(path):
    reports = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as err:
                    raise InputError(f"{path}:{line_no}: invalid JSON: {err}")
                if not isinstance(doc, dict) or "bench" not in doc \
                        or "table" not in doc:
                    raise InputError(
                        f"{path}:{line_no}: not a DRX_BENCH_JSON report line "
                        "(missing 'bench'/'table')")
                reports[doc["bench"]] = doc
    except OSError as err:
        raise InputError(f"{path}: {err}")
    if not reports:
        raise InputError(f"{path}: no bench report lines")
    return reports


def as_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def row_key(row):
    """Leading non-numeric cells identify the row (pattern/mode labels)."""
    key = []
    for cell in row:
        if as_number(cell) is not None:
            break
        key.append(cell)
    return tuple(key)


def compare_tables(name, base, cur, tolerance):
    warnings = []
    headers = base["table"]["headers"]
    base_rows = {row_key(r): r for r in base["table"]["rows"]}
    cur_rows = {row_key(r): r for r in cur["table"]["rows"]}
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        if crow is None:
            warnings.append(f"{name}: row {key} missing from current report")
            continue
        for col, (bcell, ccell) in enumerate(zip(brow, crow)):
            bval, cval = as_number(bcell), as_number(ccell)
            if bval is None or cval is None:
                continue
            if bval == 0:
                drift = 0.0 if cval == 0 else float("inf")
            else:
                drift = (cval - bval) / bval
            if abs(drift) > tolerance:
                col_name = headers[col] if col < len(headers) else f"col{col}"
                warnings.append(
                    f"{name} {'/'.join(key)} [{col_name}]: "
                    f"{bval:g} -> {cval:g} ({drift:+.0%})")
    for key in cur_rows.keys() - base_rows.keys():
        warnings.append(f"{name}: new row {key} not in baseline "
                        "(update BENCH_baseline.json)")
    return warnings


def copy_coalescing_warnings(current, min_ratio):
    """Check the run-coalescing invariant from docs/PERFORMANCE.md.

    bench_scatter reports embed the obs counter snapshot; a healthy
    CopyPlan data plane moves many elements per memcpy run, so
    core.copy.elements / core.copy.runs must stay >= min_ratio. A ratio
    near 1 means some path degraded back to element-granular copies.
    """
    doc = current.get("bench_scatter")
    if doc is None:
        return ["copy-coalescing: no bench_scatter report to check"]
    counters = doc.get("metrics", {}).get("counters", {})
    runs = counters.get("core.copy.runs", 0)
    elements = counters.get("core.copy.elements", 0)
    if runs <= 0 or elements <= 0:
        return ["copy-coalescing: core.copy.runs/core.copy.elements "
                "counters missing from bench_scatter metrics"]
    ratio = elements / runs
    print(f"copy-coalescing: {elements} elements over {runs} runs "
          f"({ratio:.1f} elements/run, floor {min_ratio:g})")
    if ratio < min_ratio:
        return [f"copy-coalescing: only {ratio:.1f} elements per memcpy "
                f"run (floor {min_ratio:g}) — a scatter/gather path has "
                "regressed to element-granular copies"]
    return []


def obs_overhead_warnings(current, max_ratio):
    """Check the always-on instrumentation gate from docs/OBSERVABILITY.md.

    bench_obs_overhead reports the flight-on / flight-off wall-time ratio
    of a cache-hit-dominated workload with tracing off. The causal
    instrumentation is permanently on in production, so the ratio must
    stay under max_ratio (default 1.02 = <2% overhead). Wall-clock cells
    are machine-dependent; only the ratio row is gated.
    """
    doc = current.get("bench_obs_overhead")
    if doc is None:
        return ["obs-overhead: no bench_obs_overhead report to check"]
    warnings = []
    ratio = None
    window_ratio = None
    for row in doc["table"]["rows"]:
        if row and row[0] == "overhead" and len(row) > 1:
            ratio = as_number(row[1])
        if row and row[0] == "window_overhead" and len(row) > 1:
            window_ratio = as_number(row[1])
    if ratio is None or ratio <= 0:
        warnings.append("obs-overhead: no 'overhead' ratio row in "
                        "bench_obs_overhead report")
    else:
        print(f"obs-overhead: flight-on/flight-off wall ratio {ratio:.3f} "
              f"(gate {max_ratio:g})")
        if ratio > max_ratio:
            warnings.append(
                f"obs-overhead: always-on instrumentation costs "
                f"{(ratio - 1) * 100:.1f}% with tracing off "
                f"(gate {(max_ratio - 1) * 100:g}%) — a hot path lost its "
                "enabled-flag guard")
    if window_ratio is None or window_ratio <= 0:
        warnings.append("obs-overhead: no 'window_overhead' ratio row in "
                        "bench_obs_overhead report")
    else:
        print(f"obs-overhead: window-on/window-off wall ratio "
              f"{window_ratio:.3f} (gate {max_ratio:g})")
        if window_ratio > max_ratio:
            warnings.append(
                f"obs-overhead: windowed metrics + scrape interference "
                f"costs {(window_ratio - 1) * 100:.1f}% "
                f"(gate {(max_ratio - 1) * 100:g}%) — the scrape path is "
                "contending with the workload")
    return warnings


SERVING_BENCHES = ("bench_serving", "bench_serving_scaling")


def compression_warnings(current, min_speedup, min_mb_saved):
    """Check the compression gate from docs/COMPRESSION.md (warn-only).

    - the bench_chunk_cache_compression "rle" row's effective-bandwidth
      speedup over the uncompressed streaming scan must stay >=
      min_speedup: decoding on the pool workers plus reading the stored
      bytes has to beat moving the raw bytes, or the codec path stopped
      paying for itself (or the slot layout lost its coalescibility);
    - both compression tables must report PFS "MB saved" >= min_mb_saved
      on their compressible workloads — a collapse here means chunks are
      being stored raw (the encoder started bailing out).
    """
    warnings = []
    scan = current.get("bench_chunk_cache_compression")
    if scan is None:
        warnings.append("compression: no bench_chunk_cache_compression "
                        "report to check")
    else:
        headers = scan["table"]["headers"]
        speedup = None
        saved = None
        for row in scan["table"]["rows"]:
            if row and row[0] == "rle":
                named = dict(zip(headers, row))
                speedup = as_number(
                    str(named.get("eff bw speedup", "")).rstrip("x"))
                saved = as_number(named.get("MB saved"))
        if speedup is None:
            warnings.append("compression: no 'rle' speedup row in "
                            "bench_chunk_cache_compression")
        else:
            print(f"compression: streaming-scan effective bandwidth = "
                  f"{speedup:g}x uncompressed (floor {min_speedup:g}x)")
            if speedup < min_speedup:
                warnings.append(
                    f"compression: effective-bandwidth speedup {speedup:g}x "
                    f"under the {min_speedup:g}x floor — per-chunk decode "
                    "plus stored-byte reads no longer beat the raw scan")
        if saved is not None:
            print(f"compression: streaming scan saved {saved:g} MB of PFS "
                  f"traffic (floor {min_mb_saved:g})")
            if saved < min_mb_saved:
                warnings.append(
                    f"compression: only {saved:g} MB of PFS traffic saved "
                    f"(floor {min_mb_saved:g}) — the encoder is bailing "
                    "out on a compressible workload")
    coll = current.get("bench_collective_io_compression")
    if coll is None:
        warnings.append("compression: no bench_collective_io_compression "
                        "report to check")
    else:
        headers = coll["table"]["headers"]
        rle_rows = 0
        for row in coll["table"]["rows"]:
            named = dict(zip(headers, row))
            if named.get("mode") != "rle":
                continue
            rle_rows += 1
            saved = as_number(named.get("MB saved"))
            label = "/".join(row_key(row))
            if saved is None or saved < min_mb_saved:
                warnings.append(
                    f"compression {label}: collective read saved "
                    f"{saved if saved is not None else '?'} MB "
                    f"(floor {min_mb_saved:g}) — the slot-table file view "
                    "is moving raw bytes")
        if rle_rows == 0:
            warnings.append("compression: no 'rle' rows in "
                            "bench_collective_io_compression")
        else:
            print(f"compression: {rle_rows} collective-read rle row(s) "
                  f"checked (floor {min_mb_saved:g} MB saved each)")
    return warnings


def serving_warnings(baseline, current, p99_factor, imbalance_max,
                     min_scaling):
    """Check the serving-latency gate from docs/SERVING.md (warn-only).

    - bench_serving p99 may not exceed the baseline row by more than
      p99_factor (tails are noisy; anything past that is a regression,
      not jitter);
    - the cache shard-imbalance ratio must stay below imbalance_max,
      the same threshold the drx doctor cache-shard-imbalance detector
      warns at — a hot shard collapses per-shard locking back toward a
      single lock;
    - the closed-loop "8 shards, fast on" speedup over the pre-shard
      single-lock row must stay >= min_scaling.
    """
    warnings = []
    cur = current.get("bench_serving")
    if cur is None:
        warnings.append("serving: no bench_serving report to check")
    else:
        headers = cur["table"]["headers"]
        base = baseline.get("bench_serving")
        base_rows = ({row_key(r): r for r in base["table"]["rows"]}
                     if base else {})
        for row in cur["table"]["rows"]:
            key = row_key(row)
            label = "/".join(key) or "?"
            named = dict(zip(headers, row))
            p99 = as_number(named.get("p99 us"))
            imbalance = as_number(named.get("shard imbalance"))
            print(f"serving {label}: p99 "
                  f"{p99 if p99 is not None else '?'} us, shard imbalance "
                  f"{imbalance if imbalance is not None else '?'}")
            if imbalance is not None and imbalance >= imbalance_max:
                warnings.append(
                    f"serving {label}: shard-imbalance ratio "
                    f"{imbalance:g} >= {imbalance_max:g} — one cache shard "
                    "is hot; per-shard locking is degrading toward a "
                    "single lock")
            brow = base_rows.get(key)
            if brow is not None and p99 is not None:
                bnamed = dict(zip(base["table"]["headers"], brow))
                bp99 = as_number(bnamed.get("p99 us"))
                if bp99 and p99 > bp99 * p99_factor:
                    warnings.append(
                        f"serving {label}: p99 {p99:g} us vs baseline "
                        f"{bp99:g} us (> {p99_factor:g}x) — the serving "
                        "tail regressed")
    scaling = current.get("bench_serving_scaling")
    if scaling is None:
        warnings.append("serving: no bench_serving_scaling report to check")
    else:
        speedup = None
        for row in scaling["table"]["rows"]:
            if row and row[0].startswith("8 shards, fast on"):
                named = dict(zip(scaling["table"]["headers"], row))
                speedup = as_number(str(named.get("speedup", "")).rstrip("x"))
        if speedup is None:
            warnings.append("serving: no '8 shards, fast on' row in "
                            "bench_serving_scaling")
        else:
            print(f"serving-scaling: 8 shards + fast path = {speedup:g}x "
                  f"the single-lock cache (floor {min_scaling:g}x)")
            if speedup < min_scaling:
                warnings.append(
                    f"serving: sharded-cache speedup {speedup:g}x under "
                    f"the {min_scaling:g}x floor — sharding or the "
                    "resident-read fast path stopped paying for itself")
    return warnings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="check_bench_regression.py",
        description="Compare a fresh DRX_BENCH_JSON report against the "
                    "committed baseline and print WARN lines for numeric "
                    "cells drifting beyond the tolerance.",
        epilog="Exit codes: 0 on success (drift only warns, by design), "
               "2 if either report is unreadable or malformed.")
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument("current", help="freshly generated report")
    parser.add_argument(
        "tolerance", nargs="?", type=float, default=0.25,
        help="allowed relative drift per cell (default: 0.25 = 25%%)")
    parser.add_argument(
        "--copy-coalescing", type=float, nargs="?", const=5.0, default=None,
        metavar="MIN_RATIO",
        help="also require core.copy.elements/core.copy.runs >= MIN_RATIO "
             "in the current bench_scatter metrics (default floor: 5)")
    parser.add_argument(
        "--obs-overhead", type=float, nargs="?", const=1.02, default=None,
        metavar="MAX_RATIO",
        help="also require the bench_obs_overhead flight-on/flight-off "
             "wall-time ratio <= MAX_RATIO (default gate: 1.02, i.e. <2%% "
             "always-on instrumentation overhead; warn-only like "
             "everything else)")
    parser.add_argument(
        "--compression", action="store_true",
        help="compression mode (docs/COMPRESSION.md): gate the "
             "bench_chunk_cache_compression effective-bandwidth speedup "
             "(>= 1.2x uncompressed) and the PFS bytes saved by both "
             "compression tables (>= 1 MB on the compressible workloads); "
             "warn-only")
    parser.add_argument(
        "--serving", action="store_true",
        help="serving-latency mode (docs/SERVING.md): compare only the "
             "bench_serving/bench_serving_scaling tables and gate the p99 "
             "tail (4x the baseline), the cache shard-imbalance ratio "
             "(< 1.5) and the sharded-cache speedup (>= 1.5x); warn-only")
    args = parser.parse_args(argv)

    try:
        baseline = load_reports(args.baseline)
        current = load_reports(args.current)
    except InputError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2

    if args.serving:
        # Serving tables carry wall-clock latency cells; generic per-cell
        # drift comparison would be pure noise, so only the targeted
        # serving gates run in this mode.
        baseline = {k: v for k, v in baseline.items()
                    if k in SERVING_BENCHES}
        current = {k: v for k, v in current.items() if k in SERVING_BENCHES}

    warnings = []
    if args.serving:
        warnings.extend(serving_warnings(
            baseline, current, p99_factor=4.0, imbalance_max=1.5,
            min_scaling=1.5))
    else:
        for name, base in baseline.items():
            cur = current.get(name)
            if cur is None:
                warnings.append(f"{name}: bench missing from current report")
                continue
            warnings.extend(compare_tables(name, base, cur, args.tolerance))
    if args.compression:
        warnings.extend(compression_warnings(current, min_speedup=1.2,
                                             min_mb_saved=1.0))
    if args.copy_coalescing is not None:
        warnings.extend(copy_coalescing_warnings(current,
                                                 args.copy_coalescing))
    if args.obs_overhead is not None:
        warnings.extend(obs_overhead_warnings(current, args.obs_overhead))

    compared = sorted(set(baseline) & set(current))
    print(f"compared {len(compared)} bench(es) against baseline "
          f"(tolerance {args.tolerance:.0%}): {', '.join(compared)}")
    for msg in warnings:
        print(f"WARN: {msg}")
    if not warnings:
        print("OK: all bench rows within tolerance")
    return 0  # warn-only by design


if __name__ == "__main__":
    sys.exit(main())
