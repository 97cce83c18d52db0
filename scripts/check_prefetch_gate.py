#!/usr/bin/env python3
"""CI perf-smoke gate for the async chunk I/O engine (docs/ASYNC_IO.md).

Compares two DRX_BENCH_JSON reports from bench_chunk_cache — one with the
async engine off (DRX_IO_THREADS=0) and one with read-ahead enabled — and
fails unless prefetch-on beats prefetch-off, both in simulated time and in
storage request count (the request count is deterministic, so a scheduler
hiccup cannot mask a regression), on two scans:
  - the sequential sweep of the A2 table (bench_chunk_cache);
  - the band-written compressed scan (bench_chunk_cache_compression row
    "rle, band-written"), whose read-ahead windows, each taking every
    frame but the one its miss pins, read across storage holes.
"""

import argparse
import json
import sys


class InputError(Exception):
    """A report file is unreadable or is not a bench_chunk_cache report."""


BAND_WRITTEN_ROW = "rle, band-written"


def load_report(path):
    """Returns the bench_chunk_cache and bench_chunk_cache_compression
    report lines of one DRX_BENCH_JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    except OSError as err:
        raise InputError(f"{path}: {err}")
    docs = {}
    for line in lines:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as err:
            raise InputError(f"{path}: invalid JSON: {err}")
        if isinstance(doc, dict):
            docs.setdefault(doc.get("bench"), doc)
    if "bench_chunk_cache" not in docs:
        raise InputError(f"{path}: expected a bench_chunk_cache report")
    if "bench_chunk_cache_compression" not in docs:
        raise InputError(
            f"{path}: expected a bench_chunk_cache_compression report")
    return docs["bench_chunk_cache"], docs["bench_chunk_cache_compression"]


def sequential_cached_row(doc, path):
    try:
        rows = doc["table"]["rows"]
    except (KeyError, TypeError):
        raise InputError(f"{path}: report has no table rows")
    for i, row in enumerate(rows):
        if row and row[0] == "sequential sweep":
            try:
                cached = rows[i + 1]
                if not cached[1].startswith("CachedDrxFile"):
                    raise InputError(
                        f"{path}: unexpected row layout: {cached}")
                return float(cached[2]), int(cached[3])
            except (IndexError, ValueError, AttributeError):
                raise InputError(
                    f"{path}: malformed 'sequential sweep' rows")
    raise InputError(f"{path}: no 'sequential sweep' row found")


def band_written_row(doc, path):
    try:
        headers = doc["table"]["headers"]
        rows = doc["table"]["rows"]
    except (KeyError, TypeError):
        raise InputError(f"{path}: compression report has no table rows")
    for row in rows:
        if row and row[0] == BAND_WRITTEN_ROW:
            named = dict(zip(headers, row))
            try:
                return (float(named["sim ms"]),
                        int(named["storage requests"]))
            except (KeyError, ValueError, TypeError):
                raise InputError(
                    f"{path}: malformed '{BAND_WRITTEN_ROW}' row")
    raise InputError(f"{path}: no '{BAND_WRITTEN_ROW}' row found")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="check_prefetch_gate.py",
        description="Fail unless the read-ahead run beats the synchronous "
                    "run on the sequential scan and on the band-written "
                    "compressed scan, in both simulated time and storage "
                    "request count.",
        epilog="Exit codes: 0 gate passed, 1 gate failed, 2 if a report "
               "is unreadable or malformed.")
    parser.add_argument("bench_off", help="report with DRX_IO_THREADS=0")
    parser.add_argument("bench_on", help="report with read-ahead enabled")
    args = parser.parse_args(argv)

    try:
        off, off_scan = load_report(args.bench_off)
        on, on_scan = load_report(args.bench_on)
        scans = [
            ("sequential cached scan",
             sequential_cached_row(off, args.bench_off),
             sequential_cached_row(on, args.bench_on)),
            ("band-written compressed scan",
             band_written_row(off_scan, args.bench_off),
             band_written_row(on_scan, args.bench_on)),
        ]
    except InputError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    issued = on.get("metrics", {}).get("counters", {}).get(
        "core.cache.prefetch_issued", 0)

    failures = []
    if issued <= 0:
        failures.append("prefetch-on run never issued a prefetch "
                        "(DRX_IO_THREADS > 0 and a non-zero "
                        "DRX_PREFETCH_DEPTH switch not applied?)")
    for name, (off_ms, off_reqs), (on_ms, on_reqs) in scans:
        print(f"{name}: off {off_ms:.1f} sim ms / {off_reqs} requests, "
              f"on {on_ms:.1f} sim ms / {on_reqs} requests")
        if not on_ms < off_ms:
            failures.append(f"{name}: sim time regressed: on {on_ms:.1f} "
                            f">= off {off_ms:.1f} ms")
        if not on_reqs < off_reqs:
            failures.append(f"{name}: storage requests regressed: on "
                            f"{on_reqs} >= off {off_reqs}")
    print(f"({issued} chunks prefetched)")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("PASS: read-ahead beats the synchronous path on both scans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
