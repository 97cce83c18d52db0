#!/usr/bin/env python3
"""CI gate: the deterministic collective numbers of drx_bench stay exact.

The collective workloads' simulated costs do not depend on thread
scheduling: zone_collective makes one request per PFS server per call,
and append_extend repeats the same episode of extends, writes and reads
on a fresh array. So their request counts and simulated times repeat to
the last digit on any machine, and a change to the storage layer that
charges one byte, seek or request more than before shows up here.

    python3 scripts/check_drx_bench_exact.py REPORT.json [REPORT.json ...]

Each REPORT is the --json output of a full-size (non-smoke) drx_bench run
of zone_collective or append_extend; the workload is read from the
report. Counts must match exactly. Simulated milliseconds are sums of
floating-point costs, whose last digits move with the accumulation order,
so they must match to a relative 1e-9.
"""

import argparse
import json
import sys

REL_TOL = 1e-9

# workload -> [(section, metric, expected value, relative tolerance)]
EXPECTED = {
    "zone_collective": [
        ("per_layer", "pfs.requests_per_op", 8, 0.0),
        ("per_layer", "pfs.seeks_per_op", 8, 0.0),
        ("per_layer", "pfs.sim_ms_min", 11.033584, REL_TOL),
        ("per_layer", "pfs.sim_ms_max", 11.033584, REL_TOL),
        ("end_to_end", "sim_ms_per_op", 11.033584, REL_TOL),
    ],
    "append_extend": [
        ("per_layer", "pfs.requests_per_op", 12.64453125, 0.0),
        ("per_layer", "pfs.seeks_per_op", 8.6328125, 0.0),
        ("per_layer", "pfs.bytes_read_per_op", 1901952, 0.0),
        ("end_to_end", "sim_ms_per_op", 12.0138010703, REL_TOL),
    ],
}


class InputError(Exception):
    """A report is unreadable or is not a full-size gated drx_bench run."""


def load_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as err:
        raise InputError(f"{path}: {err}")
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON: {err}")
    if not isinstance(doc, dict) or doc.get("workload") not in EXPECTED:
        raise InputError(f"{path}: expected a drx_bench report of one of "
                         f"{', '.join(sorted(EXPECTED))}")
    if doc.get("smoke") is not False:
        raise InputError(f"{path}: a smoke-size run; the pinned values "
                         f"are for the full size")
    return doc


def check(doc, path):
    """Returns the failure messages for one report."""
    workload = doc["workload"]
    failures = []
    if not doc.get("correct") or doc.get("failed", 0) != 0:
        failures.append(f"{workload}: the run did not read back correctly")
    for section, name, want, rel in EXPECTED[workload]:
        try:
            got = doc[section][name]["value"]
        except (KeyError, TypeError):
            raise InputError(f"{path}: {section}.{name} missing")
        if not isinstance(got, (int, float)):
            raise InputError(f"{path}: {section}.{name} is not a number")
        ok = got == want if rel == 0.0 else abs(got - want) <= rel * abs(want)
        verdict = "ok" if ok else "FAIL"
        print(f"{workload} {name}: {got!r} (want {want!r}"
              f"{'' if rel == 0.0 else f' to {rel:g} relative'}) {verdict}")
        if not ok:
            failures.append(f"{workload}: {name} = {got!r}, want {want!r}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="check_drx_bench_exact.py",
        description="Fail unless the full-size zone_collective and "
                    "append_extend reports carry their pinned request, "
                    "seek and byte counts and simulated times.",
        epilog="Exit codes: 0 every value matched, 1 a value moved, 2 if "
               "a report is unreadable, smoke-size or of another workload.")
    parser.add_argument("reports", nargs="+", help="drx_bench --json output")
    args = parser.parse_args(argv)

    failures = []
    try:
        for path in args.reports:
            failures += check(load_report(path), path)
    except InputError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("PASS: the collective workloads charge exactly the pinned costs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
