#!/usr/bin/env python3
"""ctest gate: drx_verify must flag every seeded corpus defect — and
nothing else.

The corpus under tests/verify/corpus/ is real, compiling C++ (built as
an OBJECT library by tests/CMakeLists.txt); each file seeds a known
defect class. This script pins the analyzer's recall (every seeded
defect found, with exact per-file counts) and its precision (zero
findings beyond the seeded ones), so a frontend or pass regression
fails tier-1 immediately.

Usage: check_corpus.py [--root REPO_ROOT]
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# (rule, file) -> exact expected finding count. Keep in sync with the
# "Expected findings" header comments in the corpus files.
EXPECTED = {
    ("lock-order", "tests/verify/corpus/lock_order_inversion.cpp"): 2,
    ("blocking-under-lock",
     "tests/verify/corpus/flush_under_shard_lock.cpp"): 2,
    ("error-discipline", "tests/verify/corpus/dropped_status.cpp"): 3,
    ("layering", "tests/verify/corpus/layering_violation.cpp"): 1,
    ("raw-sync-primitive", "tests/verify/corpus/raw_sync_primitive.cpp"): 2,
    ("unannotated-mutex-member",
     "tests/verify/corpus/unguarded_mutex_member.cpp"): 1,
    ("hot-path-obs-guard", "tests/verify/corpus/unguarded_push_span.cpp"): 1,
    ("axial-mutation", "tests/verify/corpus/axial_mutation.cpp"): 1,
    ("pool-submit-opctx", "tests/verify/corpus/submit_without_opctx.cpp"): 2,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "findings.json"
        proc = subprocess.run(
            [sys.executable, str(args.root / "scripts" / "drx_verify"),
             "--root", str(args.root),
             "--src-root", "tests/verify/corpus",
             "--json", str(out), "-q"],
            capture_output=True, text=True)
        if proc.returncode != 1:
            print(f"FAIL: expected exit 1 (findings present), got "
                  f"{proc.returncode}\nstdout: {proc.stdout}\n"
                  f"stderr: {proc.stderr}")
            return 1
        payload = json.loads(out.read_text(encoding="utf-8"))

    got: dict = {}
    for f in payload["findings"]:
        if f["suppressed"]:
            print(f"FAIL: corpus finding unexpectedly suppressed: {f}")
            return 1
        got[(f["rule"], f["file"])] = got.get((f["rule"], f["file"]), 0) + 1

    failed = False
    for key, want in sorted(EXPECTED.items()):
        have = got.pop(key, 0)
        status = "ok" if have == want else "FAIL"
        if have != want:
            failed = True
        print(f"{status}: {key[1]} [{key[0]}] expected {want}, got {have}")
    for key, have in sorted(got.items()):
        failed = True
        print(f"FAIL: unexpected finding(s): {key[1]} [{key[0]}] x{have}")

    if failed:
        return 1
    print(f"corpus gate: all {sum(EXPECTED.values())} seeded defects "
          f"flagged, no extras")
    return 0


if __name__ == "__main__":
    sys.exit(main())
