#!/usr/bin/env python3
"""Exit-code and output regression test for the `drx inspect` CLI, run
from ctest over the golden images in tests/golden.

Usage: test_inspect_cli.py <path-to-drx> <golden-dir>

Locks in the documented contract (tools/drx.cpp header):
  0  success
  1  the .xmd image was unreadable or malformed
  2  usage error
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

DRX = None
GOLDEN = None


def run_inspect(*args):
    proc = subprocess.run([DRX, "inspect", *args], capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestInspectCli(unittest.TestCase):
    def image(self, name):
        return str(Path(GOLDEN) / name)

    def test_no_args_is_usage_error(self):
        code, _, err = run_inspect()
        self.assertEqual(code, 2)
        self.assertIn("usage", err)

    def test_json_and_chunk_table_together_is_usage_error(self):
        code, _, _ = run_inspect("--json", "--chunk-table",
                                 self.image("v1_raw"))
        self.assertEqual(code, 2)

    def test_missing_array_exits_one(self):
        code, _, err = run_inspect(self.image("absent"))
        self.assertEqual(code, 1)
        self.assertIn("cannot read", err)

    def test_malformed_image_exits_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "junk.xmd").write_bytes(b"not an xmd image")
            code, _, _ = run_inspect(str(Path(tmp) / "junk"))
        self.assertEqual(code, 1)

    def test_json_of_raw_image(self):
        code, out, err = run_inspect("--json", self.image("v1_raw"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        doc = json.loads(out)
        self.assertEqual(doc["rank"], 2)
        self.assertEqual(doc["codec"], "none")
        self.assertEqual(doc["total_chunks"], 9)
        self.assertEqual(doc["address_order_runs"], 1)
        self.assertEqual(doc["element_bounds"], [6, 9])
        self.assertNotIn("chunk_slots", doc)

    def test_json_of_rle_image(self):
        code, out, err = run_inspect("--json", self.image("v2_rle"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        doc = json.loads(out)
        self.assertEqual(doc["rank"], 2)
        self.assertEqual(doc["codec"], "rle")
        self.assertEqual(doc["total_chunks"], 6)
        self.assertEqual(doc["address_order_runs"], 1)
        slots = doc["chunk_slots"]
        self.assertEqual(len(slots), 6)
        self.assertTrue(all(s["codec"] == "rle" for s in slots))
        # A relocated slot leaves the file's end past the live slots.
        self.assertGreater(doc["data_end"],
                           sum(s["capacity"] for s in slots))

    def test_chunk_table_of_raw_image(self):
        code, out, err = run_inspect("--chunk-table", self.image("v1_raw"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("rank            : 2", out)
        self.assertIn("codec           : none", out)
        self.assertIn("chunks          : 9 ", out)
        self.assertIn("address order   : 1 storage-contiguous run(s)", out)
        # F* addresses of the 3x3 chunk grid: the initial 2x2 block, the
        # row extension (4, 5), then the column extension (6, 7, 8).
        table = out.split("chunk address table (rows = D0, cols = D1):\n")[1]
        rows = [[int(x) for x in ln.split()] for ln in table.splitlines()]
        self.assertEqual(rows, [[0, 2, 6], [1, 3, 7], [4, 5, 8]])

    def test_chunk_table_of_rle_image(self):
        code, out, err = run_inspect("--chunk-table", self.image("v2_rle"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("rank            : 2", out)
        self.assertIn("codec           : rle", out)
        self.assertIn("chunks          : 6 ", out)
        self.assertIn("address order   : 1 storage-contiguous run(s)", out)
        self.assertIn("chunk address table", out)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    GOLDEN = sys.argv.pop(2)
    DRX = sys.argv.pop(1)
    unittest.main()
