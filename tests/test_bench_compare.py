#!/usr/bin/env python3
"""Exit-status contract of scripts/bench_compare.py's column kinds.

Usage: test_bench_compare.py PATH/TO/bench_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = sys.argv.pop(1) if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(__file__), "..", "scripts", "bench_compare.py")

BASE = {
    ("bench_fig10_morphing", "10KB", "PBIO-morph"): 1.0,
    ("bench_fig10_morphing", "10KB", "XML/XSLT"): 50.0,
    ("bench_fig10_morphing", "10KB", "XSLT/morph"): 50.0,
    ("bench_fig10_morphing", "4-hop", "hop/fused"): 2.0,
    ("bench_fanout", "1k x 3", "morphs_evt"): 2.0,
    ("bench_pbuf", "10KB", "Pbuf/PBIO"): 10.0,
}


def dump(path, cells):
    gauges = {f'bench_ms{{bench="{b}",row="{r}",col="{c}"}}': v
              for (b, r, c), v in cells.items()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": "morph-metrics-v1", "gauges": gauges}, f)


class BenchCompareKinds(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base.json")
        dump(self.base, BASE)

    def tearDown(self):
        self.tmp.cleanup()

    def compare(self, changes):
        """Exit status of BASE vs BASE with `changes` ({col: value}) applied;
        a column BASE lacks is added as a new cell."""
        cur = dict(BASE)
        for col, value in changes.items():
            cur[next((k for k in cur if k[2] == col), ("bench_x", "row", col))] = value
        path = os.path.join(self.tmp.name, "cur.json")
        dump(path, cur)
        return subprocess.run([sys.executable, SCRIPT, self.base, path],
                              capture_output=True, text=True).returncode

    def test_unchanged_passes(self):
        self.assertEqual(self.compare({}), 0)

    def test_xml_xslt_is_a_timing(self):
        self.assertEqual(self.compare({"XML/XSLT": 60.0}), 1)  # +20% slower
        self.assertEqual(self.compare({"XML/XSLT": 40.0}), 0)  # faster is fine

    def test_hop_fused_is_a_ratio(self):
        self.assertEqual(self.compare({"hop/fused": 1.6}), 1)  # -20%

    def test_pbuf_pbio_regresses_when_it_rises(self):
        # The bridge's cost over PBIO's: a speed-up lowers it.
        self.assertEqual(self.compare({"Pbuf/PBIO": 8.0}), 0)   # -20%
        self.assertEqual(self.compare({"Pbuf/PBIO": 12.0}), 1)  # +20%

    def test_morphs_evt_is_an_exact_count(self):
        self.assertEqual(self.compare({"morphs_evt": 3.0}), 1)

    def test_undeclared_slash_column_is_rejected(self):
        self.assertEqual(self.compare({"foo/bar": 1.0}), 2)


if __name__ == "__main__":
    unittest.main()
