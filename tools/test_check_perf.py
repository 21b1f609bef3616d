#!/usr/bin/env python3
"""Unit coverage for tools/check_perf.py, the CI perf-regression gate.

Exercises the gate's whole verdict surface with canned BENCH_sim.json
fixtures: clean pass, warn-band slowdown, fail-band regression,
divergence (identical=false), cells present on only one side, and
malformed input. Runs the real main() in-process by patching argv, so
the exit statuses tested here are exactly what CI sees.

Stdlib only — no third-party imports.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402


def cell(name, pps, identical=True):
    return {"name": name, "pps": pps, "identical": identical}


class GateHarness(unittest.TestCase):
    """Write fixtures to temp files and run check_perf.main()."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def _write(self, tag, cells, host_threads=None):
        path = os.path.join(self._dir.name, tag + ".json")
        doc = {"cells": cells}
        if host_threads is not None:
            doc["host_threads"] = host_threads
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_gate(self, baseline, fresh, extra_args=()):
        """Return (exit_status, stdout, stderr)."""
        argv = ["check_perf.py", "--baseline", baseline,
                "--fresh", fresh, *extra_args]
        out, err = io.StringIO(), io.StringIO()
        old_argv, sys.argv = sys.argv, argv
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = check_perf.main()
        finally:
            sys.argv = old_argv
        return status, out.getvalue(), err.getvalue()


class VerdictTest(GateHarness):
    def test_identical_run_passes(self):
        base = self._write("base", [cell("crc", 1000.0),
                                    cell("route", 2000.0)])
        status, out, _ = self.run_gate(base, base)
        self.assertEqual(status, 0)
        self.assertIn("check_perf: pass (0 warning(s))", out)
        self.assertIn("ok   crc", out)

    def test_small_slowdown_warns_but_passes(self):
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 850.0)])  # 0.85x
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 0)
        self.assertIn("WARN crc", out)
        self.assertIn("pass (1 warning(s))", out)

    def test_large_regression_fails(self):
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 500.0)])  # 0.50x
        status, out, err = self.run_gate(base, fresh)
        self.assertEqual(status, 1)
        self.assertIn("FAIL crc", out)
        self.assertIn("1 cell(s) regressed past 30%", err)

    def test_speedup_is_a_clean_pass(self):
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 3000.0)])
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 0)
        self.assertIn("3.00x", out)

    def test_divergence_fails_even_when_fast(self):
        # identical=false means a repeat run of the cell produced
        # different results than the timed run — timing is irrelevant.
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh",
                            [cell("crc", 9000.0, identical=False)])
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 1)
        self.assertIn("repeat run DIVERGED from the timed run", out)

    def test_one_divergence_poisons_a_passing_run(self):
        base = self._write("base", [cell("crc", 1000.0),
                                    cell("route", 2000.0)])
        fresh = self._write("fresh",
                            [cell("crc", 1000.0),
                             cell("route", 2000.0, identical=False)])
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 1)
        self.assertIn("ok   crc", out)
        self.assertIn("route: repeat run DIVERGED", out)

    def test_thresholds_are_configurable(self):
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 850.0)])
        # 0.85x fails when the fail line moves up to 0.9 ...
        status, _, _ = self.run_gate(base, fresh,
                                     ("--fail-below", "0.9",
                                      "--warn-below", "0.95"))
        self.assertEqual(status, 1)
        # ... and passes without a warning when both lines drop.
        status, out, _ = self.run_gate(base, fresh,
                                       ("--fail-below", "0.5",
                                        "--warn-below", "0.6"))
        self.assertEqual(status, 0)
        self.assertIn("pass (0 warning(s))", out)


class HostThreadsTest(GateHarness):
    def test_host_mismatch_downgrades_regression_to_warning(self):
        # A 0.50x regression fails on the same host but only warns
        # when the two documents were measured on different machines.
        base = self._write("base", [cell("crc", 1000.0)],
                           host_threads=8)
        fresh = self._write("fresh", [cell("crc", 500.0)],
                            host_threads=1)
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 0)
        self.assertIn("NOTE host_threads differ (baseline 8, fresh 1)",
                      out)
        self.assertIn("WARN crc", out)
        self.assertIn("[host mismatch: warn only]", out)

    def test_same_host_still_fails(self):
        base = self._write("base", [cell("crc", 1000.0)],
                           host_threads=4)
        fresh = self._write("fresh", [cell("crc", 500.0)],
                            host_threads=4)
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 1)
        self.assertIn("FAIL crc", out)

    def test_absent_host_threads_keeps_hard_gate(self):
        # Documents from before the field existed must not silently
        # lose the hard gate.
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 500.0)],
                            host_threads=1)
        status, _, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 1)

    def test_host_mismatch_never_excuses_divergence(self):
        base = self._write("base", [cell("crc", 1000.0)],
                           host_threads=8)
        fresh = self._write("fresh",
                            [cell("crc", 1000.0, identical=False)],
                            host_threads=1)
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 1)
        self.assertIn("DIVERGED", out)


class CellSetTest(GateHarness):
    def test_new_cell_without_baseline_passes(self):
        # The cell set may legitimately grow; a fresh cell with no
        # baseline is reported but never gates.
        base = self._write("base", [cell("crc", 1000.0)])
        fresh = self._write("fresh", [cell("crc", 1000.0),
                                      cell("lpm", 700.0)])
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 0)
        self.assertIn("lpm: new cell (no baseline)", out)

    def test_baseline_only_cell_is_reported_not_failed(self):
        base = self._write("base", [cell("crc", 1000.0),
                                    cell("nat", 900.0)])
        fresh = self._write("fresh", [cell("crc", 1000.0)])
        status, out, _ = self.run_gate(base, fresh)
        self.assertEqual(status, 0)
        self.assertIn("nat: in baseline only", out)


class MalformedInputTest(GateHarness):
    def assert_malformed(self, baseline, fresh):
        status, _, err = self.run_gate(baseline, fresh)
        self.assertEqual(status, 2)
        self.assertIn("check_perf:", err)

    def test_missing_file(self):
        base = self._write("base", [cell("crc", 1000.0)])
        self.assert_malformed(base,
                              os.path.join(self._dir.name, "no.json"))

    def test_not_json(self):
        base = self._write("base", [cell("crc", 1000.0)])
        path = os.path.join(self._dir.name, "junk.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("not json {")
        self.assert_malformed(base, path)

    def test_missing_cells_array(self):
        base = self._write("base", [cell("crc", 1000.0)])
        path = os.path.join(self._dir.name, "empty.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"host": "x"}, f)
        self.assert_malformed(base, path)

    def test_cell_without_name_or_pps(self):
        base = self._write("base", [cell("crc", 1000.0)])
        bad = self._write("bad", [{"name": "crc"}])
        self.assert_malformed(base, bad)

    def test_nonpositive_pps(self):
        base = self._write("base", [cell("crc", 1000.0)])
        bad = self._write("badpps", [cell("crc", 0.0)])
        self.assert_malformed(base, bad)


if __name__ == "__main__":
    unittest.main()
