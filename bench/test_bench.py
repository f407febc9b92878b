"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m unittest discover -s bench -p "test_*.py"

They need neither an installed package nor pytest: the program is imported
from ``src`` and run as ``python -m confound`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import checks
import workloads as wl
from run import ROOT, SRC, WORK, calibrate, run_session, spawn, tail

DECOMPOSE_SMALL = 2_000


def _tempdir(name: str) -> Path:
    path = WORK / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CorruptedOutputs(unittest.TestCase):
    """Outputs of the real program pass; the same outputs corrupted fail."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        import confound.cli

        cls.cli = confound.cli
        cls.cells = wl.reversal_cells(seed=3, k=60, scale=200)
        cls.sc = confound.cli.parse_table_csv(wl.table_csv(cls.cells))
        cls.classification, cls.aggregate = checks.classify(cls.cells)

    def analyze_check(self, doc: dict):
        out = (json.dumps(doc, indent=2) + "\n").encode()
        return checks.check_analyze(
            out, len(self.cells), self.classification, self.aggregate,
            checks.standardized_direction(self.cells, "combined"),
        )

    def test_flipped_classification_is_caught(self):
        doc = self.cli.build_analyze_report(self.sc, standardize_ref="combined")
        self.assertIsNone(self.analyze_check(doc))
        doc["reversal"]["classification"] = "CONSISTENT"
        self.assertIn("CONSISTENT", self.analyze_check(doc))

    def test_truncated_svg_is_caught(self):
        import confound

        svg = confound.render_svg(confound.to_vectors(self.sc)).encode()
        self.assertIsNone(checks.check_plot(svg, len(self.cells)))
        self.assertIn("does not parse", checks.check_plot(svg[: len(svg) // 2], len(self.cells)))
        self.assertIsNotNone(checks.check_plot(svg.replace(b"stratum-chord", b"chord"), len(self.cells)))

    def test_generated_table_is_rechecked(self):
        text = wl.table_csv(self.cells).encode()
        self.assertIsNone(checks.check_generate(text, len(self.cells)))
        consistent = [self.cells[0]] * 2  # pooling identical strata reverses nothing
        self.assertIsNotNone(checks.check_generate(wl.table_csv(consistent).encode(), 2))
        self.assertIsNotNone(checks.check_generate(text[:-40], len(self.cells)))

    def test_standardized_direction_is_checked(self):
        doc = self.cli.build_standardize_report(self.sc, "first")
        out = self.cli.render_standardize_text(doc).encode()
        want = checks.standardized_direction(self.cells, "first")
        self.assertIsNone(checks.check_standardize(out, want))
        self.assertIsNotNone(checks.check_standardize(out, "FIRST_HIGHER"))

    def test_decompose_covariances_are_checked(self):
        import confound

        rows = wl.decompose_rows(seed=5, n=DECOMPOSE_SMALL, groups=50)
        records = confound.cli.parse_records_csv(
            wl._csv_text(("region", "x", "y"), rows), numeric_columns=("x", "y")
        )
        doc = self.cli.build_decompose_report(records, "region", "x", "y")
        expected = wl.decompose_reference(rows)
        self.assertIsNone(checks.check_decompose(json.dumps(doc).encode(), len(rows), expected))
        doc["covariance"]["within"] *= 1 + 1e-6
        self.assertIn("covariance", checks.check_decompose(json.dumps(doc).encode(), len(rows), expected))


class SessionAccounting(unittest.TestCase):
    """A session run through the real CLI counts every bad invocation."""

    def setUp(self):
        self.workdir = _tempdir("session")
        self.cells = wl.reversal_cells(seed=2, k=8, scale=100)
        (self.workdir / "table.csv").write_text(wl.table_csv(self.cells))
        self.cwd = os.getcwd()
        os.chdir(self.workdir)

    def tearDown(self):
        os.chdir(self.cwd)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def workload(self, classification: str) -> wl.Workload:
        std = checks.standardized_direction(self.cells, "combined")
        aggregate = checks.classify(self.cells)[1]
        args = ["analyze", "table.csv", "--standardize", "combined", "--format", "json"]
        check = lambda out, _: checks.check_analyze(out, len(self.cells), classification, aggregate, std)
        bad_exit = wl.Invocation("missing", ["analyze", "no-such-file.csv"], 0, lambda out, _: None)
        return wl.Workload("small", [wl.Invocation("analyze", args, 16, check), bad_exit])

    def session(self, classification: str, digests: list, verdicts: dict):
        deadline = time.monotonic() + 60
        calibrations = [calibrate(self.workdir, deadline)]
        return run_session(self.workload(classification), self.workdir, deadline, calibrations,
                           digests, verdicts)

    def test_failures_are_counted(self):
        digests, verdicts = [], {}
        good = self.session("FULL_REVERSAL", digests, verdicts)
        self.assertEqual(len(good.problems), 1)
        self.assertIn("exit code 2", good.problems[0])
        self.assertGreater(good.scaled_wall, 0.0)
        wrong = self.session("CONSISTENT", [], {})
        self.assertEqual(len(wrong.problems), 2)
        digests[0] = "0" * 64
        changed = self.session("FULL_REVERSAL", digests, verdicts)
        self.assertIn("differs from the first session", changed.problems[0])

    def test_spawn_reports_rusage(self):
        child = spawn(["-c", "x = bytearray(50 << 20)"], self.workdir / "o", self.workdir / "e",
                      time.monotonic() + 30)
        self.assertEqual(child.exit_code, 0)
        self.assertGreater(child.maxrss_kib, 50 << 10)
        self.assertGreater(child.cpu, 0.0)

    def test_spawn_kills_at_the_deadline(self):
        child = spawn(["-c", "import time; time.sleep(30)"], self.workdir / "o", self.workdir / "e",
                      time.monotonic())
        self.assertTrue(child.timed_out)
        self.assertLess(child.wall, 5.0)
        self.assertEqual(child.exit_code, -9)


class Generators(unittest.TestCase):
    def test_byte_identical_per_seed(self):
        a, b, c = _tempdir("gen-a"), _tempdir("gen-b"), _tempdir("gen-c")
        try:
            for name in wl.WORKLOADS:
                first = wl.build(name, 7, a)
                second = wl.build(name, 7, b)
                other = wl.build(name, 8, c)
                self.assertEqual(first.inputs, second.inputs)
                for info in first.inputs:
                    data = (a / info["file"]).read_bytes()
                    self.assertEqual(data, (b / info["file"]).read_bytes())
                    self.assertNotEqual(data, (c / info["file"]).read_bytes())
                    self.assertEqual(len(data), info["bytes"])
                self.assertNotEqual(first.inputs, other.inputs)
        finally:
            for d in (a, b, c):
                shutil.rmtree(d, ignore_errors=True)

    def test_planted_structure(self):
        cells = wl.reversal_cells(seed=4)
        self.assertEqual(checks.classify(cells)[0], "FULL_REVERSAL")
        self.assertGreater(len({(t1, p1) for t1, p1, _, _ in cells}), 0.95 * len(cells))
        self.assertEqual(wl.scan_reference(wl.scan_rows(4))["severity"]["classification"], "FULL_REVERSAL")
        ref = wl.decompose_reference(wl.decompose_rows(4, n=DECOMPOSE_SMALL, groups=50))
        self.assertGreater(ref["between"], 0)
        self.assertLess(ref["within"], 0)

    def test_exact_quantile_edges_match_statistics(self):
        import statistics

        rows = wl.scan_rows(6, n=5_000)
        for col in wl.SCAN_NUMERIC:
            values = [float(r[wl.SCAN_HEADER.index(col)]) for r in rows]
            exact = wl.quantile_edges(values, wl.SCAN_BINS)
            self.assertEqual(exact, statistics.quantiles(values, n=wl.SCAN_BINS, method="inclusive"))


class Harness(unittest.TestCase):
    def test_tail_has_ten_beyond(self):
        self.assertEqual(tail([float(i) for i in range(40)]), (29.0, 72.5, 10))
        self.assertEqual(tail([1.0, 3.0, 2.0]), (1.0, 0.0, 2))

    def test_runs_without_site_packages(self):
        """-S leaves site-packages (an installed confound, pytest-benchmark)
        off the path: the harness needs only the stdlib and src/."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-S", "bench/run.py", "--workload", "decompose_groups",
             "--seed", "1", "--seconds", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})

    def test_refuses_a_checkout_without_the_program(self):
        bare = _tempdir("bare")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scan_records", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
