"""Self-test of the benchmark's own arithmetic and plumbing.

    python3 perfbench/selftest.py            # arithmetic + toy smoke runs
    python3 perfbench/selftest.py --quick    # arithmetic only

Covers the tail-percentile choice, the kernel-entry and factor-flop
formulas for a known (B, N), the reference comparator's tolerance, the
compare verdicts, and a toy-size run of every workload through the same
entry point the benchmark contract uses.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(1_000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertIsNone(stats.tail_percentile(39))

    def test_percentile_interpolates(self):
        data = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(data, 50), 3.0)
        self.assertEqual(stats.percentile(data, 0), 1.0)
        self.assertEqual(stats.percentile(data, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(data, 90), 4.6)

    def test_quartiles_match_statistics(self):
        self.assertEqual(stats.quartiles([1.0, 2.0, 3.0, 4.0]),
                         (1.25, 2.5, 3.75))
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertAlmostEqual(stats.spread([1.0, 2.0, 3.0, 4.0]), 1.0)


class CostArithmetic(unittest.TestCase):
    def test_kernel_entries(self):
        # 3 samples x 2 frequencies x a 64 x 64 block x 2 media.
        self.assertEqual(stats.kernel_entries(3, 2, 64), 49_152)
        self.assertEqual(stats.kernel_entries(1, 1, 100), 20_000)

    def test_factor_flops(self):
        # N = 16 unknowns per field: a 32 x 32 complex system,
        # (8/3) 32^3 for getrf plus 8 * 32^2 for getrs.
        self.assertAlmostEqual(stats.factor_flops(1, 16),
                               8.0 / 3.0 * 32 ** 3 + 8 * 32 ** 2)
        self.assertAlmostEqual(stats.factor_flops(4, 64),
                               4 * (8.0 / 3.0 * 128 ** 3 + 8 * 128 ** 2))


def _point(mean, values):
    return {"scenario": "s", "frequency_hz": 1e9, "estimator": "sscm1",
            "n_evals": len(values), "mean": mean, "values": list(values)}


class Comparator(unittest.TestCase):
    ref = [_point(1.25, [1.0, 1.5])]

    def test_exact_is_bit_identical(self):
        problems, identical = references.compare(
            [_point(1.25, [1.0, 1.5])], self.ref)
        self.assertEqual(problems, [])
        self.assertTrue(identical)

    def test_within_tolerance_passes_but_is_not_identical(self):
        problems, identical = references.compare(
            [_point(1.25 * (1 + 5e-7), [1.0, 1.5])], self.ref)
        self.assertEqual(problems, [])
        self.assertFalse(identical)

    def test_beyond_tolerance_fails(self):
        problems, _ = references.compare(
            [_point(1.25, [1.0 * (1 + 2e-6), 1.5])], self.ref)
        self.assertEqual(len(problems), 1)

    def test_shape_and_identity_mismatch_fail(self):
        self.assertTrue(references.compare([], self.ref)[0])
        self.assertTrue(references.compare(
            [_point(1.25, [1.0])], self.ref)[0])
        other = dict(self.ref[0], scenario="t")
        self.assertTrue(references.compare([other], self.ref)[0])

    def test_rtol_boundary(self):
        self.assertTrue(stats.within_rtol(1.0 + 1e-6, 1.0, 1e-6))
        self.assertFalse(stats.within_rtol(1.0 + 1.1e-6, 1.0, 1e-6))
        self.assertTrue(stats.within_rtol(5e-7, 0.0, 1e-6))


class Verdicts(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0]
        self.assertEqual(run.verdict(base, [10.0, 10.05, 9.95, 10.0],
                                     "lower", 0.1), "same")
        self.assertEqual(run.verdict(base, [12.0, 12.1, 11.9, 12.0],
                                     "lower", 0.1), "worse")
        self.assertEqual(run.verdict(base, [8.0, 8.1, 7.9, 8.0],
                                     "lower", 0.1), "better")
        noisy = [5.0, 15.0, 10.0, 10.0]
        self.assertEqual(run.verdict(noisy, base, "lower", 0.1),
                         "unresolved")
        self.assertEqual(run.verdict([3.0, 3.0], [3.0], "lower", None),
                         "equal")
        self.assertEqual(run.verdict([3.0], [4.0], "lower", None),
                         "changed")


class ToySmoke(unittest.TestCase):
    """Every workload end to end at toy size, traced and untraced."""

    def _run(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--toy", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_workloads(self):
        names = {m["name"] for m in run.contract()["end_to_end"]}
        layers = {m["name"] for m in run.contract()["per_layer"]}
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                plain = self._run(workload, 0)
                self.assertTrue(plain["correct"], plain)
                self.assertEqual(set(plain["metrics"]), names)
                traced = self._run(workload, 1)
                self.assertTrue(traced["correct"], traced)
                self.assertEqual(set(traced["metrics"]), layers)
                solves = traced["metrics"]["swm.solves"]["value"]
                if workload == "service_warm":
                    self.assertEqual(solves, 0)
                else:
                    self.assertEqual(
                        solves,
                        traced["metrics"]["stochastic.eval_points"]["value"])
                    self.assertEqual(
                        traced["metrics"]["engine.fused_frac"]["value"], 0)


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    if quick:
        sys.argv.remove("--quick")
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite(
        loader.loadTestsFromTestCase(case)
        for case in (TailPercentile, CostArithmetic, Comparator, Verdicts)
        + (() if quick else (ToySmoke,)))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    sys.exit(0 if result.wasSuccessful() else 1)
