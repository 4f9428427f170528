"""Self-test of the benchmark: short grids, rejected perturbations, clean unpatching.

    python3 perfbench/selftest.py

Runs in well under a minute. It is not collected by pytest, so the
repository's own test suite does not pay for it.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import workloads  # first: pins BLAS to one thread
import tracing
from workloads import channels, measures, np, sdp

SHORT_GRID = 9
SEED = 7


def traced_short_run(name):
    kind, curves = workloads.make_curves(name, SEED, n_points=SHORT_GRID)
    problems = [workloads.rebuild_problems(c) if kind == "tsw" else None for c in curves]
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        with tracer.span("pass") as pass_root:
            results = workloads.run_pass(kind, curves)
        with tracer.span("check") as check_root:
            checked = [workloads.check_curve(kind, r, p) for r, p in zip(results, problems)]
    return kind, curves, problems, results, checked, (tracer, pass_root, check_root)


def originals():
    return {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _ in tracing.WRAPPED}


class ShortGrids(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = originals()
        cls.runs = {name: traced_short_run(name) for name in workloads.WORKLOADS}

    def test_every_workload_passes_its_check(self):
        for name, (_, _, _, _, checked, _) in self.runs.items():
            for failed, reasons in checked:
                self.assertEqual(failed, {}, name)
                self.assertEqual(reasons, [], name)

    def test_layer_metrics_and_split(self):
        for name, (_, _, _, results, _, (tracer, root, check)) in self.runs.items():
            m = tracing.layer_metrics(name, tracer, root, check, results, root.duration)
            if name == "nc_compare":
                self.assertEqual(m["sdp.solve_calls"][0], 0)
                self.assertEqual(m["measures.concurrence_calls"][0], 3 * SHORT_GRID)
            else:
                self.assertGreaterEqual(m["sdp.solve_calls"][0], SHORT_GRID)
                self.assertGreater(m["sdp.certificate_s"][0], 0.0)
                self.assertGreater(m["sdp.newton_steps"][0], 0)

    def test_missing_layer_fails_the_traced_run(self):
        _, _, _, results, _, (tracer, root, check) = self.runs["nc_compare"]
        with self.assertRaisesRegex(RuntimeError, "sdp.solve"):
            tracing.layer_metrics("exchange_tsw", tracer, root, check, results, 0.0)

    def test_wrappers_are_restored(self):
        self.assertEqual(originals(), self.before)
        self.assertIs(measures.solve, sdp.solve)
        with self.assertRaises(ZeroDivisionError):
            with tracing.patched(tracing.Tracer()):
                self.assertIsNot(channels.rk4_evolve, self.before[("tsteer.channels", "rk4_evolve")])
                1 / 0
        self.assertEqual(originals(), self.before)

    def test_perturbed_tsw_value_is_rejected(self):
        kind, _, problems, results, _, _ = self.runs["exchange_tsw"]
        bad = copy.deepcopy(results[0])
        i = int(np.argmin(np.abs(bad.series.values - 0.5)))
        bad.series.values[i] += 1e-4
        failed, _ = workloads.check_curve(kind, bad, problems[0])
        self.assertEqual(list(failed), [i])
        self.assertIn("bracket", failed[i])

    def test_perturbed_solution_is_rejected(self):
        kind, _, problems, results, _, _ = self.runs["lorentz_tsw"]
        bad = copy.deepcopy(results[0])
        bad.series.solutions[3].mu_star += 1e-6
        failed, _ = workloads.check_curve(kind, bad, problems[0])
        self.assertIn("certificate", failed[3])

    def test_perturbed_n_tsw_is_rejected(self):
        kind, _, problems, results, _, _ = self.runs["exchange_tsw"]
        bad = copy.deepcopy(results[0])
        bad.n_tsw += 1e-6
        _, reasons = workloads.check_curve(kind, bad, problems[0])
        self.assertTrue(any("disagrees" in r for r in reasons))


class Reference(unittest.TestCase):
    def test_reference_matches_the_workloads(self):
        for name in workloads.WORKLOADS:
            _, curves = workloads.make_curves(name, workloads.DEFAULT_SEED)
            self.assertEqual(len(workloads.load_reference(name, workloads.DEFAULT_SEED, curves)),
                             len(curves))
            self.assertIsNone(workloads.load_reference(name, 1, curves))

    def test_values_off_the_reference_are_rejected(self):
        _, curves = workloads.make_curves("nc_compare", workloads.DEFAULT_SEED)
        refs = workloads.load_reference("nc_compare", workloads.DEFAULT_SEED, curves)
        for curve, ref in zip(curves, refs):
            values = np.array(ref["values"])
            series = measures.TraceSeries(curve.times(), values)
            ok = workloads.check_curve("nc", workloads.CurveResult(series), reference=ref)
            self.assertEqual(ok, ({}, []))
            i = int(np.argmin(np.abs(values - 0.5)))
            values[i] += 2 * workloads.REFERENCE_TOL
            series = measures.TraceSeries(curve.times(), values)
            failed, _ = workloads.check_curve("nc", workloads.CurveResult(series), reference=ref)
            self.assertEqual(list(failed), [i])
            self.assertIn("reference", failed[i])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        here = Path(__file__).resolve().parent
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(here, Path(tmp) / here.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(here.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{here.name}/run.py", "--workload", "nc_compare",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, PYTHONPATH=""))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
