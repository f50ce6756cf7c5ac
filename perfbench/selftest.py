"""Tests of the benchmark itself: its oracles, its checks, and a smoke run.

    python3 perfbench/selftest.py            # everything (about a minute)
    python3 perfbench/selftest.py -k Checks  # one group

Run from the root of a checkout.  The file is not named test_*.py, so the
repository's own test suite does not collect it.
"""

import json
import math
import os
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import rhmsp  # noqa: E402
import rhmsp.norms  # noqa: E402
from scipy import integrate  # noqa: E402
from scipy.special import gamma  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckError  # noqa: E402


def gauss_legendre_raw(alpha, hurst, periods=4000, order=64):
    """A cruder route to N(alpha, H): Gauss-Legendre on each period up to
    `periods`, the rest from the period mean of |e^{iy} - 1|^alpha."""
    s = 1.0 + alpha * hurst
    x, w = np.polynomial.legendre.leggauss(order)
    two_pi = 2.0 * math.pi
    q = alpha - s + 1.0          # y = 2 pi v^{1/q} flattens y^{alpha - s}
    v = 0.5 * (x + 1.0)
    y = two_pi * v ** (1.0 / q)
    first = 0.5 * np.sum(w * (2.0 * np.abs(np.sin(0.5 * y))) ** alpha
                         * y ** (-s) * two_pi / q * v ** (1.0 / q - 1.0))
    u = np.pi * (x[None, :] + 1.0)
    ks = np.arange(1, periods)[:, None]
    body = np.pi * np.sum(w * (2.0 * np.abs(np.sin(0.5 * u))) ** alpha
                          * (two_pi * ks + u) ** (-s))
    mean = gamma(alpha + 1.0) / gamma(0.5 * alpha + 1.0) ** 2
    return 2.0 * (first + body + mean * (two_pi * periods) ** (1.0 - s) / (s - 1.0))


class Oracles(unittest.TestCase):
    def test_norm_constant_reference_value(self):
        # alpha = 1.5, H = 0.5, t = 1 by an earlier, separate period sum
        self.assertAlmostEqual(oracles.single_time_raw(1.5, 0.5, 1.0) ** (1 / 1.5),
                               3.749854009, places=8)

    def test_norm_constant_two_routes(self):
        for alpha in (1.2, 1.5, 1.8):
            for hurst in (0.3, 0.5, 0.8):
                ratio = oracles.norm_constant(alpha, hurst) / gauss_legendre_raw(alpha, hurst)
                self.assertLess(abs(ratio - 1.0), 1e-8, (alpha, hurst))

    def test_density_integrates_to_one(self):
        total, _ = integrate.quad(lambda x: oracles.sas_density(1.5, 0.7, x),
                                  -np.inf, np.inf, limit=400)
        self.assertAlmostEqual(total, 1.0, places=6)
        self.assertAlmostEqual(oracles.sas_density(1.5, 0.7, 1e-9),
                               oracles.sas_density(1.5, 0.7, 0.0), places=9)

    def test_ft_closed_form_vanishes_past_t(self):
        self.assertEqual(oracles.ft_closed_form(1.5, 1.0, 1.5), 0.0)
        self.assertGreater(oracles.ft_closed_form(1.5, 1.0, 0.5), 0.0)

    def test_lepage_value_matches_program(self):
        spec = wl._spec(rhmsp, 1.5, "sine", (0.55, 0.1, 2.0, 1.0))
        grid = tuple(np.linspace(0.0, 1.0, 9))
        ens = rhmsp.sample_paths(spec, grid, 2, rhmsp.LePageConfig(
            terms=500, seed=5, tail_compensation=False))
        law = wl._Law(1.5, "sine", (0.55, 0.1, 2.0, 1.0))
        value, scale = oracles.lepage_value(1.5, law.h(grid[3]), grid[3], 5, 1, 500)
        self.assertLess(abs(value - ens.paths[1, 3]), 1e-12 * scale)


def _ops(name, kind, seed=3):
    return [op for op in wl.WORKLOADS[name](rhmsp, seed, 0) if op.kind == kind]


class Checks(unittest.TestCase):
    """Every check takes the right output and rejects a perturbed one."""

    def assert_rejects(self, fn, out):
        with self.assertRaises(CheckError):
            fn(out)

    def test_norm_off_by_ten_tolerances(self):
        op = _ops("norm_queries", "scale_norm")[0]
        norm = op.call()
        op.check(norm)
        self.assert_rejects(op.check, norm * (1.0 + 10.0 * 1e-8))
        self.assert_rejects(op.check, norm * (1.0 - 10.0 * 1e-8))

    def test_single_time_cf_off_by_ten_tolerances(self):
        op = _ops("norm_queries", "exact_cf")[0]
        cf = op.call()
        op.check(cf)
        op.deep_check(cf)
        self.assert_rejects(op.check, cf ** (1.0 + 10.0 * 1e-6))
        self.assert_rejects(op.check, 1.5)

    def test_const_increment_off_by_ten_tolerances(self):
        op = _ops("norm_queries", "increment_norm")[0]   # first spec is const H
        inc = op.call()
        op.check(inc)
        self.assert_rejects(op.check, inc * (1.0 + 10.0 * 1e-6))

    def test_multi_time_cf_properties(self):
        op = _ops("norm_queries", "exact_cf")[1]
        cf = op.call()
        op.check(cf)
        op.deep_check(cf)
        self.assert_rejects(op.deep_check, cf ** (1.0 + 10.0 * 1e-6))
        self.assert_rejects(op.check, 1e-300)      # breaks the triangle bound

    def test_ft_check_report(self):
        op = _ops("norm_queries", "ft_check")[0]
        rep = op.call()
        op.check(rep)
        bad = rhmsp.CheckReport(check="ft_check", parameters=rep.parameters,
                                metric=2e-4, threshold=1e-4, direction="<=", passed=False)
        self.assert_rejects(op.check, bad)

    def test_m2_below_jensen(self):
        op = _ops("local_moments", "local_time_second_moment")[0]
        level = 0.0
        mean = oracles.mean_local_time(1.5, 0.5, 0.5, 0.04, level)
        self.assert_rejects(op.check, 0.5 * mean * mean)

    def test_lnd_ratio_above_one(self):
        op = _ops("local_moments", "lnd_study")[0]
        row = {"kernel": "X", "spacing": 2.0 ** -5, "ratio": 1.01, "argmin": [0.53]}
        bad = rhmsp.CheckReport(check="lnd_study", parameters={"table": [row]},
                                metric=1.01, threshold=0.5, direction=">=", passed=True)
        self.assert_rejects(op.check, bad)

    def test_const_localizability_above_four_tolerances(self):
        op = _ops("local_moments", "localizability_error")[0]
        bad = rhmsp.CheckReport(check="localizability_error", parameters={},
                                metric=5e-6, threshold=0.05, direction="<=", passed=True)
        self.assert_rejects(op.check, bad)

    def test_paths(self):
        ops = wl.paths(rhmsp, 4, 0)
        outputs = [op.call() for op in ops]
        for op, out in zip(ops, outputs):
            if op.check is not None:
                op.check(out)
        # a wrong stream: path 1 drawn from another seed
        ens = outputs[0]
        other = rhmsp.sample_paths(ens.spec, ens.grid, 2, rhmsp.LePageConfig(
            terms=ens.config.terms, seed=ens.config.seed + 1, tail_compensation=False))
        wrong = ens.paths.copy()
        wrong[:] = other.paths[1]
        bad = rhmsp.PathEnsemble(grid=ens.grid, paths=wrong, spec=ens.spec,
                                 config=ens.config, per_path_seeds=ens.per_path_seeds)
        self.assert_rejects(ops[0].check, bad)
        # the per-path prefix property, on the window ensemble
        window = outputs[-2]
        ops[-2].deep_check(window)
        shifted = window.paths.copy()
        shifted[:] = np.roll(shifted, 1, axis=0)
        self.assert_rejects(ops[-2].deep_check, rhmsp.PathEnsemble(
            grid=window.grid, paths=shifted, spec=window.spec, config=window.config,
            per_path_seeds=window.per_path_seeds))
        # an empirical cf just outside its band
        cf_ens = outputs[6]
        cf_op = ops[7]
        emp, se = outputs[7]
        point = cf_op.call.__defaults__[0]
        exact = math.exp(-abs(point.coeffs[0]) ** 1.5 * oracles.single_time_raw(
            1.5, cf_ens.spec.hurst.params[0], point.times[0]))
        band = 3.0 * se + rhmsp.bias_budget(cf_ens.spec.alpha, cf_ens.config.terms)
        cf_op.check((exact + 0.99 * band, se))
        self.assert_rejects(cf_op.check, (exact + 1.01 * band, se))
        # Hoelder slope far from H, occupation mass off
        holder = outputs[1]
        params = dict(holder.parameters, median_slope=holder.parameters["median_slope"] + 1.0)
        self.assert_rejects(ops[1].check, rhmsp.CheckReport(
            check="holder_slope", parameters=params, metric=1.0, threshold=0.1,
            direction="<=", passed=False))
        est = outputs[2]
        self.assert_rejects(ops[2].check, rhmsp.localtime.LocalTimeEstimate(
            window=est.window, x_grid=est.x_grid, values=est.values * (1 + 1e-8),
            bin_width=est.bin_width, path_dt=est.path_dt))


class Smoke(unittest.TestCase):
    """One round of every workload, through the worker, checks included."""

    def run_workload(self, name):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
             "--workload", name, "--seed", "11", "--seconds", "0"],
            capture_output=True, text=True, timeout=170, check=True)
        record = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(record["rounds"], 1)
        self.assertTrue(record["correct"], record["errors"])
        return record

    def test_norm_queries(self):
        record = self.run_workload("norm_queries")
        self.assertEqual(record["failed"], 1, record["failures"])   # the known fault

    def test_local_moments(self):
        self.assertEqual(self.run_workload("local_moments")["failed"], 0)

    def test_paths(self):
        self.assertEqual(self.run_workload("paths")["failed"], 0)


if __name__ == "__main__":
    unittest.main()
