"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each test computes its metric, prints the verdict through the capture-disabled
channel so the line is always visible, and then asserts.  Workloads are sized
for a single desktop core; the whole file runs in roughly ten minutes.
"""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.special import gamma as _gamma_fn

from rhmsp import analysis, cli, localtime
from rhmsp.lepage import (LePageConfig, bias_budget, derive_constants,
                          empirical_cf, sample_paths)
from rhmsp.model import KernelVariant
from rhmsp.norms import (FddPoint, OptimizerConfig, _raw_norm_integral,
                         exact_cf, scale_norm)
from rhmsp.quad import QuadratureConfig

from conftest import make_spec

CFG6 = QuadratureConfig(rel_tol=1e-6)


def verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print("%s %s: %s" % ("PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


# ---------------------------------------------------------------------------

def test_criterion_01_constants(capsys):
    c, sigma = derive_constants(make_spec(alpha=1.5).alpha)
    a = 1.5
    # oracle 1: reflection identity for the sine integral
    ident = (math.gamma(1.0 - a) * math.cos(math.pi * a / 2.0)) ** (-1.0 / a)
    dev_c = abs(c / ident - 1.0)
    # oracle 2: Monte-Carlo absolute Gaussian moment
    rng = np.random.Generator(np.random.Philox(
        key=np.array([2024, 1], dtype=np.uint64)))
    moment = float(np.mean(np.abs(rng.standard_normal(5_000_000)) ** a))
    dev_s = abs(sigma / moment ** (-1.0 / a) - 1.0)
    ok = dev_c <= 1e-8 and dev_s <= 1e-3
    verdict(capsys, ok, "criterion 1 (constants)",
            "c dev %.2e <= 1e-8, sigma dev %.2e <= 1e-3" % (dev_c, dev_s))


def test_criterion_02_self_similarity(capsys):
    cfg = QuadratureConfig()
    worst = 0.0
    for H in (0.3, 0.5, 0.7):
        for a in (1.2, 1.5, 1.8):
            spec = make_spec(alpha=a, hurst="const:%g" % H, horizon=8.0)
            vals = [scale_norm(spec, FddPoint(times=(t,), coeffs=(1.0,)), cfg)
                    / t ** H for t in (0.25, 1.0, 4.0)]
            worst = max(worst, max(vals) / min(vals))
    thr = 1.0 + 10.0 * cfg.rel_tol
    verdict(capsys, worst <= thr, "criterion 2 (self-similarity)",
            "max/min %.12f <= %.12f" % (worst, thr))


def test_criterion_03_lepage_cf(capsys):
    spec = make_spec()
    palette = [0.125 * k for k in range(1, 9)]
    ens = sample_paths(spec, [0.0] + palette, 2000,
                       LePageConfig(terms=5000, seed=3))
    bias = bias_budget(spec.alpha, 5000)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([99, 1], dtype=np.uint64)))
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        ts = np.sort(rng.choice(palette, size=m, replace=False))
        cs = rng.uniform(-1.0, 1.0, size=m)
        cs = np.where(np.abs(cs) < 0.2, np.where(cs >= 0, 0.2, -0.2), cs)
        point = FddPoint(times=tuple(ts), coeffs=tuple(cs))
        emp, se = empirical_cf(ens, point)
        err = abs(emp - exact_cf(spec, point, CFG6))
        worst = max(worst, err / (3.0 * se + bias))
    verdict(capsys, worst <= 1.0, "criterion 3 (LePage cf)",
            "worst |emp-exact| / (3 se + %.4f bias) = %.3f <= 1" % (bias, worst))


def test_criterion_04_increment_sandwich(capsys):
    spec = make_spec(hurst="sine:0.5,0.2,2")
    lemma1, flat, sandwich = analysis.lemma_sweeps(spec, cfg=CFG6)
    ok = (sandwich.metric == 0.0 and sandwich.passed
          and flat.passed and lemma1.passed)
    verdict(capsys, ok, "criterion 4 (increment sandwich)",
            "violations %g over 50 dyadic pairs (flat max/min %.10f, "
            "Hurst-difference sup %.3f)" % (sandwich.metric, flat.metric,
                                            lemma1.metric))


def test_criterion_05_localizability(capsys):
    const_spec = make_spec()
    sine_spec = make_spec(hurst="sine:0.5,0.1,1")
    deltas = (1e-1, 1e-2, 1e-3)
    const_ms = [analysis.localizability_error(const_spec, 0.5, d, cfg=CFG6).metric
                for d in deltas]
    sine_ms = [analysis.localizability_error(sine_spec, 0.5, d, cfg=CFG6).metric
               for d in deltas]
    ok = (max(const_ms) <= 4.0 * CFG6.rel_tol
          and all(a > b for a, b in zip(sine_ms, sine_ms[1:]))
          and sine_ms[-1] <= 0.05)
    verdict(capsys, ok, "criterion 5 (localizability)",
            "const max %.2e <= 4e-6; sine %s decreasing, last <= 0.05"
            % (max(const_ms), ["%.3g" % m for m in sine_ms]))


def test_criterion_06_lnd(capsys):
    spec = make_spec(hurst="const:0.7")
    cfg5 = QuadratureConfig(rel_tol=1e-5)
    # n = 2 sanity: ratio identically one
    rep2 = analysis.lnd_study(spec, 0.5, [2.0 ** -4, 2.0 ** -6], 2, cfg=cfg5,
                              floor_value=1.0 - 10.0 * cfg5.rel_tol)
    # n = 3 across dyadic spacings, both kernels, with the chain bound
    rep3 = analysis.lnd_study(spec, 0.5, [2.0 ** -5, 2.0 ** -7], 3, cfg=cfg5,
                              opt_cfg=OptimizerConfig(grad_tol=2e-4),
                              floor_value=0.5)
    by_kernel = {}
    chain_ok = True
    for row in rep3.parameters["table"]:
        by_kernel.setdefault(row["kernel"], []).append(float(row["ratio"]))
        if "hy_chain_bound" in row:
            chain_ok &= float(row["ratio"]) >= float(row["hy_chain_bound"])
    stable = all(max(v) / min(v) <= 2.0 for v in by_kernel.values())
    # optimizer vs a coarse-to-fine grid oracle on the golden case
    times = (0.5, 0.5 + 2.0 ** -5, 0.5 + 2.0 ** -4)
    cfg4 = QuadratureConfig(rel_tol=1e-4)

    def objective(c):
        # (X(t3) - X(t2)) - c (X(t2) - X(t1)) on the times
        return _raw_norm_integral(spec, times, (c, -1.0 - c, 1.0), cfg4)

    coarse = np.arange(-0.5, 1.51, 0.05)
    c0 = coarse[int(np.argmin([objective(c) for c in coarse]))]
    fine = np.arange(c0 - 0.06, c0 + 0.0601, 0.002)
    c_star = float(fine[int(np.argmin([objective(c) for c in fine]))])
    opt_argmin = float([row for row in rep3.parameters["table"]
                        if row["kernel"] == "X"][0]["argmin"][0])
    agree = abs(c_star - opt_argmin)
    ok = (rep2.metric == 1.0 and rep2.passed and rep3.passed
          and stable and chain_ok and agree <= 1e-3)
    verdict(capsys, ok, "criterion 6 (local nondeterminism)",
            "n=2 ratio %g; n=3 min ratio %.4f, spacing-stable %s, "
            "chain bound held %s; |grid - optimizer| argmin %.2e <= 1e-3"
            % (rep2.metric, rep3.metric, stable, chain_ok, agree))


def test_criterion_07_ft_identity(capsys):
    worst = 0.0
    worst_zero = 0.0
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    for h in (1.2, 1.5, 1.8):
        for t in (0.5, 1.0, 2.0):
            rep = analysis.ft_check(h, t, cfg=cfg)
            worst = max(worst, rep.metric)
            worst_zero = max(worst_zero,
                             float(rep.parameters["max_abs_at_zero"]))
    ok = worst <= 1e-4 and worst_zero <= cfg.abs_tol
    verdict(capsys, ok, "criterion 7 (FT identity)",
            "max rel %.3g <= 1e-4; max abs at vanishing u %.3g <= %g"
            % (worst, worst_zero, cfg.abs_tol))


def test_criterion_08_local_time(capsys):
    spec = make_spec()
    # mass identity + occupation residual at 2^14, strictly smaller at 2^16
    residuals = {}
    mass_ok = True
    for k in (14, 16):
        grid = np.linspace(0.0, 1.0, 2 ** k + 1)
        ens = sample_paths(spec, grid, 1, LePageConfig(
            terms=400, seed=11, tail_compensation=False))
        path = localtime.ensemble_path(ens, 0)
        for t in (0.25, 1.0):
            est = localtime.occupation_histogram(path, t, 64)
            mass = float(np.sum(est.values) * est.bin_width)
            mass_ok &= abs(mass - t) <= 1e-10 * t
        est = localtime.occupation_histogram(path, 1.0, 64)
        centre = float(np.median(path.values[:-1]))
        spread = float(np.std(path.values[:-1])) or 1.0
        fn = localtime.TestFunction.gaussian(centre, 0.5 * spread)
        residuals[k] = localtime.occupation_formula_check(path, est, fn)
    res_ok = residuals[14] <= 0.02 and residuals[16] < residuals[14]

    # m = 2 moment: positive, h-monotone, and inside the documented
    # Monte-Carlo band (3 standard errors + 25% model allowance)
    m2 = {h: localtime.local_time_second_moment(spec, 0.5, h, 0.0)
          for h in (0.01, 0.02, 0.04)}
    mono_ok = 0.0 < m2[0.01] < m2[0.02] < m2[0.04]
    t0w, h, M, eps = 0.5, 0.02, 128, 0.12
    grid = np.concatenate([[0.0], np.linspace(t0w, t0w + h, M + 1)])
    ens = sample_paths(spec, grid, 1500, LePageConfig(
        terms=1500, seed=7, tail_compensation=False))
    occ = np.sum(np.abs(ens.paths[:, 1:-1] - 0.0) < eps / 2.0, axis=1) \
        * (h / M) / eps
    mc = float(np.mean(occ ** 2))
    se = float(np.std(occ ** 2, ddof=1)) / math.sqrt(occ.size)
    band = 3.0 * se + 0.25 * m2[0.02]
    mc_ok = abs(mc - m2[0.02]) <= band
    ok = mass_ok and res_ok and mono_ok and mc_ok
    verdict(capsys, ok, "criterion 8 (local time)",
            "mass exact %s; residual %.2e -> %.2e; m2 %s monotone %s; "
            "|MC %.3g - m2 %.3g| <= %.3g" % (mass_ok, residuals[14],
                                             residuals[16],
                                             ["%.3g" % m2[k] for k in m2],
                                             mono_ok, mc, m2[0.02], band))


def test_criterion_09_holder_slope(capsys):
    grid = tuple(np.linspace(0.0, 1.0, 4097))
    deltas = [2.0 ** -k for k in range(4, 10)]
    metrics = {}
    for name, hs in (("const", "const:0.7"), ("sine", "sine:0.5,0.1,1")):
        spec = make_spec(hurst=hs)
        ens = sample_paths(spec, grid, 50, LePageConfig(
            terms=1000, seed=11, tail_compensation=False))
        metrics[name] = analysis.holder_slope(ens, deltas).metric
    # deterministic double: X(t) = t and 2t must regress to slope one
    from rhmsp.lepage import PathEnsemble
    lin = PathEnsemble(grid=grid,
                       paths=np.vstack([np.asarray(grid),
                                        2.0 * np.asarray(grid)]),
                       spec=make_spec(), config=LePageConfig(terms=100),
                       per_path_seeds=((0, 0), (0, 1)))
    lin_slope = analysis.holder_slope(lin, deltas).parameters["median_slope"]
    ok = (max(metrics.values()) <= 0.1 and abs(lin_slope - 1.0) <= 0.01)
    verdict(capsys, ok, "criterion 9 (Hoelder slope)",
            "|median - hHat|: const %.4f, sine %.4f (<= 0.1); "
            "linear double slope %.4f" % (metrics["const"], metrics["sine"],
                                          lin_slope))


def test_criterion_10_reproducibility(tmp_path, capsys):
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.run(["verify-all", "--seed", "42", "--out", str(out)])
        assert code == 0
        tree = {}
        for root, _, files in os.walk(out):
            for fn in files:
                p = os.path.join(root, fn)
                tree[os.path.relpath(p, out)] = open(p, "rb").read()
        trees.append(tree)
    same = (trees[0].keys() == trees[1].keys()
            and all(trees[0][k] == trees[1][k] for k in trees[0]))
    verdict(capsys, same, "criterion 10 (reproducibility)",
            "%d artifacts byte-identical across two verify-all runs"
            % len(trees[0]))
