import math
import os
import threading

import numpy as np
import pytest

from rhmsp import lepage
from rhmsp.lepage import (LePageConfig, bias_budget, derive_constants,
                          empirical_cf, ensemble_to_csv, sample_paths,
                          truncation_diagnostic)
from rhmsp.model import eval_kernel
from rhmsp.norms import FddPoint, exact_cf
from rhmsp.quad import QuadratureConfig

from conftest import make_spec

GRID = tuple(np.linspace(0.0, 1.0, 17))


def test_config_validation():
    with pytest.raises(ValueError):
        LePageConfig(terms=10)
    with pytest.raises(ValueError):
        LePageConfig(seed=-1)


# ---------------------------------------------------------------------------
# series constants
# ---------------------------------------------------------------------------

def test_constants_match_reflection_identity():
    for a in (1.2, 1.5, 1.8):
        c, _ = derive_constants(make_spec(alpha=a).alpha)
        # int_0^inf x^{-a} sin x dx = Gamma(1-a) cos(pi a / 2)
        # (both factors negative on (1,2), product positive)
        ident = (math.gamma(1.0 - a) * math.cos(math.pi * a / 2.0)) ** (-1.0 / a)
        assert c == pytest.approx(ident, rel=1e-10)


def test_gauss_sigma_closed_form():
    for a in (1.2, 1.5, 1.8):
        _, sigma = derive_constants(make_spec(alpha=a).alpha)
        moment = 2.0 ** (a / 2.0) * math.gamma((a + 1.0) / 2.0) / math.sqrt(math.pi)
        assert sigma == pytest.approx(moment ** (-1.0 / a), rel=1e-12)


# ---------------------------------------------------------------------------
# sampling contract
# ---------------------------------------------------------------------------

def test_grid_validation(default_spec):
    cfg = LePageConfig(terms=100)
    with pytest.raises(ValueError):
        sample_paths(default_spec, (0.5, 1.0), 1, cfg)        # no 0
    with pytest.raises(ValueError):
        sample_paths(default_spec, (0.0, 0.5, 0.5), 1, cfg)   # not increasing
    with pytest.raises(ValueError):
        sample_paths(default_spec, (0.0, 10.0), 1, cfg)       # leaves horizon
    with pytest.raises(ValueError):
        sample_paths(default_spec, (0.0, 1.0), 0, cfg)


def test_paths_start_at_zero(default_spec):
    ens = sample_paths(default_spec, GRID, 3, LePageConfig(terms=150, seed=5))
    assert np.all(ens.paths[:, 0] == 0.0)
    assert ens.paths.shape == (3, len(GRID))


def test_determinism_and_per_path_streams(default_spec):
    cfg = LePageConfig(terms=150, seed=9)
    a = sample_paths(default_spec, GRID, 3, cfg)
    b = sample_paths(default_spec, GRID, 3, cfg)
    assert np.array_equal(a.paths, b.paths)
    # path j is keyed by (seed, j) alone: unaffected by the ensemble size
    c = sample_paths(default_spec, GRID, 2, cfg)
    assert np.array_equal(a.paths[:2], c.paths)


def test_seed_changes_paths(default_spec):
    a = sample_paths(default_spec, GRID, 1, LePageConfig(terms=150, seed=1))
    b = sample_paths(default_spec, GRID, 1, LePageConfig(terms=150, seed=2))
    assert not np.array_equal(a.paths, b.paths)


def test_marginal_scale_matches_exact_law(default_spec):
    # invert |cf| = exp(-(scale * lam)^alpha) at a mildly informative lambda
    from rhmsp.norms import scale_norm
    ens = sample_paths(default_spec, (0.0, 0.5, 1.0), 400,
                       LePageConfig(terms=800, seed=7))
    cfg = QuadratureConfig(rel_tol=1e-6)
    for t in (0.5, 1.0):
        true = scale_norm(default_spec, FddPoint(times=(t,), coeffs=(1.0,)), cfg)
        lam = 0.2 / true
        emp, se = empirical_cf(ens, FddPoint(times=(t,), coeffs=(lam,)))
        sig = (-math.log(abs(emp))) ** (1.0 / 1.5) / lam
        assert sig == pytest.approx(true, rel=0.15)


def test_empirical_cf_against_exact(default_spec):
    ens = sample_paths(default_spec, (0.0, 0.25, 0.75), 500,
                       LePageConfig(terms=1000, seed=3))
    budget = bias_budget(default_spec.alpha, 1000)
    cfg = QuadratureConfig(rel_tol=1e-6)
    for point in (FddPoint(times=(0.25,), coeffs=(0.4,)),
                  FddPoint(times=(0.25, 0.75), coeffs=(0.3, -0.2))):
        emp, se = empirical_cf(ens, point)
        assert abs(emp - exact_cf(default_spec, point, cfg)) <= 3.0 * se + budget


def test_empirical_cf_needs_two_paths(default_spec):
    ens = sample_paths(default_spec, (0.0, 0.5), 1, LePageConfig(terms=100))
    with pytest.raises(ValueError, match="at least 2 paths"):
        empirical_cf(ens, FddPoint(times=(0.5,), coeffs=(1.0,)))


def test_empirical_cf_requires_grid_times(default_spec):
    ens = sample_paths(default_spec, (0.0, 0.5), 2, LePageConfig(terms=100))
    with pytest.raises(ValueError):
        empirical_cf(ens, FddPoint(times=(0.3,), coeffs=(1.0,)))


# ---------------------------------------------------------------------------
# block synthesis against the per-point series
# ---------------------------------------------------------------------------

BLOCK_GRIDS = {
    "uniform": tuple(np.linspace(0.0, 1.0, 65)),
    "window": (0.0,) + tuple(np.linspace(0.5, 0.52, 129)),
    # no point below 0.05: the tail-variance quadrature raises at
    # t = 0.0058113 for the sine H below, with or without block synthesis
    "irregular": (0.0,) + tuple(np.sort(
        np.random.default_rng(3).uniform(0.05, 3.9, 40))),
}


def _per_point_paths(spec, grid, path_count, config):
    """Re-sum each path point by point: c_alpha Re sum_k f(t, xi_k) w_k with
    one `eval_kernel` call per grid point, from the same Philox draws, plus
    the tail normals; also returns sum_k |terms| per point."""
    a = spec.alpha.alpha
    c_alpha, gauss_sigma = derive_constants(spec.alpha)
    t_arr = np.asarray(grid)
    values = np.zeros((path_count, len(grid)))
    scales = np.zeros((path_count, len(grid)))
    if config.tail_compensation:
        tail_sd = np.sqrt(np.maximum(lepage._tail_variance_profile(
            spec, t_arr, config, c_alpha, gauss_sigma), 0.0))
    for j in range(path_count):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([config.seed, j], dtype=np.uint64)))
        n = config.terms
        gammas = np.cumsum(rng.exponential(size=n))
        xi = rng.standard_cauchy(size=n)
        g = gauss_sigma * (rng.standard_normal(size=n)
                           + 1j * rng.standard_normal(size=n))
        w = gammas ** (-1.0 / a) * (math.pi * (1.0 + xi * xi)) ** (1.0 / a) * g
        for i, t in enumerate(grid):
            if t > 0.0:
                terms = c_alpha * (eval_kernel(spec, t, xi) * w).real
                values[j, i] = np.sum(terms)
                scales[j, i] = np.sum(np.abs(terms))
        if config.tail_compensation:
            values[j] += np.where(t_arr > 0.0, tail_sd * rng.standard_normal(
                size=len(grid)), 0.0)
    return values, scales


@pytest.mark.parametrize("grid_name", sorted(BLOCK_GRIDS))
@pytest.mark.parametrize("hurst", ["const:0.7", "sine:0.55,0.1,2,0.3"])
@pytest.mark.parametrize("kernel", ["X", "Y", "F1"])
def test_block_synthesis_matches_per_point_series(kernel, hurst, grid_name):
    spec = make_spec(hurst=hurst, kernel=kernel)
    grid = BLOCK_GRIDS[grid_name]
    for tail in (False, True):
        cfg = LePageConfig(terms=300, seed=21, tail_compensation=tail)
        ens = sample_paths(spec, grid, 2, cfg)
        ref, scale = _per_point_paths(spec, ens.grid, 2, cfg)
        assert np.all(np.abs(ens.paths - ref) <= 1e-13 * scale)
        assert np.all(ens.paths[:, 0] == 0.0)


def test_path_is_independent_of_path_count():
    # grids of several blocks each; a block never spans paths
    spec = make_spec(hurst="sine:0.55,0.1,2,0.3", kernel="Y")
    cfg = LePageConfig(terms=1000, seed=4, tail_compensation=False)
    rows = lepage._BLOCK_ELEMENTS // cfg.terms
    grid = tuple(np.linspace(0.0, 1.0, 3 * rows + 2))
    one = sample_paths(spec, grid, 1, cfg)
    for count in (2, 5):
        more = sample_paths(spec, grid, count, cfg)
        assert np.array_equal(one.paths[0], more.paths[0])
    assert np.array_equal(sample_paths(spec, grid, 2, cfg).paths[1], more.paths[1])


def test_kernel_step_calls_per_path_are_one_per_block(monkeypatch):
    # paths run on worker threads: count under a lock
    calls = {"step": 0, "eval_kernel": 0}
    lock = threading.Lock()
    step = lepage.phase_step

    def counting_step(*args):
        with lock:
            calls["step"] += 1
        return step(*args)

    def no_eval_kernel(*args):
        with lock:
            calls["eval_kernel"] += 1
        return eval_kernel(*args)

    monkeypatch.setattr(lepage, "phase_step", counting_step)
    monkeypatch.setattr(lepage, "eval_kernel", no_eval_kernel)
    cfg = LePageConfig(terms=500, seed=2, tail_compensation=False)
    grid = tuple(np.linspace(0.0, 1.0, 301))
    paths = 3
    sample_paths(make_spec(hurst="sine:0.55,0.1,2,0.3"), grid, paths, cfg)
    rows = max(1, lepage._BLOCK_ELEMENTS // cfg.terms)
    assert calls["step"] <= paths * math.ceil(len(grid) / rows)
    assert calls["eval_kernel"] == 0


def test_grid_of_time_zero_only(default_spec):
    for tail in (False, True):
        ens = sample_paths(default_spec, (0.0,), 2,
                           LePageConfig(terms=100, tail_compensation=tail))
        assert ens.paths.shape == (2, 1) and np.all(ens.paths == 0.0)


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _record_pool_sizes(monkeypatch):
    """The max_workers of every synthesis pool started from now on."""
    sizes = []
    pool = lepage.ThreadPoolExecutor

    def sized_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(lepage, "ThreadPoolExecutor", sized_pool)
    return sizes


def test_singular_draw_raises(default_spec, monkeypatch):
    # with three workers path 1 is drawn on a worker thread, not the first
    _use_cpus(monkeypatch, 3)
    draw = lepage._draw_series
    for singular_path in (0, 1):
        def degenerate(seed, path, *args, singular_path=singular_path):
            rng, xi, w = draw(seed, path, *args)
            if path == singular_path:
                xi[7] = 0.0
            return rng, xi, w

        monkeypatch.setattr(lepage, "_draw_series", degenerate)
        with pytest.raises(ValueError, match="kernel is singular at x = 0"):
            sample_paths(default_spec, GRID, 4, LePageConfig(terms=100))


@pytest.mark.parametrize("hurst", ["const:0.7", "sine:0.55,0.1,2,0.3"])
@pytest.mark.parametrize("kernel", ["X", "Y", "F1"])
def test_worker_count_does_not_change_the_bits(monkeypatch, kernel, hurst):
    spec = make_spec(hurst=hurst, kernel=kernel)
    grid = tuple(np.linspace(0.0, 1.0, 33))
    sizes = _record_pool_sizes(monkeypatch)
    for tail in (False, True):
        cfg = LePageConfig(terms=200, seed=8, tail_compensation=tail)
        for count in (2, 5):    # fewer and more paths than three workers
            _use_cpus(monkeypatch, 1)
            serial = sample_paths(spec, grid, count, cfg).paths
            _use_cpus(monkeypatch, 3)
            threaded = sample_paths(spec, grid, count, cfg).paths
            assert sizes[-2:] == [1, min(count, 3)]
            assert np.array_equal(serial, threaded)


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = _record_pool_sizes(monkeypatch)
    sample_paths(make_spec(), GRID, 5, LePageConfig(terms=100, seed=8))
    assert sizes == [2]


# ---------------------------------------------------------------------------
# diagnostics and CSV
# ---------------------------------------------------------------------------

def test_truncation_diagnostic_golden_and_monotone(default_spec):
    idx = default_spec.alpha
    assert truncation_diagnostic(idx, 5000) == pytest.approx(
        0.04871931387729569, rel=1e-12)
    vals = [truncation_diagnostic(idx, n) for n in (200, 1000, 5000, 20000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert bias_budget(idx, 5000) == 0.5 * truncation_diagnostic(idx, 5000)


def test_csv_shape_and_determinism(default_spec):
    ens = sample_paths(default_spec, GRID, 2, LePageConfig(terms=100, seed=4))
    text = ensemble_to_csv(ens)
    lines = text.strip().split("\n")
    assert lines[0] == "t,path_0,path_1"
    assert len(lines) == len(GRID) + 1
    assert text == ensemble_to_csv(ens)
    # values round-trip through the %.17g formatting exactly
    row = lines[3].split(",")
    assert float(row[2]) == ens.paths[1, 2]
