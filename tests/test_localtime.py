import math

import numpy as np
import pytest
from scipy.integrate import quad as _sciquad
from scipy.special import gamma as _gamma_fn

from rhmsp import localtime
from rhmsp.lepage import LePageConfig, sample_paths
from rhmsp.localtime import (LocalTimeBudgetError, SamplePath,
                             TestFunction as OccTestFn,
                             ensemble_path, local_time_second_moment,
                             occupation_formula_check, occupation_histogram)
from rhmsp.quad import QuadratureConfig

from conftest import make_spec


@pytest.fixture(scope="module")
def sampled_path():
    spec = make_spec()
    grid = np.linspace(0.0, 1.0, 4097)
    ens = sample_paths(spec, grid, 1, LePageConfig(terms=300, seed=11,
                                                   tail_compensation=False))
    return ensemble_path(ens, 0)


# ---------------------------------------------------------------------------
# occupation histogram
# ---------------------------------------------------------------------------

def test_mass_identity(sampled_path):
    for t in (0.25, 1.0):
        est = occupation_histogram(sampled_path, t, 64)
        mass = float(np.sum(est.values) * est.bin_width)
        assert abs(mass - t) <= 1e-10 * t


def test_histogram_on_deterministic_ramp():
    # X(s) = s on [0, 1]: occupation density is identically 1
    ts = tuple(np.linspace(0.0, 1.0, 1025))
    path = SamplePath(times=ts, values=np.asarray(ts))
    est = occupation_histogram(path, 1.0, 16)
    # padding bins at the edges hold partial mass; the interior is flat at 1
    assert np.allclose(est.values[2:-2], 1.0, atol=0.05)
    mass = float(np.sum(est.values) * est.bin_width)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_round_off_moves_no_sample_across_a_bin_edge(sampled_path):
    # both extremes sit half a bin inside, so a change of the path at the
    # 1e-14 level leaves every sample in its bin
    ramp = np.linspace(0.0, 1.0, 1025)
    cases = [(SamplePath(times=tuple(ramp), values=ramp + 0.3), 16, 1e-14, 0.0),
             (sampled_path, 64, 0.0, 1e-14)]
    for path, bins, shift, scale in cases:
        base = occupation_histogram(path, 1.0, bins)
        for k in range(-8, 9):
            moved = SamplePath(times=path.times,
                               values=path.values * (1.0 + k * scale) + k * shift)
            est = occupation_histogram(moved, 1.0, bins)
            np.testing.assert_allclose(est.values * est.bin_width,
                                       base.values * base.bin_width,
                                       rtol=1e-12, atol=0.0)


def test_occupation_formula_residual(sampled_path):
    est = occupation_histogram(sampled_path, 1.0, 64)
    centre = float(np.median(sampled_path.values[:-1]))
    spread = float(np.std(sampled_path.values[:-1])) or 1.0
    fn = OccTestFn.gaussian(centre, 0.5 * spread)
    assert occupation_formula_check(sampled_path, est, fn) <= 0.02


def test_test_function_validation():
    with pytest.raises(ValueError):
        OccTestFn.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        OccTestFn.indicator(1.0, 1.0)
    ind = OccTestFn.indicator(-1.0, 1.0)
    assert ind(np.array([-2.0, 0.0, 2.0])).tolist() == [0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# m = 2 moment machinery
# ---------------------------------------------------------------------------

def test_radial_transform_matches_quadrature():
    a = 1.5
    assert localtime._radial_transform(a, 0.0) == pytest.approx(
        2.0 * _gamma_fn(2.0 / a) / a, rel=1e-12)
    for y in (0.5, 2.0):
        want, _ = _sciquad(lambda r: 2.0 * r * math.exp(-r ** a)
                           * math.cos(y * r), 0.0, 50.0, limit=200)
        assert localtime._radial_transform(a, y) == pytest.approx(want, rel=1e-8)


def test_m2_validation(default_spec):
    with pytest.raises(ValueError):
        local_time_second_moment(default_spec, 0.5, -0.01, 0.0)
    with pytest.raises(ValueError):
        local_time_second_moment(default_spec, 3.999, 0.01, 0.0)


def test_m2_budget_error(default_spec):
    with pytest.raises(LocalTimeBudgetError) as err:
        local_time_second_moment(default_spec, 0.5, 0.02, 0.0,
                                 max_norm_calls=10)
    assert err.value.partial >= 0.0


def test_m2_budget_counts_sections(default_spec, monkeypatch):
    # two gap nodes, each two scalar sections and one stack of 20 phi rows
    def unit_sections(spec, times, coeffs, cfg):
        return np.ones(len(coeffs)) if np.ndim(coeffs) > 1 else 1.0

    monkeypatch.setattr(localtime, "_raw_norm_integral", unit_sections)
    assert local_time_second_moment(default_spec, 0.5, 0.02, 0.0,
                                    max_norm_calls=44) > 0.0
    with pytest.raises(LocalTimeBudgetError):
        local_time_second_moment(default_spec, 0.5, 0.02, 0.0, max_norm_calls=43)
