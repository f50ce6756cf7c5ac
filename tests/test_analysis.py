import json
import math

import numpy as np
import pytest

from rhmsp import analysis
from rhmsp.analysis import (CheckReport, DEFAULT_U_GRID, ft_check,
                            holder_slope, lnd_study, localizability_error)
from rhmsp.lepage import LePageConfig, PathEnsemble
from rhmsp.norms import OptimizerConfig
from rhmsp.quad import QuadratureConfig

from conftest import make_spec


# ---------------------------------------------------------------------------
# CheckReport
# ---------------------------------------------------------------------------

def test_report_pass_is_derived():
    # metric below, at and above the threshold 1
    cases = {"<=": (True, True, False), ">=": (False, True, True)}
    for direction, wants in cases.items():
        for metric, want in zip((0.5, 1.0, 2.0), wants):
            rep = CheckReport(check="c", parameters={}, metric=metric,
                              threshold=1.0, direction=direction)
            assert rep.passed is want
            assert json.loads(rep.to_json())["pass"] is want
            # a stated flag must agree with the derived one
            assert CheckReport("c", {}, metric, 1.0, direction, passed=want) == rep
            with pytest.raises(ValueError):
                CheckReport("c", {}, metric, 1.0, direction, passed=not want)
    with pytest.raises(ValueError):
        CheckReport(check="c", parameters={}, metric=2.0, threshold=1.0,
                    direction=">")


def test_report_json_schema():
    rep = CheckReport(check="demo", parameters={"b": 1, "a": 2}, metric=0.5,
                      threshold=1.0, direction="<=", artifacts=("x.csv",))
    data = json.loads(rep.to_json())
    assert set(data) == {"check", "parameters", "metric", "threshold",
                         "direction", "pass", "artifacts"}
    assert data["pass"] is True
    assert rep.to_json() == rep.to_json()  # deterministic serialization
    rep2 = rep.with_artifacts(["y.csv", "z.json"])
    assert rep2.artifacts == ("y.csv", "z.json")
    assert rep.artifacts == ("x.csv",)


# ---------------------------------------------------------------------------
# Hoelder slope
# ---------------------------------------------------------------------------

def _linear_double(h_spec="const:0.5"):
    spec = make_spec(hurst=h_spec)
    grid = tuple(np.linspace(0.0, 1.0, 2049))
    paths = np.vstack([np.asarray(grid), 2.0 * np.asarray(grid)])
    return PathEnsemble(grid=grid, paths=paths, spec=spec,
                        config=LePageConfig(terms=100),
                        per_path_seeds=((0, 0), (0, 1)))


def test_holder_slope_linear_double_is_one():
    rep = holder_slope(_linear_double(), [2.0 ** -k for k in range(4, 10)])
    assert rep.parameters["median_slope"] == pytest.approx(1.0, abs=0.01)


def test_holder_slope_input_validation():
    ens = _linear_double()
    with pytest.raises(ValueError):
        holder_slope(ens, [0.1, 0.2, 0.3])          # too few deltas
    with pytest.raises(ValueError):
        holder_slope(ens, [2.0, 3.0, 4.0, 5.0])     # lags off the grid
    bad = PathEnsemble(grid=(0.0, 0.1, 0.3, 0.7), paths=np.zeros((1, 4)),
                       spec=ens.spec, config=ens.config,
                       per_path_seeds=((0, 0),))
    with pytest.raises(ValueError):
        holder_slope(bad, [0.1, 0.2, 0.3, 0.4])     # non-uniform grid


def test_holder_slope_uses_window_hurst_range():
    # sampled window [0, 1] of sine:0.5,0.1,1 has min H = 0.5, not the
    # whole-horizon minimum
    rep = holder_slope(_linear_double("sine:0.5,0.1,1"),
                       [2.0 ** -k for k in range(4, 10)])
    assert rep.parameters["h_hat"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# localizability
# ---------------------------------------------------------------------------

def test_localizability_constant_h_is_exact(default_spec):
    rep = localizability_error(default_spec, 0.5, 0.1,
                               cfg=QuadratureConfig(rel_tol=1e-6))
    assert rep.metric <= 4e-6
    assert rep.passed


# ---------------------------------------------------------------------------
# norm-equivalence sweeps
# ---------------------------------------------------------------------------

# ||Z^0.6(1) - Z^0.7(1)||_1.5 from mpmath, independent of the quad engine
HURST_DIFFERENCE_REF = 0.699124546138679


def test_hurst_difference_norm_matches_mpmath():
    """The reference value comes from this mpmath script (30 digits; with
    K = 200 periods it moves by 1.3e-14)::

        import mpmath as mp
        mp.mp.dps = 30
        a = mp.mpf(1.5)
        p1, p2 = mp.mpf('0.6') + 1 / a, mp.mpf('0.7') + 1 / a
        L = 2 * mp.pi
        env = lambda x: abs(x ** -p1 - x ** -p2) ** a
        denv = lambda x: a * (x ** -p1 - x ** -p2) ** (a - 1) * (
            p2 * x ** (-p2 - 1) - p1 * x ** (-p1 - 1))
        osc = lambda x: (2 * abs(mp.sin(x / 2))) ** a
        m = 2 ** a * mp.gamma((a + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(a / 2 + 1))
        q2 = mp.quad(lambda u: (osc(u) - m) * (L - u) ** 2, [0, L / 2, L]) / (2 * L)
        K = 400
        head = mp.quad(lambda x: osc(x) * env(x), [0, 1, L / 2, L]) + mp.fsum(
            mp.quad(lambda x: osc(x) * env(x), [k * L, (k + 0.5) * L, (k + 1) * L])
            for k in range(1, K))
        tail = m * mp.quad(env, [K * L, 10 * K * L, mp.inf]) - q2 * denv(K * L)
        print((2 * (head + tail)) ** (1 / a))

    ``m`` is the mean of |2 sin(x/2)|^a over a period; past x = K L the
    oscillating factor is m plus a periodic remainder whose first
    antiderivative has mean zero, so the tail error starts at
    -q2 env'(K L), q2 the mean of the second antiderivative."""
    got = analysis._hurst_difference_norm(1.5, 1.0, 0.6, 0.7,
                                          QuadratureConfig(rel_tol=1e-6))
    assert got == pytest.approx(HURST_DIFFERENCE_REF, rel=1e-6)


# ---------------------------------------------------------------------------
# LND study
# ---------------------------------------------------------------------------

def test_lnd_study_n2_ratio_identically_one(default_spec):
    rep = lnd_study(default_spec, 0.5, [2.0 ** -4, 2.0 ** -6], 2,
                    cfg=QuadratureConfig(rel_tol=1e-5), floor_value=0.999)
    assert rep.metric == 1.0
    for row in rep.parameters["table"]:
        assert row["ratio"] == 1.0


def test_lnd_study_n3_certifies_at_const_h_one_half(default_spec):
    # a BFGS gradient on the way, at coeffs (0.069, -1.069, 1), did not
    # certify while the derivative's positive and negative parts were
    # integrated apart
    rep = lnd_study(default_spec, 0.5, [2.0 ** -5], 3, cfg=QuadratureConfig(rel_tol=1e-5),
                    opt_cfg=OptimizerConfig(grad_tol=2e-4))
    x_row, y_row = rep.parameters["table"]
    assert rep.passed
    assert x_row["ratio"] == pytest.approx(y_row["ratio"], rel=1e-6)


def test_lnd_study_validation(default_spec):
    with pytest.raises(ValueError):
        lnd_study(default_spec, 0.0, [0.1], 2)
    with pytest.raises(ValueError):
        lnd_study(default_spec, 0.5, [0.1], 5)
    with pytest.raises(ValueError):
        lnd_study(default_spec, 0.5, [10.0], 2)
    # checked before max() sees the empty list
    with pytest.raises(ValueError, match="need at least one spacing"):
        lnd_study(default_spec, 0.5, [], 2)


# ---------------------------------------------------------------------------
# appendix FT identity
# ---------------------------------------------------------------------------

def test_ft_check_direct_branch_golden():
    rep = ft_check(1.5, 1.0)
    assert rep.metric <= 1e-4
    assert rep.passed
    assert set(rep.parameters["u_grid"]) == set(DEFAULT_U_GRID)


def test_ft_check_duality_branch():
    # h <= 1: absolute convergence fails, duality surrogate takes over
    rep = ft_check(0.8, 1.0, u_grid=(-1.0, 0.5), alpha=1.5)
    assert rep.metric <= 1e-6


def test_ft_check_h_one_indicator_case():
    rep = ft_check(1.0, 1.0, u_grid=(0.25, 0.75), alpha=1.5)
    assert rep.metric <= 1e-6


def test_ft_check_validation():
    with pytest.raises(ValueError):
        ft_check(2.5, 1.0)
    with pytest.raises(ValueError):
        ft_check(1.5, -1.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            ft_check(1.5, t)
    # nothing left to check: every u is t in the direct branch, or no u at all
    with pytest.raises(ValueError, match="no u to check"):
        ft_check(1.5, 1.0, u_grid=(1.0,))
    with pytest.raises(ValueError, match="no u to check"):
        ft_check(0.8, 1.0, u_grid=(), alpha=1.5)
    # NaN would drop out of the worst error, and an infinite u has no panels
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="u must be finite"):
            ft_check(0.8, 1.0, u_grid=(0.25, u), alpha=1.5)
        with pytest.raises(ValueError, match="u must be finite"):
            ft_check(1.5, 1.0, u_grid=(u,))
