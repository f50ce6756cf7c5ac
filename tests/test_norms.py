import math

import numpy as np
import pytest

from rhmsp import norms
from rhmsp.norms import (FddPoint, OptimizerConfig, exact_cf, increment_norm,
                         condition_h_constant, hausdorff_young_ratio,
                         lnd_distance, scale_norm)
from rhmsp.quad import QuadratureConfig, QuadResult

from conftest import make_spec

CFG = QuadratureConfig(rel_tol=1e-6)

# frozen regression values (default config, alpha=1.5, const H=0.5, kernel X)
SCALE_NORM_T1 = 3.74985397872


def pt(*pairs):
    times, coeffs = zip(*pairs)
    return FddPoint(times=times, coeffs=coeffs)


# ---------------------------------------------------------------------------
# FddPoint validation
# ---------------------------------------------------------------------------

def test_fdd_point_validation():
    with pytest.raises(ValueError):
        FddPoint(times=(), coeffs=())
    with pytest.raises(ValueError):
        FddPoint(times=(1.0, 0.5), coeffs=(1.0, 1.0))     # not increasing
    with pytest.raises(ValueError):
        FddPoint(times=(0.5,), coeffs=(1.0, 2.0))         # length mismatch
    with pytest.raises(ValueError):
        FddPoint(times=(float("nan"),), coeffs=(1.0,))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=0.0)


# ---------------------------------------------------------------------------
# scale norm
# ---------------------------------------------------------------------------

def test_scale_norm_golden(default_spec):
    got = scale_norm(default_spec, pt((1.0, 1.0)))
    assert got == pytest.approx(SCALE_NORM_T1, rel=1e-9)


def test_scale_norm_self_similarity(default_spec):
    base = scale_norm(default_spec, pt((1.0, 1.0)), CFG)
    for t in (0.25, 0.5, 2.0):
        got = scale_norm(default_spec, pt((t, 1.0)), CFG)
        assert got == pytest.approx(base * t ** 0.5, rel=1e-5)


def test_scale_norm_homogeneous(default_spec):
    one = scale_norm(default_spec, pt((1.0, 1.0)), CFG)
    lam = scale_norm(default_spec, pt((1.0, -2.5)), CFG)
    assert lam == pytest.approx(2.5 * one, rel=1e-6)


def test_scale_norm_kernel_invariant():
    point = pt((0.5, 1.0), (1.25, -0.7))
    vals = [scale_norm(make_spec(kernel=k), point, CFG) for k in ("X", "Y", "F1")]
    assert vals[1] == pytest.approx(vals[0], rel=1e-5)
    assert vals[2] == pytest.approx(vals[0], rel=1e-5)


def test_scale_norm_zero_combination(default_spec):
    assert scale_norm(default_spec, pt((1.0, 0.0)), CFG) == 0.0


def test_exact_cf_is_exp_of_norm(default_spec):
    point = pt((0.5, 0.8), (1.0, 0.4))
    s = scale_norm(default_spec, point, CFG)
    assert exact_cf(default_spec, point, CFG) == pytest.approx(
        math.exp(-s ** 1.5), rel=1e-6)


# ---------------------------------------------------------------------------
# increments
# ---------------------------------------------------------------------------

def test_increment_norm_order_symmetric(default_spec):
    assert increment_norm(default_spec, 0.7, 0.3, CFG) == pytest.approx(
        increment_norm(default_spec, 0.3, 0.7, CFG), rel=1e-12)


def test_increment_norm_stationary_scaling(default_spec):
    # const H: ||X(t)-X(s)|| = C |t-s|^H
    c = increment_norm(default_spec, 1.0, 0.0, CFG)
    for s, t in ((0.25, 0.5), (0.6, 1.35), (2.0, 2.0625)):
        got = increment_norm(default_spec, t, s, CFG)
        assert got == pytest.approx(c * (t - s) ** 0.5, rel=1e-5)


def test_condition_h_constant_golden(default_spec):
    got = condition_h_constant(default_spec, [(0.5, 1.0), (0.25, 0.75)], CFG)
    assert got == pytest.approx(7.261419696, rel=1e-6)


# ---------------------------------------------------------------------------
# LND distance
# ---------------------------------------------------------------------------

def test_lnd_distance_two_times_is_increment(default_spec):
    rep = lnd_distance(default_spec, (0.5, 0.75), CFG)
    inc = increment_norm(default_spec, 0.75, 0.5, CFG)
    assert rep.increment_norm == pytest.approx(inc, rel=1e-10)
    assert rep.ratio == pytest.approx(rep.distance / inc, rel=1e-12)
    assert 0.0 < rep.ratio <= 1.0 + 1e-9


def test_lnd_distance_upper_bounded_by_candidates(default_spec):
    # the certified minimum never exceeds the value at hand-picked coefficients
    t1, t2, t3 = 0.5, 0.625, 0.75
    rep = lnd_distance(default_spec, (t1, t2, t3), CFG,
                       OptimizerConfig(grad_tol=1e-3))
    for a1, a2 in ((0.0, 0.0), (0.0, 1.0), (0.3, 0.5)):
        cand = scale_norm(default_spec,
                          pt((t1, -a1), (t2, -a2), (t3, 1.0)), CFG)
        assert rep.distance <= cand * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Hausdorff-Young
# ---------------------------------------------------------------------------

def test_hausdorff_young_inequality_holds():
    spec = make_spec(kernel="Y")
    beta = spec.alpha.beta
    bound = (2.0 * math.pi) ** (1.0 / beta)
    for point in (pt((1.0, 1.0)), pt((0.5, -1.0), (1.0, 1.0))):
        ratio = hausdorff_young_ratio(spec, point, CFG)
        assert 0.0 < ratio <= bound * (1.0 + 1e-8)


def test_hausdorff_young_requires_y(default_spec):
    with pytest.raises(ValueError):
        hausdorff_young_ratio(default_spec, pt((1.0, 1.0)), CFG)


# ---------------------------------------------------------------------------
# phase-averaged tail envelope
# ---------------------------------------------------------------------------

def _hints(monkeypatch, call, *args):
    """Run `call` with the quadrature engine replaced by a recorder and
    return the OscillationHints it was given."""
    seen = []

    def record(g, decay, singular, cfg, oscillation=None):
        seen.append(oscillation)
        return QuadResult(value=0.0, error=0.0)

    monkeypatch.setattr(norms, "integrate_even_singular", record)
    call(*args)
    return seen


def _signed(G, fj, alpha, sign):
    absG = np.abs(G)
    out = np.zeros_like(absG)
    mask = absG > 0.0
    out[mask] = absG[mask] ** (alpha - 2.0) * (G[mask].conjugate() * fj[mask]).real
    return np.maximum(sign * out, 0.0)


def _frozen(terms, x, y):
    """The full nodes-by-samples matrix of a combination frozen at x."""
    out = np.zeros((x.size, y.size), dtype=complex)
    for k in range(terms.lam.size):
        osc = terms.c1[k] * np.exp(1j * terms.nu[k] * y) + terms.c0[k]
        out += terms.lam[k] * x[:, None] ** (-terms.p[k]) * osc[None, :]
    return out


def _direct_envelopes(spec, times, coeffs, j, x, y):
    """Per-row phase means of the full matrix: the norm's reducer, then the
    gradient's positive and negative parts."""
    alpha = spec.alpha.alpha
    G = _frozen(norms._build_terms(spec, times, coeffs), x, y)
    fj = _frozen(norms._build_terms(spec, (times[j],), (1.0,)), x, y)
    return (np.mean(np.abs(G) ** alpha, axis=1),
            np.mean(_signed(G, fj, alpha, 1.0), axis=1),
            np.mean(_signed(G, fj, alpha, -1.0), axis=1))


def _engine_envelopes(monkeypatch, spec, times, coeffs, j, x):
    (norm_hint,) = _hints(monkeypatch, norms._raw_norm_integral,
                          spec, times, coeffs, CFG)
    grad_hints = _hints(monkeypatch, norms._grad_component,
                        spec, times, coeffs, j, CFG)
    hints = [norm_hint] + grad_hints
    return [h.mean_envelope(x) for h in hints], [h.frequencies for h in hints]


@pytest.mark.parametrize("times,coeffs", [
    ((0.5, 0.5 + 1e-2 * math.sqrt(2.0)), (-1.0, 1.0)),
    ((0.5, 0.53125, 0.5625), (-0.3, -0.9, 1.0)),
])
def test_const_h_envelope_is_factored_exactly(monkeypatch, times, coeffs):
    spec = make_spec(hurst="const:0.7")
    x = np.geomspace(1e2, 1e8, 7)
    got, freqs = _engine_envelopes(monkeypatch, spec, times, coeffs, 0, x)
    for env, fr, want in zip(got, freqs, _direct_envelopes(
            spec, times, coeffs, 0, x, norms._phase_samples(freqs[0]))):
        assert fr == freqs[0]
        np.testing.assert_allclose(env, want, rtol=1e-13, atol=0.0)
        assert np.all(want > 0.0)


def test_distinct_exponent_envelope_streams_rows_exactly(monkeypatch):
    spec = make_spec(hurst="sine:0.5,0.1,1")
    times, coeffs = (0.4, 0.4 + 1e-2 * math.sqrt(2.0)), (-1.0, 1.0)
    y = norms._phase_samples(norms._frequency_set(
        norms._build_terms(spec, times, coeffs)))
    # two-row blocks, so five nodes make three blocks, the last one partial
    monkeypatch.setattr(norms, "_ENVELOPE_BLOCK", 2 * y.size)
    x = np.geomspace(1e2, 1e8, 5)
    got, freqs = _engine_envelopes(monkeypatch, spec, times, coeffs, 0, x)
    for env, fr, want in zip(got, freqs, _direct_envelopes(
            spec, times, coeffs, 0, x, y)):
        assert np.array_equal(norms._phase_samples(fr), y)
        assert np.array_equal(env, want)


def test_const_h_norm_freezes_the_combination_once(monkeypatch):
    calls = []
    frozen = norms._Terms.combo_frozen

    def counted(self, x, osc):
        calls.append(np.size(x))
        return frozen(self, x, osc)

    monkeypatch.setattr(norms._Terms, "combo_frozen", counted)
    value = norms._raw_norm_integral(make_spec(), (0.5, 0.51), (-1.0, 1.0), CFG)
    assert value > 0.0
    assert calls == [1]
