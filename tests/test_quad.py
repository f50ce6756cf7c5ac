import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import integrate

from rhmsp import quad
from rhmsp.analysis import _ft_closed_form, _ft_integrand
from rhmsp.quad import (OscillationHint, QuadratureConfig, QuadratureError,
                        QuadResult, integrate_even_singular, oscillatory_ft)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


def test_hint_requires_envelope():
    # without the phase-mean envelope the tail past x1 would go unbounded
    with pytest.raises(TypeError):
        OscillationHint(frequencies=(1.0,), mean_envelope=None)


# ---------------------------------------------------------------------------
# integrate_even_singular on closed forms
# ---------------------------------------------------------------------------

def test_gaussian_integral():
    cfg = QuadratureConfig(rel_tol=1e-10)
    res = integrate_even_singular(lambda x: np.exp(-x * x), 2.0, 0.0, cfg)
    assert float(res) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_singular_exponential_integral():
    # int_R |x|^{-1/2} e^{-|x|} dx = 2 Gamma(1/2)
    cfg = QuadratureConfig(rel_tol=1e-10)
    res = integrate_even_singular(
        lambda x: np.abs(x) ** -0.5 * np.exp(-np.abs(x)), 2.0, 0.5, cfg)
    assert float(res) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-9)


def test_oscillatory_slow_decay_integral():
    # int_R (1 - cos(t x)) |x|^{-2} dx = pi t  (the alpha-norm prototype)
    cfg = QuadratureConfig(rel_tol=1e-9)
    for t in (0.5, 1.0, 4.0):
        hint = OscillationHint(frequencies=(t,),
                               mean_envelope=lambda x: np.abs(x) ** -2.0)
        res = integrate_even_singular(
            lambda x: (1.0 - np.cos(t * x)) * np.abs(x) ** -2.0,
            1.0, 0.0, cfg, oscillation=hint)
        assert float(res) == pytest.approx(math.pi * t, rel=1e-7)


@given(h=st.floats(0.15, 0.7), t=st.floats(0.25, 3.0))
@settings(max_examples=15, deadline=None)
def test_stable_norm_integral_closed_form(h, t):
    # int_R |e^{itx}-1|^2 |x|^{-2h-1} dx = t^{2h} * same at t=1 (scaling law);
    # h is capped at 0.7 to stay inside the exponent envelope the engine is
    # tuned for (alpha * H < 1.5 in every process-norm call)
    cfg = QuadratureConfig(rel_tol=1e-7)

    # decay exponent at infinity is 2h+1 > 1; singularity at 0 only for h > 1/2
    def norm_sq(tt):
        hint = OscillationHint(
            frequencies=(tt,),
            mean_envelope=lambda x: 2.0 * np.abs(x) ** (-2.0 * h - 1.0))
        return float(integrate_even_singular(
            lambda x: (2.0 - 2.0 * np.cos(tt * x)) * np.abs(x) ** (-2.0 * h - 1.0),
            2.0 * h, max(0.0, 2.0 * h - 1.0), cfg, oscillation=hint))

    assert norm_sq(t) == pytest.approx(t ** (2.0 * h) * norm_sq(1.0), rel=1e-6)


# ---------------------------------------------------------------------------
# oscillatory_ft conventions and closed forms
# ---------------------------------------------------------------------------

def test_ft_laplace_kernel():
    # FT of e^{-|x|} under int f e^{+iux} dx is 2/(1+u^2)
    cfg = QuadratureConfig(rel_tol=1e-9)
    for u in (-1.5, 0.3, 2.0):
        got = oscillatory_ft(lambda x: np.exp(-np.abs(x)), u, 2.0, cfg,
                             hermitian=True)
        assert complex(got) == pytest.approx(2.0 / (1.0 + u * u), rel=1e-8)


def test_ft_sign_convention():
    # one-sided decaying exponential pins the e^{+iux} convention:
    # int_0^inf e^{-x} e^{iux} dx = 1/(1 - iu), Im > 0 for u > 0
    cfg = QuadratureConfig(rel_tol=1e-9)
    u = 0.7
    got = oscillatory_ft(lambda x: np.where(np.asarray(x) > 0,
                                            np.exp(-np.maximum(x, 0.0)), 0.0),
                         u, 2.0, cfg)
    want = 1.0 / (1.0 - 1j * u)
    assert got.real == pytest.approx(want.real, rel=1e-7)
    assert got.imag == pytest.approx(want.imag, rel=1e-7)
    assert got.imag > 0


@given(w=st.floats(0.3, 3.0), u=st.floats(0.2, 4.0), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=20, deadline=None)
def test_ft_gaussian_property(w, u, sign):
    # |u| bounded away from 0: with no inner frequencies the panel/window
    # machinery needs a nonzero oscillation scale (production always has one)
    u = sign * u
    cfg = QuadratureConfig(rel_tol=1e-9)
    got = oscillatory_ft(lambda x: np.exp(-0.5 * (x / w) ** 2), u, 2.0, cfg,
                         hermitian=True)
    want = w * math.sqrt(2.0 * math.pi) * math.exp(-0.5 * (w * u) ** 2)
    assert complex(got).real == pytest.approx(want, rel=1e-7, abs=1e-10)


def _qawf_ft(h, t, u):
    """int_R e^{iux} f_{h,t}(x) dx by scipy's QUADPACK: f is Hermitian, so the
    transform is 2 Re int_0^inf, with QAGS on [0, 1] and QAWF on [1, inf)."""
    phi = math.pi * h / 2.0

    def re_part(x):
        return (math.cos((u - t) * x + phi) - math.cos(u * x + phi)) * x ** -h

    head, _ = integrate.quad(re_part, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    tail = 0.0
    # cos(a x + phi) = cos(phi) cos(a x) - sin(phi) sin(a x), for a = u - t and u
    for a, sign in ((u - t, 1.0), (u, -1.0)):
        for weight, coef in (("cos", math.cos(phi)),
                             ("sin", -math.sin(phi) * math.copysign(1.0, a))):
            val, _ = integrate.quad(lambda x: x ** -h, 1.0, np.inf, weight=weight,
                                    wvar=abs(a), epsabs=1e-13, limlst=200)
            tail += sign * coef * val
    return 2.0 * (head + tail)


@pytest.mark.parametrize("u", [-1.3, 0.4, 2.5])
def test_ft_against_quadpack_qawf(u):
    h, t = 1.5, 1.0
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    got = oscillatory_ft(_ft_integrand(h, t), u, envelope_decay=h, cfg=cfg,
                         inner_frequencies=(-t,), singular_exponent=h - 1.0,
                         hermitian=True)
    want = _qawf_ft(h, t, u)
    assert want == pytest.approx(_ft_closed_form(h, t, u), abs=1e-8)
    assert got.real == pytest.approx(want, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("u", [0.0, 1.0])
def test_ft_component_at_zero_frequency_is_certified_or_raises(u):
    # at u = 0 or u = t one component of e^{iux} f does not oscillate; past
    # the windowed tail it decays like x^{1-h}, which h = 1.2 leaves far
    # above the tolerance and h = 1.8 does not
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)

    def ft(h):
        return oscillatory_ft(_ft_integrand(h, 1.0), u, envelope_decay=h, cfg=cfg,
                              inner_frequencies=(-1.0,), singular_exponent=h - 1.0,
                              hermitian=True)

    with pytest.raises(QuadratureError):
        ft(1.2)
    assert ft(1.8).real == pytest.approx(_ft_closed_form(1.8, 1.0, u), rel=1e-7, abs=1e-7)


def test_far_apart_frequencies_raise_before_panels_are_built():
    # w_max / w_min = 1e9 would need 1.6e10 middle panels
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    with pytest.raises(QuadratureError, match="too far apart"):
        oscillatory_ft(_ft_integrand(1.5, 1.0), 1e-9, envelope_decay=1.5, cfg=cfg,
                       inner_frequencies=(-1.0,), singular_exponent=0.5,
                       hermitian=True)


@pytest.mark.parametrize("value,error", [(math.nan, 0.0), (1.0, math.nan),
                                         (math.inf, 0.0), (1.0, math.inf)])
def test_non_finite_half_line_raises(monkeypatch, value, error):
    # NaN compares false with every bound, so only an explicit test stops it
    monkeypatch.setattr(quad, "_half_line", lambda *args: (value, error, 15))
    cfg = QuadratureConfig()
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_even_singular(lambda x: np.exp(-x * x), 2.0, 0.0, cfg)
    with pytest.raises(QuadratureError, match="non-finite"):
        oscillatory_ft(lambda x: np.exp(-x * x), 1.0, 2.0, cfg)


def test_ft_requires_integrable_decay():
    cfg = QuadratureConfig()
    with pytest.raises(ValueError):
        oscillatory_ft(lambda x: np.ones_like(x), 1.0, 0.5, cfg)


def test_quad_result_float_protocol():
    cfg = QuadratureConfig(rel_tol=1e-10)
    res = integrate_even_singular(lambda x: np.exp(-x * x), 2.0, 0.0, cfg)
    assert isinstance(res, QuadResult)
    assert float(res) == res.value
    assert res.error >= 0.0
