import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import integrate

from rhmsp import quad
from rhmsp.analysis import DEFAULT_U_GRID, _ft_closed_form, _ft_integrand
from rhmsp.quad import (OscillationHint, QuadratureConfig, QuadratureError,
                        QuadResult, integrate_even_singular, oscillatory_ft)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


def test_hint_requires_envelope():
    # without the phase-mean envelope the tail past x1 would go unbounded
    with pytest.raises(TypeError):
        OscillationHint(frequencies=(1.0,), mean_envelope=None)


@pytest.mark.parametrize("fields", [
    {"fast_frequency": 1.0}, {"fast_mean": np.abs}, {"fast_leak": 1e-3},
    {"fast_frequency": 1.0, "fast_mean": np.abs}])
def test_hint_fast_fields_come_together(fields):
    with pytest.raises(TypeError):
        OscillationHint(frequencies=(1.0,), mean_envelope=np.abs, **fields)
    OscillationHint(frequencies=(1.0,), mean_envelope=np.abs, fast_frequency=1.0,
                    fast_mean=np.abs, fast_leak=1e-3)


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


def test_stacked_rows_are_each_certified():
    # int_R (1 - cos(t x)) |x|^{-2} dx = pi t for three t on one mesh
    cfg = QuadratureConfig(rel_tol=1e-9)
    ts = np.array([0.5, 1.0, 4.0])
    hint = OscillationHint(
        frequencies=tuple(ts),
        mean_envelope=lambda x: np.multiply.outer(np.ones(ts.size), np.abs(x) ** -2.0))
    res = integrate_even_singular(
        lambda x: (1.0 - np.cos(np.multiply.outer(ts, x))) * np.abs(x) ** -2.0,
        1.0, 0.0, cfg, oscillation=hint)
    assert res.value.shape == res.error.shape == (3,)
    np.testing.assert_allclose(res.value, math.pi * ts, rtol=1e-7)
    assert np.all(res.error <= 4.0 * cfg.rel_tol * res.value)


def test_one_row_stack_runs_the_scalar_arithmetic():
    cfg = QuadratureConfig(rel_tol=1e-9)
    hint = OscillationHint(frequencies=(1.0,), mean_envelope=lambda x: np.abs(x) ** -2.0)
    stack = OscillationHint(frequencies=(1.0,),
                            mean_envelope=lambda x: (np.abs(x) ** -2.0)[None, :])

    def g(x):
        return (1.0 - np.cos(x)) * np.abs(x) ** -2.0

    one = integrate_even_singular(g, 1.0, 0.0, cfg, oscillation=hint)
    rows = integrate_even_singular(lambda x: g(x)[None, :], 1.0, 0.0, cfg,
                                   oscillation=stack)
    assert rows.value.shape == (1,)
    assert (rows.value[0], rows.error[0], rows.evaluations) == (
        one.value, one.error, one.evaluations)


def test_one_uncertified_row_fails_the_call(monkeypatch):
    monkeypatch.setattr(quad, "_half_line", lambda *args: (
        np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0]), 15))
    with pytest.raises(QuadratureError, match="in row 1"):
        integrate_even_singular(lambda x: np.exp(-x * x), 2.0, 0.0,
                                QuadratureConfig())


def test_chunked_panels_equal_one_pass(monkeypatch):
    edges = np.geomspace(1e-3, 40.0, 61)

    def rows(x):
        return np.stack([np.abs(np.sin(x)) ** 1.5, np.exp(-x), x ** -0.3])

    for f in (rows, lambda x: rows(x)[0]):
        whole = quad._gk_apply(f, edges[:-1], edges[1:], absolute=True)
        monkeypatch.setattr(quad, "_GK_BLOCK", 3 * 15 + 7)   # 3 panels a chunk
        parts = quad._gk_apply(f, edges[:-1], edges[1:], absolute=True)
        monkeypatch.undo()
        assert whole[2] == parts[2] == 15 * 60
        for a, b in zip(whole[:2] + whole[3:], parts[:2] + parts[3:]):
            assert np.array_equal(a, b)


def test_windowed_mean_evaluates_each_node_once():
    # the |g| floor and the first adaptive pass share their samples
    seen = []

    def g(x):
        seen.append(np.array(x))
        return np.abs(np.cos(3.0 * x)) ** 1.5 * x ** -1.7

    sigma = quad._window(3.0, 3.0, 1e-8)[0]
    val, n = quad._windowed_means(g, [60.0], 40.0, sigma, math.pi / 3.0,
                                  rel_tol=1e-10)
    nodes = np.concatenate(seen)
    assert val[..., 0] > 0.0 and n == nodes.size
    assert np.unique(nodes).size == nodes.size


def _cusps(x):
    return np.abs(np.cos(3.0 * x)) ** 1.5 * x ** -1.7


def _cusp_rows(x):
    return np.stack([_cusps(x), np.exp(-0.1 * x) * (1.0 + np.sin(x)), x ** -0.5])


# window layout of a tail pass at rel_tol 1e-8 for frequency 3: x_lo = 40
_SIGMA = quad._window(3.0, 3.0, 1e-8)[0]
_WINDOW = (40.0, _SIGMA, math.pi / 3.0)


def _one_window_panel_bounds(a, b, width):
    """The per-window formula: a, the multiples of width strictly inside
    (a, b) up to a relative 1e-14, b."""
    k0 = math.floor(a / width) + 1
    k1 = math.ceil(b / width) - 1
    if k1 < k0:
        return np.array([a, b])
    inner = np.arange(k0, k1 + 1) * width
    inner = inner[(inner > a * (1 + 1e-14) + 1e-300) & (inner < b * (1 - 1e-14))]
    return np.concatenate([[a], inner, [b]])


def test_window_panel_bounds_are_each_windows_own():
    # clipped at x_lo, empty (x + hw <= x_lo), many panels, and inside one
    # panel or inverted; the group builder equals the per-window formula bit
    # for bit
    x_lo, sigma, width = _WINDOW
    hw = quad._HALFWIDTH * sigma
    xs = np.array([41.0, x_lo - hw - 1.0, 60.0, 90.0, 47.3, 1e3 + 1e-9])
    lo = np.maximum(xs - hw, x_lo)
    hi = xs + hw
    cases = [(lo, hi, width), (np.array([1.0, 3.0]), np.array([1.5, 2.0]), 10.0)]
    for a, b, w in cases:
        got = quad._aligned_panel_bounds_many(a, b, w)
        assert len(got) == a.size
        for j, bounds in enumerate(got):
            want = _one_window_panel_bounds(a[j], b[j], w)
            assert bounds.dtype == want.dtype and np.array_equal(bounds, want)


@pytest.mark.parametrize("g", [_cusps, _cusp_rows], ids=["scalar", "rows"])
@pytest.mark.parametrize("batch", [quad._WINDOW_BATCH, 40])
def test_windowed_means_are_each_windows_own_mean(monkeypatch, g, batch):
    # a window far past x_lo, one clipped at it, one empty (x + hw <= x_lo),
    # and tight tolerances that take some windows through several passes
    x_lo, sigma, width = _WINDOW
    xs = [60.0, 41.0, x_lo - quad._HALFWIDTH * sigma - 1.0, 47.3, 90.0, 52.5]
    monkeypatch.setattr(quad, "_WINDOW_BATCH", batch)   # 40: several groups
    for rel_tol in (1e-6, 1e-12):
        means, n = quad._windowed_means(g, xs, x_lo, sigma, width, rel_tol)
        assert means.shape == np.shape(g(np.ones(1)))[:-1] + (len(xs),)
        alone = [quad._windowed_means(g, [x], x_lo, sigma, width, rel_tol)
                 for x in xs]
        alone = [(mean[..., 0], k) for mean, k in alone]
        for j, (mean, _) in enumerate(alone):
            np.testing.assert_array_equal(means[..., j], mean)
        assert n == sum(k for _, k in alone)
        assert alone[2] == (0.0, 0) and np.all(means[..., 2] == 0.0)
    # at 1e-12 the first window is bisected at least twice
    seen = []
    quad._windowed_means(lambda x: seen.append(x.size) or g(x), [xs[0]], x_lo,
                         sigma, width, 1e-12)
    assert len(seen) >= 3


def test_windowed_means_share_integrand_calls():
    # each pass evaluates g in _GK_BLOCK chunks over every live window, so
    # the calls are at most one per pass plus one per full chunk, not one
    # per window and pass
    x_lo, sigma, width = _WINDOW
    xs = list(np.linspace(x_lo + quad._HALFWIDTH * sigma, 400.0, 60))
    passes = []
    for x in xs:
        seen = []
        quad._windowed_means(lambda y: seen.append(y.size) or _cusps(y), [x],
                             x_lo, sigma, width, 1e-10)
        assert max(seen) < quad._GK_BLOCK   # a window alone: one call a pass
        passes.append(len(seen))
    seen = []
    _, n = quad._windowed_means(lambda y: seen.append(y.size) or _cusps(y), xs,
                                x_lo, sigma, width, 1e-10)
    assert n == sum(seen)
    chunk = quad._XK.size * (quad._GK_BLOCK // quad._XK.size)
    assert len(seen) <= max(passes) + n // chunk
    assert len(seen) < sum(passes) / 4


# values recorded, as float.hex, when every windowed mean was computed on
# its own and the Fourier phase per node, and (the m2 moment, whose phi
# stacks take the two-scale tail) when each tail set up its own window and
# ramp: the lock-step windowed means, the selected phase and the shared
# window and ramp must reproduce them bit for bit.  The Fourier metric is
# recorded with the outer tail integral skipped and bounded (every
# component of its integrand oscillates): its error at u = 3, where the
# closed form is 0, fell from 9.56e-8 to 5.9e-11.  The gradient component
# is recorded as one integral of the rows P and N; it is 3.0e-8 off the
# five-point difference quotient of 1e-10 norms, 0.1072881427
def test_windowed_tail_bits_are_pinned():
    from rhmsp import ProcessSpec, StabilityIndex, KernelVariant, parse_hurst
    from rhmsp.analysis import ft_check
    from rhmsp.localtime import local_time_second_moment
    from rhmsp.norms import _grad_component, _raw_norm_integral

    assert ft_check(1.2, 0.5).metric.hex() == "0x1.626cd82780000p-23"
    spec = ProcessSpec(alpha=StabilityIndex(1.5),
                       hurst=parse_hurst("sine:0.5,0.1,1", 4.0),
                       kernel=KernelVariant.X, horizon=4.0)
    raw = _raw_norm_integral(spec, (1.0, 1.25), (-1.0, 1.0),
                             QuadratureConfig(rel_tol=1e-8))
    assert float(raw).hex() == "0x1.1239adf52b73ep+1"
    flat = ProcessSpec(alpha=StabilityIndex(1.5),
                       hurst=parse_hurst("const:0.5", 4.0),
                       kernel=KernelVariant.X, horizon=4.0)
    m2 = local_time_second_moment(flat, 0.5, 0.02, 0.0)
    assert m2.hex() == "0x1.0eaef854cfbecp-14"
    grad = _grad_component(flat, (0.5, 0.53, 0.56), (0.3, -1.3, 1.0),
                           (1.0, -1.0, 0.0), QuadratureConfig(rel_tol=1e-6))
    assert grad.hex() == "0x1.b773bd6979cb4p-4"


@pytest.mark.parametrize("h", [1.2, 1.5, 1.8])
def test_ft_integrand_selects_the_phase_bits(h):
    # three precomputed phases, selected per node, equal the per-node
    # exp(i pi h sgn(x) / 2) bit for bit (NaN at x = 0 in both)
    t = 0.7
    x = np.concatenate([-np.logspace(-8, 8, 401)[::-1], [-0.0, 0.0],
                        np.logspace(-8, 8, 401)])
    with np.errstate(divide="ignore", invalid="ignore"):
        old = ((np.exp(-1j * t * x) - 1.0) * np.abs(x) ** (-h)
               * np.exp(1j * math.pi * h * np.sign(x) / 2.0))
        new = _ft_integrand(h, t)(x)
    assert np.array_equal(new, old, equal_nan=True)


def test_non_finite_pass_ends_the_refinement():
    # NaN fails every comparison: without an explicit stop the panels were
    # bisected to the depth limit and the head walked on to x = 1e-250
    val, err, n = quad._adaptive_panels(lambda x: np.full(x.shape, np.nan),
                                        [0.0, 1.0, 2.0], 1e-8, 1e-12, 12,
                                        max_panels=64)
    assert math.isnan(val) and n == 2 * 15
    seen = []

    def g(x):
        seen.append(x.size)
        return np.where(x < 1e-20, np.nan, x ** -0.99 * np.exp(-x))

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_even_singular(g, 1.0, 0.99, QuadratureConfig(rel_tol=1e-8))
    assert sum(seen) < 100_000


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


# QUADPACK cannot certify its own 1e-13 requests at h = 1.2 and 1.8 and warns;
# the closed-form assertion bounds the oracle to 1e-8 all the same
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("u", [-1.3, 0.4, 2.5])
def test_ft_against_quadpack_qawf(u):
    # u = 2.5 > t is a vanishing point of the transform
    t = 1.0
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    for h in (1.2, 1.5, 1.8):
        got = oscillatory_ft(_ft_integrand(h, t), u, envelope_decay=h, cfg=cfg,
                             inner_frequencies=(-t,), singular_exponent=h - 1.0,
                             hermitian=True)
        want = _qawf_ft(h, t, u)
        assert want == pytest.approx(_ft_closed_form(h, t, u), abs=1e-8)
        assert got.real == pytest.approx(want, rel=1e-7, abs=1e-7)


FT_GRID = tuple((h, t) for h in (1.2, 1.5, 1.8) for t in (0.5, 1.0, 2.0))


def _ft_half_line(h, t, u, cfg):
    """The positive half-line of oscillatory_ft's transform of f_{h,t}."""
    f = _ft_integrand(h, t)
    return quad._half_line(lambda x: np.exp(1j * u * x) * f(x), h - 1.0,
                           h - 1.0, cfg, (abs(u - t), abs(u)))


def test_ft_stated_error_bounds_the_closed_form():
    # every component of e^{iux} f_{h,t} oscillates off u in {0, t}; its
    # skipped outer tail must stay inside the stated error, on the u grid
    # and on seeded u in (-2, -0.1) and (0.1, t - 0.1) and their ends
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    rng = np.random.default_rng(20)
    for h, t in FT_GRID:
        us = (list(DEFAULT_U_GRID) + [-2.0, -0.1, 0.1, t - 0.1]
              + list(rng.uniform(-2.0, -0.1, 4)) + list(rng.uniform(0.1, t - 0.1, 4)))
        for u in us:
            if u == t:
                continue
            val, err, _ = _ft_half_line(h, t, u, cfg)
            miss = abs(2.0 * val.real - _ft_closed_form(h, t, u))
            assert miss <= 2.0 * err, (h, t, u, miss, err)


def test_ft_tail_runs_one_windowed_mean(monkeypatch):
    # the windowed mean of |part| at X2 that scales the skipped tail's bound
    calls = []
    means = quad._windowed_means

    def counted(*args, **kwargs):
        calls.append(args[1])
        return means(*args, **kwargs)

    monkeypatch.setattr(quad, "_windowed_means", counted)
    _ft_half_line(1.2, 0.5, 3.0, QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7))
    assert len(calls) == 1 and len(calls[0]) == 1


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
