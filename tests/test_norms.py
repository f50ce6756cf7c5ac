import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rhmsp import localtime, norms
from rhmsp.norms import (FddPoint, OptimizerConfig, exact_cf, increment_norm,
                         condition_h_constant, hausdorff_young_ratio,
                         lnd_distance, scale_norm)
from rhmsp.quad import QuadratureConfig, QuadratureError, QuadResult

from conftest import make_spec
from period_sum import single_time_raw, two_time_raw

CFG = QuadratureConfig(rel_tol=1e-6)

# frozen regression values (default config, alpha=1.5, const H=0.5, kernel X)
SCALE_NORM_T1 = 3.74985397872
# lnd_distance at (0.5, 0.75) and at (0.5, 0.625, 0.75) with grad_tol 1e-3,
# as computed with one gradient component per unit vector f_j
LND_DISTANCE_2 = 1.8606066185022054
LND_DISTANCE_3 = 1.3128377657179002


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


@given(alpha=st.floats(1.1, 1.9), hurst=st.floats(0.3, 0.85),
       terms=st.lists(st.tuples(st.floats(0.05, 4.0),
                                st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)),
                      min_size=1, max_size=3, unique_by=lambda term: term[0]),
       rel_tol=st.just(1e-6))
@example(alpha=1.5, hurst=0.79, terms=[(2.92, 1.0)], rel_tol=1e-8)
@example(alpha=1.2, hurst=0.7, terms=[(1.0, -1.0), (1.1, 1.0)], rel_tol=1e-8)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_raw_norm_is_kernel_invariant(alpha, hurst, terms, rel_tol):
    # under constant H each variant's combination is X's up to one common
    # rotation and conjugation, so the three norms agree to the tolerance,
    # or all three fail to certify it
    times, coeffs = zip(*sorted(terms))
    assume(all(b - a >= 1.0 / 16.0 for a, b in zip(times, times[1:])))
    cfg = QuadratureConfig(rel_tol=rel_tol)
    values = []
    for kernel in ("X", "Y", "F1"):
        spec = make_spec(alpha=alpha, hurst="const:%r" % hurst, kernel=kernel)
        try:
            values.append(norms._raw_norm_integral(spec, times, coeffs, cfg))
        except QuadratureError:
            values.append(None)
    x, y, f1 = values
    if x is None:
        assert y is None and f1 is None
    else:
        assert abs(y - x) <= 2.0 * rel_tol * x
        assert abs(f1 - x) <= 2.0 * rel_tol * x


def test_tiny_hurst_norm_raises_instead_of_nan():
    # alpha H = 0.0015 overflows the tail substitution x1 u^(-1/(alpha H))
    with pytest.raises(QuadratureError, match="non-finite"):
        scale_norm(make_spec(hurst="const:0.001"), pt((1.0, 1.0)), CFG)


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
    assert rep.distance == pytest.approx(LND_DISTANCE_2, rel=1e-12, abs=0.0)


def test_lnd_distance_upper_bounded_by_candidates(default_spec):
    # the certified minimum never exceeds the value at hand-picked coefficients
    t1, t2, t3 = 0.5, 0.625, 0.75
    rep = lnd_distance(default_spec, (t1, t2, t3), CFG,
                       OptimizerConfig(grad_tol=1e-3))
    assert rep.distance == pytest.approx(LND_DISTANCE_3, rel=1e-12, abs=0.0)
    for a1, a2 in ((0.0, 0.0), (0.0, 1.0), (0.3, 0.5)):
        cand = scale_norm(default_spec,
                          pt((t1, -a1), (t2, -a2), (t3, 1.0)), CFG)
        assert rep.distance <= cand * (1.0 + 1e-6)


_LADDER, _W = (0.5, 0.53125, 0.5625), (0.3, -1.3, 1.0)


@pytest.mark.parametrize("hurst,kernel,times,coeffs,direction", [
    # an increment direction: beats only
    pytest.param("const:0.7", "X", _LADDER, _W, (1.0, -1.0, 0.0), id="const:0.7-direction0"),
    # a row of lnd_distance's span
    pytest.param("const:0.7", "X", _LADDER, _W, (0.0, -1.0, 0.0), id="const:0.7-direction1"),
    pytest.param("sine:0.5,0.1,1", "X", _LADDER, _W, (1.0, -1.0, 0.0),
                 id="sine:0.5,0.1,1-direction2"),
    pytest.param("sine:0.5,0.1,1", "Y", _LADDER, _W, (1.0, -1.0, 0.0),
                 id="sine:0.5,0.1,1-kernel-Y"),
    # separated times: the single-time direction D vanishes once a period
    pytest.param("const:0.5", "X", (0.5, 1.0, 1.7), (0.4, 0.3, -1.0), (0.0, 1.0, 0.0),
                 id="const:0.5-separated-times"),
])
def test_directional_derivative_matches_finite_differences(hurst, kernel, times,
                                                           coeffs, direction):
    spec = make_spec(hurst=hurst, kernel=kernel)
    cfg = QuadratureConfig(rel_tol=1e-8)
    w, d = np.array(coeffs), np.array(direction)
    step = 1e-3

    def diff(a):
        return (norms._raw_norm_integral(spec, times, tuple(w + a * d), cfg)
                - norms._raw_norm_integral(spec, times, tuple(w - a * d), cfg))

    # five-point stencil: its O(step^4) error is far below the tolerance
    want = (8.0 * diff(step) - diff(2.0 * step)) / (12.0 * step)
    got = norms._grad_component(spec, times, tuple(w), direction, cfg)
    assert got == pytest.approx(want, rel=1e-6)


def test_sine_gradient_at_close_times_certifies():
    # the positive and negative parts of the derivative, integrated apart,
    # did not certify here at 1e-6: their kinks stall the middle panels
    spec = make_spec(hurst="sine:0.5,0.1,1")
    times = (0.5, 0.5 + 0.03 * math.sqrt(2.0), 0.5 + 0.03 * math.sqrt(3.0))
    cfg = QuadratureConfig(rel_tol=1e-6)
    got = norms._grad_component(spec, times, (0.3, -1.3, 1.0), (1.0, -1.0, 0.0), cfg)
    # the value at rel_tol 1e-8
    assert got == pytest.approx(0.33160505329, rel=4.0 * cfg.rel_tol)


_COMPLEX = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@given(G=st.lists(_COMPLEX, min_size=1, max_size=8),
       D=st.lists(_COMPLEX, min_size=8, max_size=8), alpha=st.floats(1.01, 1.99))
# G = 0 with D != 0, G != 0 with D = 0, and both 0
@example(G=[0j, 1 + 1j, 0j], D=[1 - 2j, 0j, 0j], alpha=1.5)
@settings(max_examples=60, deadline=None)
def test_gradient_rows_are_nonnegative_and_differ_by_the_derivative(G, D, alpha):
    G, D = np.array(G), np.array(D[:len(G)])
    P, N = norms._split_rows(G, D, alpha)
    # |G|^{alpha-2} Re(conj(G) D) in polar form, 0 at G = 0
    v = np.abs(G) ** (alpha - 1.0) * np.abs(D) * np.cos(np.angle(D) - np.angle(G))
    assert np.all(P >= 0.0) and np.all(N >= 0.0)
    np.testing.assert_array_less(np.abs(P - N - v), 8.0 * np.finfo(float).eps * (P + N)
                                 + 1e-300)


# ---------------------------------------------------------------------------
# frequencies: the kernel times drop out of constant-free combinations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["X", "Y", "F1"])
def test_const_h_increments_carry_only_beats(kernel):
    spec = make_spec(hurst="const:0.7", kernel=kernel)
    times = (0.5, 0.75, 1.0)
    inc = norms._build_terms(spec, times[1:], (-1.0, 1.0))
    assert norms._frequency_set(inc) == (0.25,)
    # 0.1 + 0.2 - 0.3 is 5.6e-17, not 0: round-off still counts as cancelled
    combo = norms._build_terms(spec, times, (0.1, 0.2, -0.3))
    along = norms._build_terms(spec, times, (1.0, -1.0, 0.0))
    assert norms._frequency_set(combo) == (0.25, 0.5)
    assert norms._frequency_set(combo, along) == (0.25, 0.5)
    # a unit direction keeps its constant part, so every frequency stays
    unit = norms._build_terms(spec, times, (0.0, 1.0, 0.0))
    assert norms._frequency_set(combo, unit) == (0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("hurst,coeffs", [
    ("sine:0.5,0.1,1", (-1.0, 1.0)),     # distinct exponents
    ("const:0.7", (-1.0, 1.5)),          # a constant part left over
])
def test_constant_part_keeps_the_kernel_times(hurst, coeffs):
    terms = norms._build_terms(make_spec(hurst=hurst), (0.75, 1.0), coeffs)
    assert norms._frequency_set(terms) == (0.25, 0.75, 1.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
def test_const_h_increment_matches_period_sum(alpha, rel_tol):
    # stationary increments: ||X(1 + delta) - X(1)|| = ||X(delta)||
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-30)
    for hurst, deltas in ((0.7, (1e-1, 1e-3, 1e-5)), (0.3, (1e-3,))):
        spec = make_spec(alpha=alpha, hurst="const:%g" % hurst)
        for delta in deltas:
            t = 1.0 + delta
            got = norms._raw_norm_integral(spec, (1.0, t), (-1.0, 1.0), cfg)
            want = single_time_raw(alpha, hurst, t - 1.0)
            assert abs(got - want) <= 4.0 * rel_tol * want


def test_near_coincident_increment_matches_period_sum():
    # the command line's default config; this input once hit the panel cap
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9)
    t = 1.000000001
    got = norms._raw_norm_integral(make_spec(), (1.0, t), (-1.0, 1.0), cfg)
    want = single_time_raw(1.5, 0.5, t - 1.0)
    assert abs(got - want) <= 4.0 * max(cfg.abs_tol, cfg.rel_tol * want)


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
        rows = np.zeros(np.shape(g(np.ones(1)))[:-1])   # 0 for each row
        return QuadResult(value=rows, error=rows)

    monkeypatch.setattr(norms, "integrate_even_singular", record)
    call(*args)
    return seen


def _frozen(terms, x, y):
    """The full nodes-by-samples matrix of a combination frozen at x."""
    out = np.zeros((x.size, y.size), dtype=complex)
    for k in range(terms.lam.size):
        osc = terms.c1[k] * (np.exp(1j * terms.nu[k] * y) - 1.0)
        out += terms.lam[k] * x[:, None] ** (-terms.p[k]) * osc[None, :]
    return out


def _direct_envelopes(spec, times, coeffs, direction, x, y):
    """Per-row phase means of the full matrix: the norm's reducer, then the
    gradient's two rows P and N (checked on their own by the property test
    of `norms._split_rows`), stacked."""
    alpha = spec.alpha.alpha
    G = _frozen(norms._build_terms(spec, times, coeffs), x, y)
    D = _frozen(norms._build_terms(spec, times, direction), x, y)
    return (np.mean(np.abs(G) ** alpha, axis=1),
            np.mean(norms._split_rows(G, D, alpha), axis=-1))


def _engine_envelopes(monkeypatch, spec, times, coeffs, direction, x):
    (norm_hint,) = _hints(monkeypatch, norms._raw_norm_integral,
                          spec, times, coeffs, CFG)
    (grad_hint,) = _hints(monkeypatch, norms._grad_component,
                          spec, times, coeffs, direction, CFG)
    hints = [norm_hint, grad_hint]
    return [h.mean_envelope(x) for h in hints], [h.frequencies for h in hints]


@pytest.mark.parametrize("times,coeffs,direction,count", [
    # constant-free: only the two beats
    ((0.5, 0.5078125, 0.515625), (0.3, -1.3, 1.0), (1.0, -1.0, 0.0), 2),
    # a constant part: the beats and the three kernel times
    ((0.5, 0.53125, 0.5625), (-0.3, -0.9, 1.0), (1.0, -1.0, 0.0), 5),
])
def test_const_h_envelope_is_factored_exactly(monkeypatch, times, coeffs,
                                              direction, count):
    spec = make_spec(hurst="const:0.7")
    x = np.geomspace(1e2, 1e8, 7)
    got, freqs = _engine_envelopes(monkeypatch, spec, times, coeffs,
                                   direction, x)
    assert len(freqs[0]) == count
    for env, fr, want in zip(got, freqs, _direct_envelopes(
            spec, times, coeffs, direction, x, norms._phase_samples(freqs[0]))):
        assert fr == freqs[0]
        np.testing.assert_allclose(env, want, rtol=1e-13, atol=0.0)
        assert np.all(want > 0.0)


def test_distinct_exponent_envelope_streams_rows_exactly(monkeypatch):
    spec = make_spec(hurst="sine:0.5,0.1,1")
    times, coeffs = (0.4, 0.4 + 1e-2 * math.sqrt(2.0)), (-1.0, 1.0)
    direction = (1.0, -1.0)
    y = norms._phase_samples(norms._frequency_set(
        norms._build_terms(spec, times, coeffs)))
    # two-row blocks, so five nodes make three blocks, the last one partial
    monkeypatch.setattr(norms, "_ENVELOPE_BLOCK", 2 * y.size)
    x = np.geomspace(1e2, 1e8, 5)
    got, freqs = _engine_envelopes(monkeypatch, spec, times, coeffs,
                                   direction, x)
    for env, fr, want in zip(got, freqs, _direct_envelopes(
            spec, times, coeffs, direction, x, y)):
        assert np.array_equal(norms._phase_samples(fr), y)
        assert np.array_equal(env, want)


def _count_sums(monkeypatch):
    """The list that `_Terms.combo_frozen` appends its node count to: one
    entry per combination, row and block, one phase sum per node."""
    sums = []
    frozen = norms._Terms.combo_frozen

    def counted(self, x, osc):
        sums.append(np.size(x))
        return frozen(self, x, osc)

    monkeypatch.setattr(norms._Terms, "combo_frozen", counted)
    return sums


def test_const_h_norm_freezes_the_combination_once(monkeypatch):
    calls = _count_sums(monkeypatch)
    value = norms._raw_norm_integral(make_spec(), (0.5, 0.51), (-1.0, 1.0), CFG)
    assert value > 0.0
    assert calls == [1]


# sine, affine and logistic H; two and three times, incommensurate (2^17
# phase samples) or not (4 096); a stack of three rows, whose gradient is
# not taken
@pytest.mark.parametrize("hurst,times,coeffs,direction", [
    ("sine:0.5,0.1,1", (0.4, 0.4 + 1e-2 * math.sqrt(2.0)), (-1.0, 1.0), (1.0, -1.0)),
    ("affine:0.5,0.03", (1.0, 1.1), (0.6, -0.7), (0.0, 1.0)),
    ("logistic:0.47,0.68,2,2", (0.5, 0.5 + 0.03 * math.sqrt(2.0), 0.5 + 0.03 * math.sqrt(3.0)),
     (0.3, -1.3, 1.0), (1.0, -1.0, 0.0)),
    ("sine:0.5,0.1,1", (0.5, 0.52, 0.6),
     [(0.3, -1.0, 0.5), (-1.0, 1.0, 0.0), (0.0, 2.0, -0.7)], None),
])
def test_interpolated_envelope_matches_the_direct_sums(monkeypatch, hurst, times,
                                                       coeffs, direction):
    spec = make_spec(hurst=hurst)
    hints = _hints(monkeypatch, norms._raw_norm_integral, spec, times, coeffs, CFG)
    if direction is not None:
        hints += _hints(monkeypatch, norms._grad_component,
                        spec, times, coeffs, direction, CFG)
    s = spec.alpha.alpha * min(spec.hurst(t) for t in times)
    rows = len(coeffs) if np.ndim(coeffs) > 1 else 1
    sums = _count_sums(monkeypatch)
    for k, hint in enumerate(hints):
        # the span of the first pass past x1 of the one-scale tail: x1 is
        # its cut-off (eight periods of the slowest frequency) times
        # 1e6^{1/s}, s = alpha min H, below the cap 1e12 / w_max
        freqs = hint.frequencies
        x1 = min(16.0 * math.pi / freqs[0] * 1e6 ** (1.0 / s), 1e12 / freqs[-1])
        x = np.geomspace(x1, x1 * 1e6 ** (1.0 / s), 90)
        del sums[:]
        got = hint.mean_envelope(x)
        # the norm's reducer takes one combination, the gradient's rows two
        cost = sum(sums) / ((2 if k else 1) * rows)
        # one node at a time is summed directly
        want = np.concatenate([hint.mean_envelope(x[i:i + 1]) for i in range(x.size)],
                              axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # the phase means of the norm and of the gradient's rows are smooth
        # in ln x and interpolated
        assert cost <= 33


def test_sine_localizability_norm_sums_at_most_17_per_envelope_call(monkeypatch):
    # the increments of `localizability_error` at delta = 1e-2, where the
    # direct sums took one per node, 90 and more per call
    calls = []
    sums = _count_sums(monkeypatch)
    envelope = norms._mean_envelope

    def delimited(reduce, combos, y):
        env = envelope(reduce, combos, y)

        def mean_env(x):
            del sums[:]
            out = env(x)
            calls.append((np.size(x), sum(sums)))
            return out
        return mean_env

    monkeypatch.setattr(norms, "_mean_envelope", delimited)
    spec = make_spec(hurst="sine:0.5,0.1,1")
    t = 0.4718281828
    for u in (0.25, 0.5, 1.0):
        assert norms._raw_norm_integral(spec, (t, t + 1e-2 * u), (-1.0, 1.0), CFG) > 0.0
    assert min(nodes for nodes, _ in calls) >= 90
    assert max(cost for _, cost in calls) <= 17


# ---------------------------------------------------------------------------
# stacks of coefficient rows on one time set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs", [(0.4, -1.1), (0.0, 1.0)])
def test_one_row_stack_is_the_scalar_call(coeffs):
    spec = make_spec(hurst="sine:0.5,0.1,1", kernel="Y")
    times, cfg = (0.5, 0.53), QuadratureConfig(rel_tol=1e-8)
    got = norms._raw_norm_integral(spec, times, [coeffs], cfg)
    assert got.shape == (1,)
    assert got[0] == norms._raw_norm_integral(spec, times, coeffs, cfg)


@pytest.mark.parametrize("hurst", ["const:0.6", "sine:0.5,0.1,1"])
def test_stacked_envelope_is_each_rows_envelope(monkeypatch, hurst):
    spec = make_spec(hurst=hurst)
    times, rows = (0.5, 0.52, 0.6), [(0.3, -1.0, 0.5), (-1.0, 1.0, 0.0), (0.0, 2.0, -0.7)]
    x = np.geomspace(1e2, 1e8, 5)
    (stacked,) = _hints(monkeypatch, norms._raw_norm_integral, spec, times, rows, CFG)
    y = norms._phase_samples(stacked.frequencies)
    terms = norms._build_terms(spec, times, rows)
    for row, env in zip(terms.lam, stacked.mean_envelope(x)):
        one = norms._Terms(lam=row, p=terms.p, nu=terms.nu, c1=terms.c1,
                           alpha=terms.alpha)
        want = norms._mean_envelope(lambda G: np.abs(G) ** terms.alpha, (one,), y)
        assert np.array_equal(env, want(x))


@pytest.mark.parametrize("kernel,hurst", [("X", "const:0.5"), ("Y", "sine:0.5,0.1,1"),
                                          ("F1", "const:0.7"), ("F1", "sine:0.5,0.1,1")])
def test_m2_phi_rows_match_scalar_sections(kernel, hurst):
    # the 20 phi sections of one m2 gap node, one stacked call against one
    # scalar call each; the rows share a mesh, so each may land anywhere
    # inside its own certified tolerance
    spec = make_spec(hurst=hurst, kernel=kernel)
    cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-10)
    times = (0.5, 0.52)
    rows = localtime._phi_coeffs(localtime._phi_rule(0.2)[0])
    got = norms._raw_norm_integral(spec, times, rows, cfg)
    want = [norms._raw_norm_integral(spec, times, c, cfg) for c in rows]
    assert len(rows) == got.size == 20
    np.testing.assert_allclose(got, want, rtol=2.0 * cfg.rel_tol, atol=0.0)


def test_one_uncertified_row_fails_the_stack(monkeypatch):
    from rhmsp import quad

    def half_line(g, *args):
        y = g(np.array([1.0]))
        return np.ones(y.shape[0]), np.where(np.arange(y.shape[0]) == 2, 1.0, 0.0), 15

    monkeypatch.setattr(quad, "_half_line", half_line)
    with pytest.raises(QuadratureError, match="scale_norm quadrature failed.*in row 2"):
        norms._raw_norm_integral(make_spec(), (0.5, 0.6), [(1.0, 0.0), (-1.0, 1.0),
                                                          (0.5, 0.5), (0.0, 1.0)], CFG)


# ---------------------------------------------------------------------------
# the two-scale tail of clustered combinations
# ---------------------------------------------------------------------------

_PHASES = (np.arange(200_000) + 0.5) * (2.0 * math.pi / 200_000)


def _phase_mean(a, s, alpha):
    return float(np.mean(np.abs(a + np.exp(1j * _PHASES) * s) ** alpha))


@given(alpha=st.floats(1.05, 1.95), ratio=st.floats(1e-6, 0.999),
       flip=st.booleans(), arg=st.floats(0.0, 2.0 * math.pi),
       size=st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_fast_phase_mean_is_the_phase_average(alpha, ratio, flip, arg, size):
    # |A/S| in (0, 0.999], or its reciprocal when flipped
    a, s = ratio * size * cmath.exp(1j * arg), size * cmath.exp(0.7j)
    if flip:
        a, s = s, a
    got = norms._fast_phase_mean(np.array([a]), np.array([s]), alpha)[0]
    assert got == pytest.approx(_phase_mean(a, s, alpha), rel=1e-12)


@given(alpha=st.floats(1.05, 1.95), arg=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=20, deadline=None)
def test_fast_phase_mean_at_equal_moduli(alpha, arg):
    # |A| = |S|: Gauss's sum 2F1(a, b; c; 1), and the phase mean, whose
    # midpoint rule is off by O(h^(1 + alpha)) at the zero of A + e^(i theta) S
    a, s = 2.0 * cmath.exp(1j * arg), 2.0
    got = norms._fast_phase_mean(np.array([a]), np.array([s]), alpha)[0]
    gauss = 2.0 ** alpha * math.gamma(1.0 + alpha) / math.gamma(1.0 + alpha / 2.0) ** 2
    assert got == pytest.approx(gauss, rel=1e-13)
    h = _PHASES[0] * 2.0
    assert got == pytest.approx(_phase_mean(a, s, alpha), rel=1e-12 + h ** (1.0 + alpha))


def test_two_time_oracle_is_stationary():
    # f(26 tau) - f(25 tau) has the law of f(tau) under constant H
    for hurst in (0.5, 0.7):
        assert two_time_raw(1.5, hurst, 0.02, 25, 26, -1.0, 1.0) == pytest.approx(
            single_time_raw(1.5, hurst, 0.02), rel=1e-13)


def _phi_rows(spec, s1, s2, cfg):
    """The 20 phi sections of an m2 gap node at (s1, s2), with the dip width
    that `local_time_second_moment` takes there."""
    base = norms._raw_norm_integral(spec, (s1, s2), (1.0, 0.0), cfg)
    inc = norms._raw_norm_integral(spec, (s1, s2), (-1.0, 1.0), cfg)
    eps = min(0.8, (inc / base) ** (1.0 / spec.alpha.alpha))
    return localtime._phi_coeffs(localtime._phi_rule(eps)[0])


def _counted(monkeypatch):
    """Record the QuadResult of every norm quadrature."""
    results = []
    engine = norms.integrate_even_singular

    def record(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(norms, "integrate_even_singular", record)
    return results


def _one_scale(monkeypatch):
    monkeypatch.setattr(norms, "_two_scale", lambda terms: {})


# QUADPACK cannot reach the oracle's 1e-12 request on some periods and warns;
# the oracle still agrees with the one-scale engine at 1e-8 to 1e-9
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("hurst", [0.5, 0.7])
@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
def test_phi_rows_match_two_time_period_sum(monkeypatch, hurst, rel_tol):
    # s1 = 25 tau, s2 = 26 tau: nu_bar / Delta = 25.5.  At 1e-4 the rows take
    # the two-scale tail; at 1e-6 the rows near phi = pi/2 leak more than
    # their tolerance, so the stack takes the one-scale tail
    spec = make_spec(hurst="const:%g" % hurst)
    cfg = QuadratureConfig(rel_tol=rel_tol)
    rows = _phi_rows(spec, 0.5, 0.52, cfg)
    results = _counted(monkeypatch)
    got = norms._raw_norm_integral(spec, (0.5, 0.52), rows, cfg)
    for (c1, c2), value in zip(rows, got):
        want = two_time_raw(1.5, hurst, 0.02, 25, 26, c1, c2)
        assert abs(value - want) <= 4.0 * max(cfg.abs_tol, rel_tol * want)
    if rel_tol == 1e-4 and hurst == 0.5:
        _one_scale(monkeypatch)
        norms._raw_norm_integral(spec, (0.5, 0.52), rows, cfg)
        assert 20 * results[-2].evaluations < results[-1].evaluations


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_two_scale_rows_match_period_sum_at_tight_tolerance(monkeypatch):
    # nu_bar / Delta = 100.5 at 1e-6, where the two-scale tail certifies;
    # every fourth section, from both sides of the dip at phi = pi/2
    spec = make_spec()
    cfg = QuadratureConfig(rel_tol=1e-6)
    rows = _phi_rows(spec, 0.5, 0.505, cfg)[::4]
    results = _counted(monkeypatch)
    got = norms._raw_norm_integral(spec, (0.5, 0.505), rows, cfg)
    assert results[-1].evaluations < 1_000_000   # one-scale: 11M
    for (c1, c2), value in zip(rows, got):
        want = two_time_raw(1.5, 0.5, 0.005, 100, 101, c1, c2)
        assert abs(value - want) <= 4.0 * cfg.rel_tol * want


@pytest.mark.parametrize("kernel,hurst", [("Y", "const:0.5"), ("F1", "sine:0.5,0.1,1")])
def test_two_scale_phi_rows_agree_with_one_scale(monkeypatch, kernel, hurst):
    spec = make_spec(hurst=hurst, kernel=kernel)
    cfg = QuadratureConfig(rel_tol=1e-6)
    rows = localtime._phi_coeffs(localtime._phi_rule(0.2)[0])
    rows = [rows[i] for i in (0, 9, 13, 15, 19)]
    got = norms._raw_norm_integral(spec, (0.5, 0.505), rows, cfg)
    _one_scale(monkeypatch)
    want = norms._raw_norm_integral(spec, (0.5, 0.505), rows, cfg)
    np.testing.assert_allclose(got, want, rtol=2.0 * cfg.rel_tol, atol=0.0)


@pytest.mark.parametrize("t", [0.4, 0.6])
def test_two_scale_sine_increments_agree_with_one_scale(monkeypatch, t):
    spec = make_spec(hurst="sine:0.5,0.1,1")
    cfg = QuadratureConfig(rel_tol=1e-6)
    got = [norms._raw_norm_integral(spec, (t, t + d), (-1.0, 1.0), cfg)
           for d in (2.5e-3, 5e-3)]
    _one_scale(monkeypatch)
    want = [norms._raw_norm_integral(spec, (t, t + d), (-1.0, 1.0), cfg)
            for d in (2.5e-3, 5e-3)]
    np.testing.assert_allclose(got, want, rtol=2.0 * cfg.rel_tol, atol=0.0)


def test_leaking_two_scale_tail_falls_back_bit_for_bit(monkeypatch):
    # nu_bar / Delta = 20.5: the measured leak is above the tolerance
    spec = make_spec(hurst="sine:0.5,0.1,1")
    cfg = QuadratureConfig(rel_tol=1e-6)
    got = norms._raw_norm_integral(spec, (0.5, 0.525), (-1.0, 1.0), cfg)
    _one_scale(monkeypatch)
    assert got == norms._raw_norm_integral(spec, (0.5, 0.525), (-1.0, 1.0), cfg)


def test_zero_row_of_a_two_scale_stack_leaks_nothing():
    # (-1.05, 1.0) at nu_bar / Delta = 25.5 has its leak measured
    got = norms._raw_norm_integral(make_spec(), (0.5, 0.52),
                                   [(0.0, 0.0), (-1.05, 1.0)],
                                   QuadratureConfig(rel_tol=1e-4))
    assert got[0] == 0.0 and got[1] > 0.0


@pytest.mark.parametrize("kernel,times,coeffs,fast", [
    ("X", (0.5, 0.52), (-1.0, 0.9), 0.5),            # 25.5: qualifies
    ("Y", (0.5, 0.52), (-1.0, 0.9), 0.5),
    ("X", (1.0, 1.25), (-1.0, 0.9), None),           # 4.5
    ("X", (0.5, 0.52), (-1.0, 1.0), None),           # constant-free
    ("X", (0.5,), (1.0,), None),                     # one frequency
])
def test_two_scale_dispatch(kernel, times, coeffs, fast):
    terms = norms._build_terms(make_spec(kernel=kernel), times, coeffs)
    hint = norms._two_scale(terms)
    assert hint.get("fast_frequency") == fast
    if fast:
        # G = A + e^{i nu_bar x} S, nu_bar = +-0.51 the centre of the times
        nu_bar = 0.51 if kernel == "X" else -0.51
        x = np.geomspace(10.0, 1e4, 9)
        a, b = terms.fast_parts(x, nu_bar)
        np.testing.assert_allclose(a + np.exp(1j * nu_bar * x) * b,
                                   terms.combo(x), rtol=1e-12)
        assert hint["fast_leak"] == pytest.approx((0.02 / 0.51) ** 2.5)


# evaluation counts are deterministic: the cost of a near-diagonal norm must
# not grow as 1/gap

def test_phi_stack_cost_does_not_grow_as_the_gap_closes(monkeypatch):
    spec = make_spec()
    cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-10)
    results = _counted(monkeypatch)
    nodes = []
    for gap in (0.02, 0.00125):
        norms._raw_norm_integral(spec, (0.5, 0.5 + gap),
                                 _phi_rows(spec, 0.5, 0.5 + gap, cfg), cfg)
        nodes.append(results[-1].evaluations)
    assert nodes[1] <= 2 * nodes[0]


def test_sine_increment_cost_grows_at_most_logarithmically(monkeypatch):
    spec = make_spec(hurst="sine:0.5,0.1,1")
    cfg = QuadratureConfig(rel_tol=1e-6)
    results = _counted(monkeypatch)
    nodes = []
    for delta in (1e-1, 1e-4):
        norms._raw_norm_integral(spec, (0.5, 0.5 + delta), (-1.0, 1.0), cfg)
        nodes.append(results[-1].evaluations)
    assert nodes[1] <= 3 * nodes[0]


@pytest.mark.parametrize("c", [0.0, 0.53])
def test_lnd_gradient_costs_what_its_objective_costs(monkeypatch, c):
    # the golden LND point of criterion 6 (c = 0.53 is near the argmin):
    # one integral of the gradient's two rows, on the objective's beats
    spec = make_spec(hurst="const:0.7")
    cfg = QuadratureConfig(rel_tol=1e-5)
    times, coeffs = (0.5, 0.5 + 2.0 ** -5, 0.5 + 2.0 ** -4), (c, -1.0 - c, 1.0)
    results = _counted(monkeypatch)
    norms._raw_norm_integral(spec, times, coeffs, cfg)
    norms._grad_component(spec, times, coeffs, (1.0, -1.0, 0.0), cfg)
    objective, gradient = results
    assert gradient.evaluations <= 1.25 * objective.evaluations
