"""Adaptive quadrature for even, power-law-singular, oscillatory integrands.

Every alpha-norm and Fourier transform in this package reduces to one
half-line integral ``int_0^inf g(x) dx`` of a real or complex g with a
power-law singularity at 0 and power-law decay at infinity, modulated by
trigonometric components of known frequencies.  One routine, `_half_line`,
computes it over three regions: the singular head (0, a1) under the
substitution x = a1 e^{-v}; the middle [a1, cutoff] on nested Gauss-Kronrod
(G7/K15) panels anchored at multiples of the fastest period; and the tail,
where a normalized Gaussian window suppresses every oscillating component
and the area-preserving local mean is integrated exactly under a power-law
substitution out to x1.  Past x1 it integrates the caller's phase-average
envelope (`OscillationHint.mean_envelope`), or else adds to the error a van
der Corput bound per oscillating component and a power-law bound for one
that does not oscillate.  Without oscillation the middle grows until the
power-law bound is negligible.  Two wrappers certify its error estimate:

* `integrate_even_singular`: ``2 * int_0^inf g`` for ``g >= 0`` (checked on
  every sample), with error at most ``4 * max(abs_tol, rel_tol * |value|)``;
* `oscillatory_ft`: ``int_R exp(iux) f(x) dx`` from both half-lines (one for
  Hermitian f), with error at most ``10 * max(abs_tol, rel_tol * scale)``,
  the scale being the larger of the result and the half-lines' magnitudes.

Each raises `QuadratureError` when its bound fails or when the value or
the error is not finite.  Integrand callables must be vectorized: they
receive a 1-D ``ndarray`` and return an array of the same shape.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "QuadratureConfig",
    "OscillationHint",
    "QuadResult",
    "QuadratureError",
    "ContractViolationError",
    "integrate_even_singular",
    "oscillatory_ft",
]


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be certified."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class ContractViolationError(ValueError):
    """Raised when an integrand violates its declared contract (e.g. g < 0)."""


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 pair
# ---------------------------------------------------------------------------

_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


# head/middle boundary, also kept as a middle panel boundary
_SPLIT = 1.0
# bisection levels of one adaptive call over the head blocks or the middle
_MAX_DEPTH = 40
# panels one adaptive call may hold; the middle region must start below it
_MAX_PANELS = 400_000


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical-control record for the quadrature engine."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")


@dataclass(frozen=True)
class OscillationHint:
    """Phase structure of the integrand, supplied by the caller.

    frequencies: positive base frequencies present in the integrand.  For an
        alpha-norm combination these are the pairwise differences of the
        kernel times, and the kernel times themselves unless every exponent
        is equal and each combination's constant part cancels to round-off
        (then only the differences occur); see `norms._frequency_set`.
    mean_envelope: vectorized callable returning the local phase-average of
        the integrand; used for the extreme tail where direct phase
        evaluation is no longer trustworthy.  The engine calls it with whole
        arrays of tail nodes, so its cost must not grow as nodes x phase
        samples: factor out a common envelope, or stream the nodes in
        bounded blocks.
    """

    frequencies: tuple
    mean_envelope: Callable

    def __post_init__(self):
        if not callable(self.mean_envelope):
            raise TypeError("mean_envelope must be callable")
        freqs = tuple(sorted({float(w) for w in self.frequencies if w > 0.0}))
        object.__setattr__(self, "frequencies", freqs)


@dataclass
class QuadResult:
    """Integral value with a certified error estimate."""

    value: float
    error: float
    evaluations: int = 0

    def __float__(self):
        return float(self.value)


def _gk_apply(f, lo, hi):
    """Apply G7/K15 to an array of panels.  Returns (I15, err, neval)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    i15 = (y * _WK).sum(axis=1) * half
    i7 = (y[:, _GAUSS_IDX] * _WG).sum(axis=1) * half
    err = np.abs(i15 - i7)
    # sharpen the raw difference the usual QUADPACK way
    scale = np.abs(i15) + 1e-300
    ratio = np.minimum(1.0, (200.0 * err / scale) ** 1.5)
    err = np.where(err > 0, np.minimum(err, err * ratio + 1e-16 * scale), err)
    return i15, err, y.size


def _adaptive_panels(f, bounds, rel_tol, abs_tol, max_depth,
                     external_value=0.0, max_panels=_MAX_PANELS):
    """Adaptively refine a panel list until the summed GK error estimate is
    below max(abs_tol, rel_tol * |total|).  `external_value` joins the
    relative-tolerance scale so that sub-regions of a larger integral do not
    over-refine."""
    lo = np.asarray(bounds[:-1], dtype=float)
    hi = np.asarray(bounds[1:], dtype=float)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0, 0.0, 0
    acc_val = 0.0
    acc_err = 0.0
    nev = 0
    i15, err, n = _gk_apply(f, lo, hi)
    nev += n
    prev_err = math.inf
    stall = 0
    for depth in range(max_depth):
        total = acc_val + i15.sum() + external_value
        tol = max(abs_tol, rel_tol * abs(total))
        err_sum = acc_err + err.sum()
        if err_sum <= tol or lo.size == 0:
            break
        # bisection that no longer reduces the estimate means the integrand
        # noise floor (or estimator saturation) has been reached
        if err_sum > 0.9 * prev_err:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        prev_err = err_sum
        # freeze panels that are individually negligible
        budget = 0.25 * tol / max(len(lo), 1)
        done = err <= budget
        if done.any():
            acc_val += i15[done].sum()
            acc_err += err[done].sum()
            lo, hi, i15, err = lo[~done], hi[~done], i15[~done], err[~done]
        if lo.size == 0:
            continue
        if 2 * lo.size > max_panels:
            # refine only the worst offenders to bound memory
            order = np.argsort(err)[::-1][: max_panels // 4]
            mask = np.zeros(lo.size, dtype=bool)
            mask[order] = True
            acc_val += i15[~mask].sum()
            acc_err += err[~mask].sum()
            lo, hi = lo[mask], hi[mask]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        i15, err, n = _gk_apply(f, lo, hi)
        nev += n
    acc_val += i15.sum() if lo.size else 0.0
    acc_err += err.sum() if lo.size else 0.0
    return acc_val, acc_err, nev


def _aligned_panel_bounds(a, b, width):
    """Panel bounds over [a, b] anchored at integer multiples of ``width``.

    Trigonometric combinations |sum lambda_k e^{i nu_k x}|^alpha can have
    derivative kinks where the sum vanishes; for the dominant single-frequency
    case these sit at multiples of the period, i.e. on the anchored grid.
    Keeping kinks on panel *boundaries* (instead of interior points) is what
    keeps the Gauss-Kronrod error estimate honest, and the anchor at 0 makes
    the panel layout scale-covariant so that residual cusp errors cancel in
    self-similarity ratios.
    """
    k0 = math.floor(a / width) + 1
    k1 = math.ceil(b / width) - 1
    if k1 < k0:
        return np.array([a, b])
    inner = np.arange(k0, k1 + 1) * width
    inner = inner[(inner > a * (1 + 1e-14) + 1e-300) & (inner < b * (1 - 1e-14))]
    return np.concatenate([[a], inner, [b]])


def _geometric_bounds(a, b, ratio=2.0):
    pts = [a]
    x = a
    while x * ratio < b:
        x *= ratio
        pts.append(x)
    pts.append(b)
    return np.array(pts)


# ---------------------------------------------------------------------------
# the half-line integrator and its two wrappers
# ---------------------------------------------------------------------------

def _guarded(g):
    """Wrap g with a nonnegativity contract check."""
    def gg(x):
        y = np.asarray(g(x), dtype=float)
        bad = y < -1e-12 * (np.max(np.abs(y)) + 1e-300)
        if bad.any():
            raise ContractViolationError(
                "integrand returned a negative sample at x=%r" % (x[bad][:3],))
        return y
    return gg


def _singular_head(g, a1, sing_exp, rel_tol, abs_tol, ext):
    """Integral of g over (0, a1) via the substitution x = a1 * exp(-v); the
    stopping tolerance is relative to the running total ``ext + value``."""
    def trans(v):
        x = a1 * np.exp(-v)
        return g(x) * x

    val = 0.0
    err = 0.0
    nev = 0
    block = 4.0
    v0 = 0.0
    # decay rate of the transformed integrand
    rate = max(1.0 - sing_exp, 0.05)
    for k in range(200):
        v1 = v0 + block
        if a1 * math.exp(-v1) < 1e-250:
            break
        bv, be, n = _adaptive_panels(trans, np.linspace(v0, v1, 5),
                                     rel_tol, abs_tol, _MAX_DEPTH,
                                     external_value=ext + val)
        val += bv
        err += be
        nev += n
        tol = max(abs_tol, rel_tol * abs(ext + val))
        # geometric remainder bound for the decaying transformed integrand
        rem = abs(bv) * math.exp(-rate * block) / max(1.0 - math.exp(-rate * block), 1e-6)
        if rem <= 0.125 * tol and abs(bv) <= 0.125 * tol:
            err += rem
            break
        v0 = v1
    return val, err, nev


def _window_sigma(rel_tol):
    """Window width (in units of 1/w_win) so the slowest component is
    suppressed to ~rel_tol/100: exp(-q^2/2) = rel_tol/100."""
    return min(9.0, max(4.5, math.sqrt(2.0 * math.log(100.0 / rel_tol))))


def _window_kernel(sigma, halfwidth):
    norm = math.erf(halfwidth / (sigma * math.sqrt(2.0)))
    c = 1.0 / (math.sqrt(2.0 * math.pi) * sigma * norm)

    def kern(z):
        return c * np.exp(-0.5 * (z / sigma) ** 2)

    return kern


def _windowed_mean(g, x, x_lo, sigma, halfwidth, panel_width, rel_tol=1e-10):
    """(g * K)(x) restricted to y >= x_lo; adaptively refined so that cusps
    of the integrand (|.|^alpha kinks at the oscillation zeros) are resolved.

    The mean itself may be almost fully suppressed (sign-changing parts of an
    oscillatory integrand), so the stopping tolerance is anchored to the mean
    of |g| over the window rather than to the mean of g."""
    kern = _window_kernel(sigma, halfwidth)
    a = max(x - halfwidth, x_lo)
    b = x + halfwidth
    if b <= a:
        return 0.0, 0
    bounds = _aligned_panel_bounds(a, b, panel_width)

    def integrand(y):
        return g(y) * kern(y - x)

    env, _e, n_env = _gk_apply(lambda y: np.abs(integrand(y)),
                               bounds[:-1], bounds[1:])
    floor = rel_tol * float(env.sum()) + 1e-300
    val, _err, n = _adaptive_panels(integrand, bounds, rel_tol, floor, 18,
                                    max_panels=200_000)
    return val, n + n_env


def _windowed_tail(part, cutoff, sigma, halfwidth, panel_width, s, x1,
                   rel_tol, abs_tol, external_value, inner_rel_tol=1e-10):
    """``int_cutoff^x1 part(x) dx`` via exact window averaging.

    Writing K for the (truncated, normalized) window kernel and X2 for
    cutoff + halfwidth, the identity

        int_cutoff^inf part = int_cutoff^{X2+hw} part(y) (1 - Q(X2-y)) dy
                              + int_X2^inf (part * K)(x) dx,

    with Q the upper CDF of K, holds exactly.  The first ("ramp") term is a
    bounded oscillatory integral handled by direct oscillation-resolved
    panels; in the second every window lies fully inside [cutoff, inf), so
    the convolution suppresses all fast components and the outer integrand
    is genuinely smooth under the power substitution x = X2 * u**(-1/s).
    The split matters: windows clipped at the cutoff edge would carry an
    unsuppressed O(1/(w*sigma)) ripple that defeats the error estimator.
    """
    x2 = cutoff + halfwidth
    norm = math.erf(halfwidth / (sigma * math.sqrt(2.0)))
    den = math.sqrt(2.0) * sigma

    def ramp_weight(y):
        z = np.clip((x2 - y) / den, -halfwidth / den, halfwidth / den)
        return 1.0 - (norm - _erf(z)) / (2.0 * norm)

    def ramp_integrand(y):
        return part(y) * ramp_weight(y)

    rb = _aligned_panel_bounds(cutoff, x2 + halfwidth, panel_width)
    ramp_val, ramp_err, nev = _adaptive_panels(
        ramp_integrand, rb, rel_tol, abs_tol, 24,
        external_value=external_value)

    def outer(u):
        u = np.atleast_1d(u)
        out = []
        cnt = 0
        for ui in u:
            x = x2 * ui ** (-1.0 / s)
            m, n_ = _windowed_mean(part, x, cutoff, sigma, halfwidth,
                                   panel_width, rel_tol=inner_rel_tol)
            out.append(m * (x2 / s) * ui ** (-1.0 - 1.0 / s))
            cnt += n_
        outer.nev += cnt
        return np.asarray(out)
    outer.nev = 0

    # the outer integrand inherits absolute noise ~ inner_rel_tol * envelope
    # from the windowed means; without this floor a fully suppressed tail
    # (mean ~ 0) would be refined forever in pursuit of pure noise
    env2, n_env = _windowed_mean(lambda y: np.abs(part(y)), x2, cutoff,
                                 sigma, halfwidth, panel_width, rel_tol=1e-3)
    nev += n_env
    noise = 3.0 * inner_rel_tol * abs(env2) * x2 / s

    x1 = max(x1, 2.0 * x2)
    u1 = (x2 / x1) ** s
    # the substituted outer integrand is smooth; coarse initial grids are
    # fine at loose tolerances (every extra node costs a full windowed mean)
    n_outer = 9 if rel_tol < 5e-8 else (5 if rel_tol < 5e-6 else 3)
    ub = np.geomspace(u1, 1.0, n_outer)
    out_val, out_err, _ = _adaptive_panels(outer, ub, rel_tol,
                                           max(abs_tol, noise),
                                           14, external_value=external_value,
                                           max_panels=4000)
    nev += outer.nev
    return ramp_val + out_val, ramp_err + out_err + noise, nev, x1


# power-law bracket: C in |g(x)| <= C x^{-(1+s)} is sampled on [r, 3.1 r]
_BRACKET = np.array([1.0, 1.3, 1.7, 2.3, 3.1])


def _envelope_constant(g, r, s):
    """1.5 * max |g(x)| x^{1+s} over the bracket at r."""
    xs = r * _BRACKET
    return float(np.max(np.abs(g(xs)) * xs ** (1.0 + s))) * 1.5


def _half_line(g, s, singular_exponent, cfg: QuadratureConfig,
               freqs: Sequence[float], mean_envelope=None):
    """``int_0^inf g(x) dx`` as (value, error, evaluations) for real or
    complex g with ``|g(x)| = O(x**-singular_exponent)`` as x -> 0+ and
    ``O(x**-(s + 1))`` as x -> inf.  ``freqs`` are the frequencies of g's
    components, below 1e-14 for one that does not oscillate."""
    w_osc = sorted({float(w) for w in freqs if w > 1e-14})
    steady = any(w <= 1e-14 for w in freqs)
    nev = 0

    if w_osc:
        w_min, w_max = w_osc[0], w_osc[-1]
        # the window must suppress the SLOWEST component too (beats between
        # close frequencies survive any narrower window and force the outer
        # integral to resolve them out to x1)
        sigma = _window_sigma(cfg.rel_tol) / w_min
        halfwidth = 6.5 * sigma
        p_fast = 2.0 * math.pi / w_max
        # half a fast period per panel; a whole one is enough at loose tolerances
        panel_width = p_fast if cfg.rel_tol >= 1e-6 else 0.5 * p_fast
        a1 = min(_SPLIT, 0.5 / w_max)
        cutoff = max(4.0 * _SPLIT, 8.0 * 2.0 * math.pi / w_min)
        panels = (cutoff - a1) / panel_width
        if panels > _MAX_PANELS:
            raise QuadratureError(
                "frequencies %.6g and %.6g are too far apart: the middle region "
                "would need %.3g panels, over the cap of %d"
                % (w_min, w_max, panels, _MAX_PANELS))
        edges = [a1, _SPLIT, cutoff] if a1 < _SPLIT else [a1, cutoff]
        bounds = np.concatenate(
            [_aligned_panel_bounds(a, b, panel_width)[:-1]
             for a, b in zip(edges[:-1], edges[1:])] + [[cutoff]])
    else:
        a1, cutoff = _SPLIT, 10.0 * _SPLIT
        bounds = _geometric_bounds(a1, cutoff)

    # ---- middle region [a1, cutoff] ----
    mid_val, mid_err, n = _adaptive_panels(g, bounds, 0.25 * cfg.rel_tol,
                                           0.25 * cfg.abs_tol, _MAX_DEPTH)
    nev += n

    # ---- singular head (0, a1) ----
    head_val, head_err, n = _singular_head(g, a1, singular_exponent,
                                           0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                           ext=mid_val)
    nev += n

    running = mid_val + head_val

    # ---- tail [cutoff, inf) ----
    tail_val = 0.0
    tail_err = 0.0
    if w_osc:
        x1_cap = 1e12 / max(w_max, 1e-12)
        if mean_envelope is not None:
            x1 = max(4.0 * cutoff, min(x1_cap, cutoff * 1e6 ** (1.0 / max(s, 0.2))))
        else:
            x1 = x1_cap

        inner_rt = max(min(1e-10, 0.05 * cfg.rel_tol), 0.01 * cfg.rel_tol, 1e-12)
        tv, te, n, x1 = _windowed_tail(g, cutoff, sigma, halfwidth,
                                       panel_width, s, x1,
                                       0.5 * cfg.rel_tol, 0.5 * cfg.abs_tol,
                                       running, inner_rel_tol=inner_rt)
        nev += n
        tail_val += tv
        tail_err += te
        # window suppression residual: bounded by the kernel FT at w_min
        supp = math.exp(-0.5 * (w_min * sigma) ** 2)
        tail_err += supp * abs(tv) * 10.0 + supp * cfg.abs_tol

        # beyond x1
        if mean_envelope is not None:
            def outer2(u):
                u = np.atleast_1d(u)
                # a tiny s overflows x; the non-finite result then raises
                with np.errstate(over="ignore", invalid="ignore"):
                    x = x1 * u ** (-1.0 / s)
                    vals = np.asarray(mean_envelope(x), dtype=float)
                    return vals * (x1 / s) * u ** (-1.0 - 1.0 / s)

            ub2 = np.geomspace(1e-6, 1.0, 7)
            tv2, te2, n = _adaptive_panels(outer2, ub2, 0.5 * cfg.rel_tol,
                                           0.5 * cfg.abs_tol, 14,
                                           external_value=running + tail_val)
            nev += n
            tail_val += tv2
            tail_err += te2 + 1e-6 * abs(tv2)  # residual weight below u=1e-6
        else:
            # each oscillating component is bounded van der Corput style by
            # env(x1)/w; one that does not oscillate by its power-law tail
            c_env = _envelope_constant(g, x1, s)
            nev += _BRACKET.size
            tail_err += 2.0 * c_env * x1 ** (-1.0 - s) * sum(1.0 / w for w in w_osc)
            if steady:
                tail_err += c_env * x1 ** (-s) / s
    else:
        # grow the cutoff until the power-law bound is negligible
        r = cutoff
        for _ in range(60):
            bound = _envelope_constant(g, r, s) * r ** (-s) / s
            nev += _BRACKET.size
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(running))
            if bound <= 0.25 * tol or r > 1e12:
                tail_err += bound
                break
            ev, ee, n = _adaptive_panels(g, _geometric_bounds(r, 4.0 * r),
                                         0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                         _MAX_DEPTH, external_value=running)
            mid_val += ev
            mid_err += ee
            running = mid_val + head_val
            nev += n
            r *= 4.0

    return (head_val + mid_val + tail_val, head_err + mid_err + tail_err, nev)


def integrate_even_singular(g, decay_exponent, singular_exponent,
                            cfg: QuadratureConfig,
                            oscillation: Optional[OscillationHint] = None) -> QuadResult:
    """Return ``2 * int_0^inf g(x) dx`` for an even integrand's half-line part.

    g must satisfy ``g(x) = O(x**-singular_exponent)`` as x -> 0+ and
    ``g(x) = O(x**-(decay_exponent + 1))`` as x -> inf.  The caller derives
    both exponents from the norm estimates of the kernel combination.
    """
    s = float(decay_exponent)
    if not s > 0:
        raise ValueError("decay_exponent must be positive")
    if not singular_exponent < 1:
        raise ValueError("singular_exponent must be < 1 for integrability")
    freqs, env = ((), None) if oscillation is None else (
        oscillation.frequencies, oscillation.mean_envelope)
    half, half_err, nev = _half_line(_guarded(g), s, singular_exponent, cfg,
                                     freqs, env)
    value = 2.0 * half
    error = 2.0 * half_err
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if not (math.isfinite(value) and math.isfinite(error)):
        raise QuadratureError(
            "quadrature gave a non-finite result: value %s, error %s"
            % (float(value), float(error)), value=value, error=error)
    if error > 4.0 * tol:
        raise QuadratureError(
            "quadrature did not converge: achieved error %.3e > tolerance %.3e"
            % (error, tol), value=value, error=error)
    return QuadResult(value=value, error=error, evaluations=nev)


# ---------------------------------------------------------------------------
# oscillatory Fourier transform
# ---------------------------------------------------------------------------

def oscillatory_ft(f, u, envelope_decay, cfg: QuadratureConfig,
                   inner_frequencies: Sequence[float] = (),
                   singular_exponent: float = 0.0,
                   hermitian: bool = False) -> complex:
    """Return ``int_R exp(iux) f(x) dx`` for absolutely integrable f.

    f must satisfy ``|f(x)| = O(|x|**-envelope_decay)`` at infinity with
    envelope_decay > 1 and have at most an integrable singularity at 0.
    ``inner_frequencies`` lists the oscillation frequencies of f itself
    (signed); the engine combines them with u to size oscillation panels
    and the tail-averaging window.  For Hermitian f (f(-x) = conj(f(x)))
    pass ``hermitian=True``: the negative half-line is then the conjugate of
    the positive one, the result is real, and half the work is skipped.
    """
    if not envelope_decay > 1.0:
        raise ValueError("envelope_decay must exceed 1 for absolute integrability")
    u = float(u)
    # both half-lines carry the components e^{i(u + v)x}, v in {0} + inner
    freqs = [abs(u + v) for v in list(inner_frequencies) + [0.0]]
    s = envelope_decay - 1.0

    # half-line reduction: int_R = int_0^inf [h(x) + h(-x)]
    def h(x):
        return np.exp(1j * u * x) * np.asarray(f(x), dtype=complex)

    def h_neg(x):
        return np.exp(-1j * u * x) * np.asarray(f(-x), dtype=complex)

    val, err, _ = _half_line(h, s, singular_exponent, cfg, freqs)
    if hermitian:
        total = complex(2.0 * val.real)
        scale = 2.0 * abs(val)
        err *= 2.0
    else:
        val2, e2, _ = _half_line(h_neg, s, singular_exponent, cfg, freqs)
        total = complex(val + val2)
        scale = abs(val) + abs(val2)
        err += e2
    # the two half-lines may cancel (e.g. a transform that vanishes on part
    # of its domain), so achievable accuracy is relative to their magnitudes
    tol = max(cfg.abs_tol, cfg.rel_tol * max(abs(total), scale))
    if not (cmath.isfinite(total) and math.isfinite(err)):
        raise QuadratureError(
            "oscillatory_ft gave a non-finite result: value %s, error %s"
            % (total, float(err)), value=total, error=err)
    if err > 10.0 * max(tol, cfg.abs_tol):
        raise QuadratureError(
            "oscillatory_ft did not converge: error %.3e" % err,
            value=total, error=err)
    return complex(total)
