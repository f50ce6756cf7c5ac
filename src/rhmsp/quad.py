"""Adaptive quadrature for even, power-law-singular, oscillatory integrands.

All alpha-norm and Fourier-transform computations in this package reduce to
integrals of one of two shapes:

* ``2 * int_0^inf g(x) dx`` with ``g >= 0``, a power-law singularity at 0 and
  slow power-law decay modulated by trigonometric oscillation at infinity
  (`integrate_even_singular`);
* ``int_R exp(iux) f(x) dx`` with an integrable singularity at 0 and an
  absolutely integrable envelope (`oscillatory_ft`).

The engine is a nested Gauss-Kronrod (G7/K15) pair on panels, with a
logarithmic substitution near the singular endpoint and an
oscillation-averaged treatment of the far tail: beyond the cutoff the
integrand is convolved with a normalized Gaussian window wide enough to
suppress every fast frequency, which leaves a smooth local-mean function that
is integrated exactly (the window is area-preserving, so no bias is
introduced) under a power-law substitution.  Callers that know the phase
structure of their integrand can supply the asymptotic phase-average envelope
through `OscillationHint.mean_envelope`; the engine then switches to it for
the extreme tail where direct evaluation loses phase accuracy.

Integrand callables must be vectorized: they receive a 1-D ``ndarray`` and
return an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical-control record for the quadrature engine."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    split_points: tuple = (1.0,)
    tail_cutoff: Optional[float] = None
    max_depth: int = 40
    osc_panels_per_period: int = 8

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_depth < 10:
            raise ValueError("max_depth must be >= 10")
        if self.osc_panels_per_period < 4:
            raise ValueError("osc_panels_per_period must be >= 4")
        if any(p <= 0 for p in self.split_points):
            raise ValueError("split points must be positive")
        object.__setattr__(self, "split_points",
                           tuple(sorted(set(float(p) for p in self.split_points))))


@dataclass(frozen=True)
class OscillationHint:
    """Phase structure of the integrand, supplied by the caller.

    frequencies: positive base frequencies present in the integrand (for an
        alpha-norm combination these are the kernel times and their pairwise
        differences).
    mean_envelope: optional vectorized callable returning the local
        phase-average of the integrand; used for the extreme tail where
        direct phase evaluation is no longer trustworthy.  The engine calls
        it with whole arrays of tail nodes, so its cost must not grow as
        nodes x phase samples: factor out a common envelope, or stream the
        nodes in bounded blocks.
    """

    frequencies: tuple
    mean_envelope: Optional[Callable] = None

    def __post_init__(self):
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
                     external_value=0.0, max_panels=400_000):
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


def _panel_bounds(a, b, max_width):
    """Panel boundaries on [a, b] with width at most max_width."""
    n = max(1, int(math.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)


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
# integrate_even_singular
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


def _singular_head(g, a1, sing_exp, rel_tol, abs_tol, max_depth, ext):
    """Integral of g over (0, a1) via the substitution x = a1 * exp(-v)."""
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
                                     rel_tol, abs_tol, max_depth,
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
    g = _guarded(g)

    splits = list(cfg.split_points)
    nev = 0

    freqs = oscillation.frequencies if oscillation is not None else ()
    if freqs:
        w_min, w_max = freqs[0], freqs[-1]
        # the window must suppress the SLOWEST component too (beats between
        # close frequencies survive any narrower window and force the outer
        # integral to resolve them out to x1)
        w_win = w_min
        sigma = _window_sigma(cfg.rel_tol) / w_win
        halfwidth = 6.5 * sigma
        p_fast = 2.0 * math.pi / w_max
        panel_width = p_fast * 4.0 / cfg.osc_panels_per_period
        if cfg.rel_tol >= 1e-6:
            panel_width *= 2.0  # one panel per fast period is enough here
        a1 = min(splits[0], 0.5 / w_max)
        cutoff = max(4.0 * splits[-1], 8.0 * 2.0 * math.pi / w_win, 4.0 * a1)
        if cfg.tail_cutoff is not None:
            cutoff = max(cutoff, cfg.tail_cutoff)
    else:
        a1 = splits[0]
        cutoff = cfg.tail_cutoff if cfg.tail_cutoff is not None else max(10.0 * splits[-1], 10.0)
        panel_width = None

    # ---- middle region [a1, cutoff] ----
    bounds = [a1] + [p for p in splits if a1 < p < cutoff] + [cutoff]
    if freqs:
        refined = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = _aligned_panel_bounds(a, b, panel_width)
            refined.append(seg[:-1])
        bounds = np.concatenate(refined + [[cutoff]])
    else:
        segs = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            segs.append(_geometric_bounds(a, b)[:-1])
        bounds = np.concatenate(segs + [[cutoff]])

    mid_val, mid_err, n = _adaptive_panels(g, np.asarray(bounds),
                                           0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                           cfg.max_depth)
    nev += n

    # ---- singular head (0, a1) ----
    head_val, head_err, n = _singular_head(g, a1, singular_exponent,
                                           0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                           cfg.max_depth, ext=mid_val)
    nev += n

    running = mid_val + head_val

    # ---- tail [cutoff, inf) ----
    tail_val = 0.0
    tail_err = 0.0
    if freqs:
        x1_cap = 1e12 / max(w_max, 1e-12)
        if oscillation.mean_envelope is not None:
            x1 = max(4.0 * cutoff, min(x1_cap, cutoff * 1e6 ** (1.0 / max(s, 0.2))))
            x1 = min(x1, x1_cap) if x1_cap > 4.0 * cutoff else 4.0 * cutoff
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
        # window suppression residual: bounded by the kernel FT at w_win
        supp = math.exp(-0.5 * (w_win * sigma) ** 2)
        tail_err += supp * abs(tv) * 10.0 + supp * cfg.abs_tol

        # beyond x1
        if oscillation.mean_envelope is not None:
            me = oscillation.mean_envelope

            def outer2(u):
                u = np.atleast_1d(u)
                x = x1 * u ** (-1.0 / s)
                vals = np.asarray(me(x), dtype=float)
                return vals * (x1 / s) * u ** (-1.0 - 1.0 / s)

            ub2 = np.geomspace(1e-6, 1.0, 7)
            tv2, te2, n = _adaptive_panels(outer2, ub2, 0.5 * cfg.rel_tol,
                                           0.5 * cfg.abs_tol, min(cfg.max_depth, 14),
                                           external_value=running + tail_val)
            nev += n
            tail_val += tv2
            tail_err += te2 + 1e-6 * abs(tv2)  # residual weight below u=1e-6
        else:
            # bracketed power-law bound beyond x1
            xs = x1 * np.array([1.0, 1.3, 1.7, 2.3, 3.1])
            c_env = float(np.max(g(xs) * xs ** (1.0 + s))) * 1.5
            bound = c_env * x1 ** (-s) / s
            tail_val += 0.5 * bound
            tail_err += 0.5 * bound
            nev += xs.size
    else:
        # grow the cutoff until the analytic power-law bound is negligible
        r = cutoff
        for _ in range(60):
            xs = r * np.array([1.0, 1.3, 1.7, 2.3, 3.1])
            vals = g(xs)
            nev += xs.size
            c_env = float(np.max(vals * xs ** (1.0 + s))) * 1.5
            bound = c_env * r ** (-s) / s
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(running))
            if bound <= 0.25 * tol or r > 1e12:
                tail_val += 0.5 * bound
                tail_err += 0.5 * bound
                break
            ext_b = _geometric_bounds(r, 4.0 * r)
            ev, ee, n = _adaptive_panels(g, ext_b, 0.25 * cfg.rel_tol,
                                         0.25 * cfg.abs_tol, cfg.max_depth,
                                         external_value=running)
            mid_val += ev
            mid_err += ee
            running = mid_val + head_val
            nev += n
            r *= 4.0

    value = 2.0 * (head_val + mid_val + tail_val)
    error = 2.0 * (head_err + mid_err + tail_err)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
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

    # half-line reduction: int_R = int_0^inf [h(x) + h(-x)]
    def h(x):
        return np.exp(1j * u * x) * np.asarray(f(x), dtype=complex)

    def h_neg(x):
        return np.exp(-1j * u * x) * np.asarray(f(-x), dtype=complex)

    val, err = _ft_half_line(h, [u + v for v in list(inner_frequencies) + [0.0]],
                             envelope_decay, singular_exponent, cfg)
    if hermitian:
        total = complex(2.0 * val.real)
        scale = 2.0 * abs(val)
        err *= 2.0
    else:
        val2, e2 = _ft_half_line(
            h_neg, [-(u + v) for v in list(inner_frequencies) + [0.0]],
            envelope_decay, singular_exponent, cfg)
        total = complex(val + val2)
        scale = abs(val) + abs(val2)
        err += e2
    # the two half-lines may cancel (e.g. a transform that vanishes on part
    # of its domain), so achievable accuracy is relative to their magnitudes
    tol = max(cfg.abs_tol, cfg.rel_tol * max(abs(total), scale))
    if err > 10.0 * max(tol, cfg.abs_tol):
        raise QuadratureError(
            "oscillatory_ft did not converge: error %.3e" % err,
            value=total, error=err)
    return complex(total)


def _ft_half_line(h, signed_freqs, envelope_decay, singular_exponent, cfg):
    """int_0^inf h(x) dx for complex h with known component frequencies."""
    freqs_abs = sorted({abs(w) for w in signed_freqs})
    w_osc = [w for w in freqs_abs if w > 1e-14]
    s = envelope_decay - 1.0

    nev = 0
    if w_osc:
        w_max = max(w_osc)
        w_min = min(w_osc)
        w_win = w_min  # suppress beats between close frequencies as well
        sigma = _window_sigma(cfg.rel_tol) / w_win
        halfwidth = 6.5 * sigma
        panel_width = (2.0 * math.pi / w_max) * 4.0 / cfg.osc_panels_per_period
        if cfg.rel_tol >= 1e-6:
            panel_width *= 2.0
        a1 = min(cfg.split_points[0], 0.5 / w_max)
        cutoff = max(4.0 * cfg.split_points[-1], 8.0 * 2.0 * math.pi / w_win)
    else:
        a1 = cfg.split_points[0]
        cutoff = max(10.0 * cfg.split_points[-1], 10.0)
        panel_width = None

    # singular head via log substitution
    def run_head():
        def trans(v):
            x = a1 * np.exp(-v)
            return h(x) * x
        val = 0.0 + 0.0j
        e = 0.0
        v0 = 0.0
        block = 4.0
        rate = max(1.0 - singular_exponent, 0.05)
        for _ in range(200):
            v1 = v0 + block
            if a1 * math.exp(-v1) < 1e-250:
                break
            bv, be, _ = _adaptive_panels(trans, np.linspace(v0, v1, 5),
                                         0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                         cfg.max_depth)
            val += bv
            e += be
            rem = abs(bv) * math.exp(-rate * block) / max(1.0 - math.exp(-rate * block), 1e-6)
            if abs(bv) <= 0.25 * cfg.abs_tol or rem <= 0.25 * cfg.abs_tol:
                e += rem
                break
            v0 = v1
        return val, e

    # middle region
    if panel_width is not None:
        bounds = _aligned_panel_bounds(a1, cutoff, panel_width)
    else:
        bounds = _geometric_bounds(a1, cutoff)

    hv, he = run_head()
    mv, me, _ = _adaptive_panels(h, bounds, 0.25 * cfg.rel_tol,
                                 0.25 * cfg.abs_tol, cfg.max_depth)
    pv = hv + mv
    pe = he + me
    # tail
    if w_osc:
        x1 = 1e12 / max(w_max, 1e-12)
        inner_rt = min(1e-10, 0.05 * cfg.rel_tol)
        inner_rt = max(inner_rt, 0.01 * cfg.rel_tol, 1e-12)
        tv, te, _, x1 = _windowed_tail(h, cutoff, sigma, halfwidth,
                                       panel_width, s, x1,
                                       0.5 * cfg.rel_tol, 0.5 * cfg.abs_tol,
                                       pv, inner_rel_tol=inner_rt)
        pv += tv
        supp = math.exp(-0.5 * (w_win * sigma) ** 2)
        pe += te + supp * (abs(tv) * 10.0 + cfg.abs_tol)
        # residual beyond x1: every component oscillates there, so the tail
        # is bounded van der Corput style by env(x1)/w per frequency
        xs = x1 * np.array([1.0, 1.3, 1.7])
        c_env = float(np.max(np.abs(h(xs)) * xs ** envelope_decay)) * 2.0
        pe += 2.0 * c_env * x1 ** (-envelope_decay) * sum(1.0 / w for w in w_osc)
    else:
        r = cutoff
        for _ in range(60):
            xs = r * np.array([1.0, 1.4, 2.0, 2.9])
            c_env = float(np.max(np.abs(h(xs)) * xs ** envelope_decay)) * 1.5
            bound = c_env * r ** (-s) / s
            if bound <= 0.25 * cfg.abs_tol or r > 1e12:
                pe += bound
                break
            ev, ee, _ = _adaptive_panels(h, _geometric_bounds(r, 4 * r),
                                         0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol,
                                         cfg.max_depth)
            pv += ev
            pe += ee
            r *= 4.0
    return pv, pe
