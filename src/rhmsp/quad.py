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
der Corput bound per oscillating component and a power-law bound for the
one that does not oscillate.  Without an envelope and with every component
oscillating (only `oscillatory_ft` gets there), the local mean is the
window's suppression of each component, about rel_tol/100 of its
amplitude: the tail does not integrate it, out to x1 or past it, but adds a
bound on it to the error.  Without oscillation the middle grows until the
power-law bound is negligible.  Two wrappers certify its error estimate:

* `integrate_even_singular`: ``2 * int_0^inf g`` for ``g >= 0`` (checked on
  every sample), with error at most ``4 * max(abs_tol, rel_tol * |value|)``;
* `oscillatory_ft`: ``int_R exp(iux) f(x) dx`` from both half-lines (one for
  Hermitian f), with error at most ``max(abs_tol, rel_tol * scale)``, the
  scale being the larger of the result and the half-lines' magnitudes.

Each raises `QuadratureError` when its bound fails or when the value or
the error is not finite.  Integrand callables must be vectorized: they
receive a 1-D ``ndarray`` of n nodes and return either an array of the same
shape, ``(n,)``, or a stack of rows, ``(rows, n)``: several integrands that
share every node, such as the norms of many coefficient vectors on one time
set.  A stack gets one adaptive mesh, the union of what its rows need, and
one value and one error per row.  Each row is certified on its own (its own
tolerance, stopping test and final bound), and the call raises if any row
fails.  An integrand returning ``(n,)`` runs exactly the arithmetic it would
run alone.

A combination of nearly equal times has a two-scale integrand: |G|^alpha
with G(x) = A(x) + e^{i nu_bar x} S(x), a fast phase nu_bar x over a
constant part A and beats S that vary as slowly as the gaps.  The window
that suppresses the beats spans 1/gap, so one-scale windowed means cost
1/gap each.  When the caller supplies the closed-form mean M of |G|^alpha
over the fast phase (`OscillationHint.fast_mean`), the tail is instead

    int_cutoff^inf g = int g w + int M (1 - w) + int (g - M) (1 - w),

with w the erf ramp of a window sized to the fast band: the middle region
and the ramp resolve the fast phase, and past the ramp M, which carries
only the beats, takes the middle and windowed-tail machinery sized to them.
The last term, what the fast window leaks, is bounded and enters the
error (see `_two_scale_tail`); if that bound is above half of what the
certificate allows, the one-scale tail runs instead.  Neither switch is a
hard cut-off in x: a hard switch to M would leave a boundary term per fast
harmonic.

The windowed means that one pass of the tail's outer integrand needs (one
per outer node) are evaluated together: their windows are refined in
lock-step, so each pass calls the integrand once per ``_GK_BLOCK`` nodes of
all of them, while each window keeps its own adaptive state and stopping
test and gets exactly the value it would get alone.  Windows are grouped
so that a group's first-pass panels stay under ``_WINDOW_BATCH`` (2048),
which bounds the memory of a group's per-panel sums.
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
# nodes per integrand call in `_gk_apply` (a stack of rows holds rows x this
# many samples): larger chunks run no faster and only raise the peak
# resident set
_GK_BLOCK = 1 << 12
# first-pass panels of one lock-step group of windowed means: one group for
# a whole outer pass raised the peak resident set of an m2 process from 96 to
# 179 MB, and groups of 4096 panels to 98.5 MB; 2048 keeps the 96 MB and
# adds under 5 % integrand calls
_WINDOW_BATCH = 1 << 11
# periods of the slowest beat over which a two-scale tail measures the leak
# of its fast window
_LEAK_BEATS = 2
# half-width of the truncated Gaussian tail window, in units of its width
# sigma
_HALFWIDTH = 6.5


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
        the integrand, in the integrand's shape (``(rows, n)`` for a stack
        of rows); used for the extreme tail where direct phase
        evaluation is no longer trustworthy.  The engine calls it with whole
        arrays of tail nodes (90 and more per pass), so its cost should not
        grow as nodes x phase samples: factor out a common envelope, or
        interpolate the smooth factor left after it from a few phase sums
        (`norms._mean_envelope` takes Chebyshev points in ln x), and hold
        memory to bounded blocks of nodes where each node is summed.
    fast_frequency, fast_mean, fast_leak: for an integrand |A + e^{i nu_bar
        x} S|^alpha whose frequencies cluster, the foot of the fast band (the
        frequencies below it are the beats of S), the vectorized mean M of
        the integrand over the fast phase at fixed A and S, in the
        integrand's shape, and an a-priori relative bound on what a window
        sized to the fast band leaks of the integrand minus M.  The tail then
        integrates M past a ramp (see the module docstring).  The three
        come together; without them the tail is one-scale.  `norms` supplies
        them when nu_bar is at least 12 times the spread of the kernel
        frequencies and the combination keeps a constant part.
    """

    frequencies: tuple
    mean_envelope: Callable
    fast_frequency: float = 0.0
    fast_mean: Optional[Callable] = None
    fast_leak: float = 0.0

    def __post_init__(self):
        if not callable(self.mean_envelope):
            raise TypeError("mean_envelope must be callable")
        if not ((self.fast_mean is None) == (self.fast_frequency == 0.0)
                == (self.fast_leak == 0.0)):
            raise TypeError("fast_frequency, fast_mean and fast_leak come together")
        freqs = tuple(sorted({float(w) for w in self.frequencies if w > 0.0}))
        object.__setattr__(self, "frequencies", freqs)


@dataclass
class QuadResult:
    """Integral value with a certified error estimate.

    For a stack of rows, value and error are arrays with one entry per row.
    evaluations counts integrand nodes; each node evaluates every row.
    """

    value: float
    error: float
    evaluations: int = 0

    def __float__(self):
        return float(self.value)


def _gk_apply(f, lo, hi, absolute=False, window=None):
    """Apply G7/K15 to an array of panels.  Returns (I15, err, nodes, L1):
    one entry per panel, behind a leading row axis when f returns a stack of
    rows; L1 is the K15 integral of |f| per panel, taken from the same
    samples when ``absolute`` is set and None otherwise.  The panels are
    evaluated in chunks of at most ``_GK_BLOCK`` nodes.  ``window = (kern,
    centre)`` integrates f(x) kern(x - centre[i]) on panel i instead."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    step = max(1, _GK_BLOCK // _XK.size)
    i15, i7, l1 = [], [], []
    for i in range(0, lo.size, step):
        h = half[i:i + step]
        x = mid[i:i + step, None] + h[:, None] * _XK[None, :]
        y = np.asarray(f(x.ravel()))
        y = y.reshape(y.shape[:-1] + x.shape)
        if window is not None:
            kern, centre = window
            y = y * kern(x - centre[i:i + step, None])
        i15.append((y * _WK).sum(axis=-1) * h)
        i7.append((y[..., _GAUSS_IDX] * _WG).sum(axis=-1) * h)
        if absolute:
            l1.append((np.abs(y) * _WK).sum(axis=-1) * h)
    i15 = np.concatenate(i15, axis=-1)
    i7 = np.concatenate(i7, axis=-1)
    err = np.abs(i15 - i7)
    # sharpen the raw difference the usual QUADPACK way
    scale = np.abs(i15) + 1e-300
    ratio = np.minimum(1.0, (200.0 * err / scale) ** 1.5)
    err = np.where(err > 0, np.minimum(err, err * ratio + 1e-16 * scale), err)
    l1 = np.concatenate(l1, axis=-1) if absolute else None
    return i15, err, _XK.size * lo.size, l1


def _refinement(bounds, rel_tol, abs_tol, max_depth, external_value=0.0,
                max_panels=_MAX_PANELS):
    """The adaptive rule, as a generator: it yields ``(lo, hi, absolute)``,
    the panels it needs evaluated, receives their ``(I15, err, L1)`` from
    `_gk_apply`, and returns ``(value, error, evaluations)``.

    Panels are bisected until the summed GK error estimate is below
    max(abs_tol, rel_tol * |total|).  `external_value` joins the
    relative-tolerance scale so that sub-regions of a larger integral do not
    over-refine.  ``abs_tol=None`` stands for rel_tol times the first pass's
    integral of |f| (so the first pass asks for L1), for an integrand whose
    value may cancel far below its magnitude.

    A stack of rows shares the panels.  Each row keeps its own total,
    tolerance and stall count; a panel is frozen once it is negligible for
    every row still refining, and refinement ends when every row has
    converged, stalled or turned non-finite (NaN fails every comparison, so
    it must stop explicitly; the value then reaches the caller's check).
    One integrand keeps numpy scalars for its totals, so a pass costs a
    few scalar operations and one sum per array."""
    lo = np.asarray(bounds[:-1], dtype=float)
    hi = np.asarray(bounds[1:], dtype=float)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0, 0.0, 0
    i15, err, l1 = yield lo, hi, abs_tol is None
    nev = _XK.size * lo.size
    if abs_tol is None:
        abs_tol = rel_tol * l1.sum(axis=-1) + 1e-300
    rows = tuple(range(i15.ndim - 1))   # the row axis of a stack, or none
    acc_val = acc_err = 0.0
    prev_err = math.inf
    stall = 0
    for depth in range(max_depth):
        val_sum = i15.sum(axis=-1)
        err_part = err.sum(axis=-1)
        total = acc_val + val_sum + external_value
        tol = np.maximum(abs_tol, rel_tol * abs(total))
        err_sum = acc_err + err_part
        converged = err_sum <= tol
        if converged.all() or lo.size == 0:
            break
        # bisection that no longer reduces the estimate means the integrand
        # noise floor (or estimator saturation) has been reached
        stall = (stall + 1) * (err_sum > 0.9 * prev_err)
        refining = ~converged & (stall < 2) & np.isfinite(total) & np.isfinite(err_sum)
        if not refining.any():
            break
        prev_err = err_sum
        # freeze panels that are individually negligible for every row
        # still refining
        every = refining.all()
        budget = 0.25 * tol / len(lo)
        if not every:
            budget = np.where(refining, budget, np.inf)
        done = np.all(err <= budget[..., None], axis=rows)
        if done.any():
            acc_val += i15[..., done].sum(axis=-1)
            acc_err += err[..., done].sum(axis=-1)
            lo, hi, i15, err = lo[~done], hi[~done], i15[..., ~done], err[..., ~done]
            val_sum = err_part = None
        if lo.size == 0:
            continue
        if 2 * lo.size > max_panels:
            # refine only the worst offenders to bound memory, ranked by
            # error over tolerance so that every row weighs alike
            ratio = err / tol[..., None]
            score = np.max(ratio if every else
                           np.where(refining[..., None], ratio, 0.0), axis=rows)
            order = np.argsort(score)[::-1][: max_panels // 4]
            mask = np.zeros(lo.size, dtype=bool)
            mask[order] = True
            acc_val += i15[..., ~mask].sum(axis=-1)
            acc_err += err[..., ~mask].sum(axis=-1)
            lo, hi = lo[mask], hi[mask]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        i15, err, _ = yield lo, hi, False
        nev += _XK.size * lo.size
        val_sum = err_part = None
    if lo.size:
        acc_val += i15.sum(axis=-1) if val_sum is None else val_sum
        acc_err += err.sum(axis=-1) if err_part is None else err_part
    return acc_val, acc_err, nev


def _adaptive_panels(f, bounds, rel_tol, abs_tol, max_depth,
                     external_value=0.0, max_panels=_MAX_PANELS):
    """``int f`` over the panels between ``bounds``, refined by
    `_refinement` (see there) on `_gk_apply` sums; returns (value, error,
    evaluations), with one value and error per row for a stack."""
    steps = _refinement(bounds, rel_tol, abs_tol, max_depth,
                        external_value, max_panels)
    try:
        lo, hi, absolute = next(steps)
        while True:
            i15, err, _, l1 = _gk_apply(f, lo, hi, absolute)
            lo, hi, absolute = steps.send((i15, err, l1))
    except StopIteration as stop:
        return stop.value


def _aligned_panel_bounds_many(a, b, width):
    """Panel bounds of every interval [a[j], b[j]], anchored at integer
    multiples of the shared ``width``, as a list of arrays: a[j], the
    multiples strictly inside, b[j].

    Trigonometric combinations |sum lambda_k e^{i nu_k x}|^alpha can have
    derivative kinks where the sum vanishes; for the dominant single-frequency
    case these sit at multiples of the period, i.e. on the anchored grid.
    Keeping kinks on panel *boundaries* (instead of interior points) is what
    keeps the Gauss-Kronrod error estimate honest, and the anchor at 0 makes
    the panel layout scale-covariant so that residual cusp errors cancel in
    self-similarity ratios.  All intervals are laid out in one pass of array
    arithmetic.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k0 = np.floor(a / width).astype(np.int64) + 1
    k1 = np.ceil(b / width).astype(np.int64) - 1
    count = np.maximum(k1 - k0 + 1, 0)
    first = np.cumsum(count) - count
    owner = np.repeat(np.arange(a.size), count)
    inner = (k0[owner] + (np.arange(owner.size) - first[owner])) * width
    keep = ((inner > a[owner] * (1 + 1e-14) + 1e-300)
            & (inner < b[owner] * (1 - 1e-14)))
    owner = owner[keep]
    size = np.bincount(owner, minlength=a.size) + 2
    start = np.cumsum(size) - size
    flat = np.empty(int(size.sum()))
    flat[start] = a
    flat[start + size - 1] = b
    rank = np.arange(owner.size) - (np.cumsum(size - 2) - (size - 2))[owner]
    flat[start[owner] + 1 + rank] = inner[keep]
    return np.split(flat, start[1:])


def _geometric_bounds(a, b):
    """a, 2a, 4a, ... below b, then b."""
    pts = [a]
    x = a
    while x * 2.0 < b:
        x *= 2.0
        pts.append(x)
    pts.append(b)
    return np.array(pts)


# ---------------------------------------------------------------------------
# the half-line integrator and its two wrappers
# ---------------------------------------------------------------------------

def _guarded(g):
    """Wrap g with a nonnegativity contract check on every row."""
    def gg(x):
        y = np.asarray(g(x), dtype=float)
        if not y.min() < 0.0:
            return y
        bad = y < -1e-12 * (np.max(np.abs(y), axis=-1, keepdims=True) + 1e-300)
        if bad.any():
            at = np.any(bad.reshape(-1, y.shape[-1]), axis=0)
            raise ContractViolationError(
                "integrand returned a negative sample at x=%r" % (x[at][:3],))
        return y
    return gg


def _singular_head(g, a1, sing_exp, rel_tol, abs_tol, ext):
    """Integral of g over (0, a1) via the substitution x = a1 * exp(-v); the
    stopping tolerance is relative to the running total ``ext + value``, and
    every row of a stack must meet it.  A block whose value or error is not
    finite ends the walk."""
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
        if not (np.isfinite(bv).all() and np.isfinite(be).all()):
            break
        tol = np.maximum(abs_tol, rel_tol * np.abs(ext + val))
        # geometric remainder bound for the decaying transformed integrand
        rem = np.abs(bv) * math.exp(-rate * block) / max(1.0 - math.exp(-rate * block), 1e-6)
        if np.all((rem <= 0.125 * tol) & (np.abs(bv) <= 0.125 * tol)):
            err += rem
            break
        v0 = v1
    return val, err, nev


def _window(w_lo, w_hi, rel_tol):
    """(sigma, panel_width, reach) for frequencies in [w_lo, w_hi]: the window
    width with exp(-(w_lo sigma)^2 / 2) = rel_tol/100, w_lo sigma clamped to
    [4.5, 9]; one period of w_hi per panel, half of one below rel_tol 1e-6;
    and the earliest tail cut-off, eight periods of w_lo."""
    sigma = min(9.0, max(4.5, math.sqrt(2.0 * math.log(100.0 / rel_tol)))) / w_lo
    p_fast = 2.0 * math.pi / w_hi
    panel_width = p_fast if rel_tol >= 1e-6 else 0.5 * p_fast
    return sigma, panel_width, 8.0 * 2.0 * math.pi / w_lo


def _windowed_means(g, xs, x_lo, sigma, panel_width, rel_tol):
    """(g * K)(x) restricted to y >= x_lo for every x in xs, as (means,
    evaluations), with one mean per x behind the row axis of a stack, K the
    Gaussian window of width sigma truncated at ``_HALFWIDTH`` sigma;
    adaptively refined so that cusps of the integrand (|.|^alpha kinks at the
    oscillation zeros) are resolved.

    A mean may be almost fully suppressed (sign-changing parts of an
    oscillatory integrand), so each window's stopping tolerance is anchored
    to the mean of |g| over it rather than to the mean of g; the first
    pass's samples give both.  Every window runs its own `_refinement`
    (its own floor, depth limit, stall count and panel cap), but the windows
    advance in lock-step: each pass evaluates g once over the pending panels
    of every live window, and each window gets a contiguous copy of its own
    sums, so its value is the one it would have alone.  Windows are taken in
    groups of at most ``_WINDOW_BATCH`` first-pass panels."""
    halfwidth = _HALFWIDTH * sigma
    c = 1.0 / (math.sqrt(2.0 * math.pi) * sigma
               * math.erf(halfwidth / (sigma * math.sqrt(2.0))))

    def kern(z):
        return c * np.exp(-0.5 * (z / sigma) ** 2)

    means = [0.0] * len(xs)
    nev = 0
    pending = []
    centres = np.asarray(xs, dtype=float)
    for j, bounds in enumerate(_aligned_panel_bounds_many(
            np.maximum(centres - halfwidth, x_lo), centres + halfwidth,
            panel_width)):
        steps = _refinement(bounds, rel_tol, None, 18, max_panels=200_000)
        try:
            pending.append((j, steps, next(steps)))
        except StopIteration:   # an empty window, x + halfwidth <= x_lo
            pass
    while pending:
        size, count = 0, 0
        for _, _, (lo, _, _) in pending:
            if count and size + lo.size > _WINDOW_BATCH:
                break
            size += lo.size
            count += 1
        live, pending = pending[:count], pending[count:]
        while live:
            sizes = [lo.size for _, _, (lo, _, _) in live]
            centre = np.repeat([xs[j] for j, _, _ in live], sizes)
            i15, err, _, l1 = _gk_apply(
                g, np.concatenate([req[0] for _, _, req in live]),
                np.concatenate([req[1] for _, _, req in live]),
                absolute=any(req[2] for _, _, req in live),
                window=(kern, centre))
            ends = np.cumsum(sizes)
            advanced = []
            for (j, steps, req), end, size in zip(live, ends, sizes):
                part = slice(end - size, end)
                sums = (np.ascontiguousarray(i15[..., part]),
                        np.ascontiguousarray(err[..., part]),
                        np.ascontiguousarray(l1[..., part]) if req[2] else None)
                try:
                    advanced.append((j, steps, steps.send(sums)))
                except StopIteration as stop:
                    means[j], _, n = stop.value
                    nev += n
            live = advanced
    return np.stack(np.broadcast_arrays(*means), axis=-1), nev


def _ramp(f, cutoff, sigma, panel_width, cfg, running):
    """``int f(y, w(y)) dy`` over [cutoff, x2 + halfwidth] as (value, error,
    evaluations), x2 = cutoff + halfwidth, halfwidth = ``_HALFWIDTH`` sigma:
    w(y) = 1 - int_{x2}^inf K(x - y) dx for the truncated, normalized
    Gaussian window K of width sigma is 1 up to cutoff, 0 from x2 +
    halfwidth on, an erf ramp between."""
    halfwidth = _HALFWIDTH * sigma
    x2 = cutoff + halfwidth
    norm = math.erf(halfwidth / (sigma * math.sqrt(2.0)))
    den = math.sqrt(2.0) * sigma

    def integrand(y):
        z = np.clip((x2 - y) / den, -halfwidth / den, halfwidth / den)
        return f(y, 1.0 - (norm - _erf(z)) / (2.0 * norm))

    return _adaptive_panels(
        integrand,
        _aligned_panel_bounds_many([cutoff], [x2 + halfwidth], panel_width)[0],
        0.5 * cfg.rel_tol, 0.5 * cfg.abs_tol, 24, external_value=running)


# power-law bracket: C in |g(x)| <= C x^{-(1+s)} is sampled on [r, 3.1 r]
_BRACKET = np.array([1.0, 1.3, 1.7, 2.3, 3.1])


def _envelope_constant(g, r, s):
    """1.5 * max |g(x)| x^{1+s} over the bracket at r, per row."""
    xs = r * _BRACKET
    return np.max(np.abs(g(xs)) * xs ** (1.0 + s), axis=-1) * 1.5


def _oscillating_tail(part, cutoff, w_osc, steady, s, cfg, mean_envelope,
                      running, x1_cap):
    """``int_cutoff^inf part`` as (value, error, evaluations) for a part
    whose components oscillate at the frequencies ``w_osc`` (ascending), and
    one that does not when ``steady``: exact window averaging out to x1,
    then past x1 the phase-mean envelope, or else a van der Corput bound
    per component.  With no envelope and nothing steady, the windowed
    integral over [X2, inf) is only the window's suppression of the
    components: it is bounded, not integrated.

    The window K is sized by `_window` to ``w_osc``.  Writing X2 for cutoff
    + halfwidth, the identity

        int_cutoff^inf part = int_cutoff^{X2+halfwidth} part(y) w(y) dy
                              + int_X2^inf (part * K)(x) dx,

    with w the erf ramp of `_ramp`, holds exactly.  The ramp term is a
    bounded oscillatory integral on oscillation-resolved panels; in the
    second every window lies fully inside [cutoff, inf), so the convolution
    suppresses all fast components and the outer integrand is genuinely
    smooth under the power substitution x = X2 * u**(-1/s).  The split
    matters: windows clipped at the cutoff edge would carry an unsuppressed
    O(1/(w*sigma)) ripple that defeats the error estimator.

    Each pass of the outer integrand evaluates the windowed means at all of
    its nodes together (`_windowed_means`).
    """
    sigma, panel_width, _ = _window(w_osc[0], w_osc[-1], cfg.rel_tol)
    ramp_val, ramp_err, nev = _ramp(lambda y, w: part(y) * w, cutoff, sigma,
                                    panel_width, cfg, running)

    x2 = cutoff + _HALFWIDTH * sigma
    # the windowed mean of |part| at X2 scales both the outer integrand's
    # noise floor and the bound on a skipped outer integral
    env2, n_env = _windowed_means(lambda y: np.abs(part(y)), [x2], cutoff,
                                  sigma, panel_width, rel_tol=1e-3)
    nev += n_env
    # window suppression residual: bounded by the kernel FT at w_min
    supp = math.exp(-0.5 * (w_osc[0] * sigma) ** 2)

    if mean_envelope is None and not steady:
        # |int_X2^inf part * K| <= (10 supp + erfc(_HALFWIDTH / sqrt 2))
        # env2 x2 / s: the truncated window keeps at most supp + erfc(...)
        # of each component a(y) e^{iwy}, 10 supp covers a's slope across
        # the window and the pi/2 by which the summed amplitudes may exceed
        # mean |part|, and mean |part| decays as x^{-(1+s)} from env2 at X2
        skipped = ((10.0 * supp + math.erfc(_HALFWIDTH / math.sqrt(2.0)))
                   * np.abs(env2[..., 0]) * x2 / s)
        return ramp_val, ramp_err + skipped, nev

    if mean_envelope is not None:
        x1 = max(4.0 * cutoff, min(x1_cap, cutoff * 1e6 ** (1.0 / max(s, 0.2))))
    else:
        x1 = x1_cap
    rel_tol, abs_tol = 0.5 * cfg.rel_tol, 0.5 * cfg.abs_tol
    inner_rt = max(min(1e-10, 0.05 * cfg.rel_tol), 0.01 * cfg.rel_tol, 1e-12)

    def outer(u):
        u = np.atleast_1d(u)
        means, n = _windowed_means(part, [x2 * ui ** (-1.0 / s) for ui in u],
                                   cutoff, sigma, panel_width, inner_rt)
        outer.nev += n
        return means * (x2 / s) * np.array([ui ** (-1.0 - 1.0 / s) for ui in u])
    outer.nev = 0
    # the outer integrand inherits absolute noise ~ inner_rt * envelope
    # from the windowed means; without this floor a fully suppressed tail
    # (mean ~ 0) would be refined forever in pursuit of pure noise
    noise = 3.0 * inner_rt * abs(env2[..., 0]) * x2 / s

    x1 = max(x1, 2.0 * x2)
    u1 = (x2 / x1) ** s
    # the substituted outer integrand is smooth; coarse initial grids are
    # fine at loose tolerances (every extra node costs a full windowed mean)
    n_outer = 9 if rel_tol < 5e-8 else (5 if rel_tol < 5e-6 else 3)
    ub = np.geomspace(u1, 1.0, n_outer)
    out_val, out_err, _ = _adaptive_panels(outer, ub, rel_tol,
                                           np.maximum(abs_tol, noise),
                                           14, external_value=running,
                                           max_panels=4000)
    nev += outer.nev
    tail_val, tail_err = ramp_val + out_val, ramp_err + out_err + noise
    tail_err += supp * abs(tail_val) * 10.0 + supp * cfg.abs_tol

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
        tv2, te2, n = _adaptive_panels(outer2, ub2, rel_tol, abs_tol, 14,
                                       external_value=running + tail_val)
        nev += n
        tail_val += tv2
        tail_err += te2 + 1e-6 * abs(tv2)  # residual weight below u=1e-6
    else:
        # each oscillating component is bounded van der Corput style by
        # env(x1)/w; the one that does not oscillate by its power-law tail
        c_env = _envelope_constant(part, x1, s)
        nev += _BRACKET.size
        tail_err += 2.0 * c_env * x1 ** (-1.0 - s) * sum(1.0 / w for w in w_osc)
        tail_err += c_env * x1 ** (-s) / s
    return tail_val, tail_err, nev


def _leak_ratio(g, fast_mean, lo, span, sigma, panel_width, inner_rel_tol):
    """Sum |(g - M) * K| / Sum M over windowed means at spacing 2 sigma
    across [lo, lo + span], per row, with (evaluations): the share of the
    fast-phase mean M that the window K of width sigma lets through of
    g - M, in L1.  K averages the fast phase out, so what is left of g - M
    is what the fast window leaks; it is at least sigma wide, so the
    spacing resolves it."""
    step = 2.0 * sigma
    xs = lo + _HALFWIDTH * sigma + step * np.arange(max(1, math.ceil(span / step)))
    leak, nev = _windowed_means(lambda y: g(y) - fast_mean(y), xs, lo, sigma,
                                panel_width, inner_rel_tol)
    scale = fast_mean(xs).sum(axis=-1)
    leak = np.abs(leak).sum(axis=-1)
    # a row that is zero throughout has M = 0 and leaks nothing
    return np.divide(leak, scale, out=np.zeros_like(leak), where=scale > 0.0), nev


def _two_scale_tail(g, cutoff, sigma, panel_width, w_fast, slow, s, cfg,
                    mean_envelope, running, x1_cap, fast_mean, fast_leak):
    """``int_cutoff^inf g`` as (value, error, evaluations) for a g whose fast
    phase has the closed-form mean ``fast_mean`` (M), by the split

        int_cutoff^inf g = int g w + int M (1 - w) + int (g - M) (1 - w),

    w the erf ramp (`_ramp`) of the window of width sigma sized to the fast
    band, whose foot is ``w_fast``.  The first term lives on the ramp
    [cutoff, cutoff + 2 halfwidth] and is taken together with the second
    there on fast panels; past the ramp M alone carries only the ``slow``
    beat frequencies and goes through a middle region and
    `_oscillating_tail` sized to them, with ``mean_envelope`` past x1 (g and
    M have the same Weyl mean).

    The third term is what the fast window leaks: the harmonics of the fast
    phase whose beat sidebands reach frequency 0, chiefly where |g| dips
    within a fast period of a zero.  It is bounded, not integrated.  Its
    a-priori bound is ``fast_leak`` times the tail (the caller's
    (Delta / nu_bar)^{1 + alpha}, the width of such a dip; the leak measured
    against period sums was at most 0.31 of it).  Where that is above a
    tenth of a row's tolerance the bound is measured instead: twice
    `_leak_ratio` over the first `_LEAK_BEATS` periods of the slowest beat,
    times the tail.  None when a row's measured bound is above twice its
    tolerance, half of what the certificate allows: the caller then takes
    the one-scale tail."""
    halfwidth = _HALFWIDTH * sigma
    r_end = cutoff + halfwidth + halfwidth
    val, err, nev = _ramp(lambda y, w: g(y) * w + fast_mean(y) * (1.0 - w),
                          cutoff, sigma, panel_width, cfg, running)

    # M past the ramp: a middle region and a tail sized to the beats
    _, panel_s, reach_s = _window(slow[0], slow[-1], cfg.rel_tol)
    cutoff_s = max(r_end, reach_s)
    mv, me, n = _adaptive_panels(
        fast_mean, _aligned_panel_bounds_many([r_end], [cutoff_s], panel_s)[0],
        0.25 * cfg.rel_tol, 0.25 * cfg.abs_tol, _MAX_DEPTH,
        external_value=running + val)
    nev += n
    val += mv
    err += me
    tv, te, n = _oscillating_tail(fast_mean, cutoff_s, slow, False, s, cfg,
                                  mean_envelope, running + val, x1_cap)
    nev += n
    val += tv
    err += te

    # what the fast window lets through of g - M
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(running + val))
    leak = fast_leak * np.abs(val)
    if np.any(leak > 0.1 * tol):
        ratio, n = _leak_ratio(g, fast_mean, r_end,
                               _LEAK_BEATS * 2.0 * math.pi / slow[0],
                               sigma, panel_width, 0.1 * cfg.rel_tol)
        nev += n
        leak = 2.0 * ratio * np.abs(val)
        if np.any(leak > 2.0 * tol):
            return None
    supp = math.exp(-0.5 * (w_fast * sigma) ** 2)
    err += leak + supp * abs(val) * 10.0 + supp * cfg.abs_tol
    return val, err, nev


def _half_line(g, s, singular_exponent, cfg: QuadratureConfig,
               freqs: Sequence[float], mean_envelope=None, fast=None):
    """``int_0^inf g(x) dx`` as (value, error, evaluations) for real or
    complex g with ``|g(x)| = O(x**-singular_exponent)`` as x -> 0+ and
    ``O(x**-(s + 1))`` as x -> inf.  ``freqs`` are the frequencies of g's
    components, below 1e-14 for one that does not oscillate.  ``fast`` is
    None or (fast frequency, fast-phase mean, a-priori leak): the
    frequencies below the fast frequency are then beats, and the tail is
    `_two_scale_tail`.  For a
    stack of rows, value and error hold one entry per row."""
    w_osc = sorted({float(w) for w in freqs if w > 1e-14})
    steady = any(w <= 1e-14 for w in freqs)
    nev = 0
    slow = [] if fast is None else [w for w in w_osc if w < fast[0]]

    if w_osc:
        w_min, w_max = w_osc[len(slow)], w_osc[-1]
        # the window must suppress the SLOWEST component too (beats between
        # close frequencies survive any narrower window and force the outer
        # integral to resolve them out to x1); a two-scale tail leaves the
        # beats to the fast-phase mean, so its window suppresses the fast band
        sigma, panel_width, reach = _window(w_min, w_max, cfg.rel_tol)
        a1 = min(_SPLIT, 0.5 / w_max)
        cutoff = max(4.0 * _SPLIT, reach)
        panels = (cutoff - a1) / panel_width
        if panels > _MAX_PANELS:
            raise QuadratureError(
                "frequencies %.6g and %.6g are too far apart: the middle region "
                "would need %.3g panels, over the cap of %d"
                % (w_min, w_max, panels, _MAX_PANELS))
        edges = [a1, _SPLIT, cutoff] if a1 < _SPLIT else [a1, cutoff]
        bounds = np.concatenate(
            [b[:-1] for b in _aligned_panel_bounds_many(
                edges[:-1], edges[1:], panel_width)] + [[cutoff]])
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
        if slow:
            tail = _two_scale_tail(g, cutoff, sigma, panel_width, w_min, slow,
                                   s, cfg, mean_envelope, running, x1_cap,
                                   fast[1], fast[2])
            if tail is None:
                return _half_line(g, s, singular_exponent, cfg, freqs,
                                  mean_envelope)
        else:
            tail = _oscillating_tail(g, cutoff, w_osc, steady, s, cfg,
                                     mean_envelope, running, x1_cap)
        tail_val, tail_err, n = tail
        nev += n
    else:
        # grow the cutoff until the power-law bound is negligible
        r = cutoff
        for _ in range(60):
            bound = _envelope_constant(g, r, s) * r ** (-s) / s
            nev += _BRACKET.size
            tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(running))
            if np.all(bound <= 0.25 * tol) or r > 1e12:
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
    both exponents from the norm estimates of the kernel combination.  For a
    stack of rows the exponents hold for every row, the value and error are
    one per row, and the call raises if any row misses its bound.
    """
    s = float(decay_exponent)
    if not s > 0:
        raise ValueError("decay_exponent must be positive")
    if not singular_exponent < 1:
        raise ValueError("singular_exponent must be < 1 for integrability")
    freqs, env, fast = ((), None, None) if oscillation is None else (
        oscillation.frequencies, oscillation.mean_envelope,
        oscillation.fast_mean and (oscillation.fast_frequency,
                                   oscillation.fast_mean,
                                   oscillation.fast_leak))
    half, half_err, nev = _half_line(_guarded(g), s, singular_exponent, cfg,
                                     freqs, env, fast)
    value = 2.0 * half
    error = 2.0 * half_err
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
    if not (np.isfinite(value).all() and np.isfinite(error).all()):
        raise QuadratureError(
            "quadrature gave a non-finite result: value %s, error %s"
            % (value, error), value=value, error=error)
    over = np.ravel(error > 4.0 * tol)
    if over.any():
        k = int(np.argmax(over))
        raise QuadratureError(
            "quadrature did not converge: achieved error %.3e > tolerance %.3e%s"
            % (np.ravel(error)[k], np.ravel(tol)[k],
               " in row %d" % k if np.ndim(value) else ""),
            value=value, error=error)
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
    if err > tol:
        raise QuadratureError(
            "oscillatory_ft did not converge: error %.3e" % err,
            value=total, error=err)
    return complex(total)
