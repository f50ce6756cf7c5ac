"""Exact stable calculus for kernel combinations.

Every marginal of the process is symmetric alpha-stable, and the stochastic
integral is an isometry onto L^alpha(R), so norms of linear combinations
Sum lambda_k X(t_k) reduce to 1-D integrals of |Sum lambda_k f(t_k, x)|^alpha.
This module evaluates those integrals through the quad engine, exposes the
exact characteristic function, and performs the local-nondeterminism (LND)
minimization over the span of past values: BFGS on the value and every span
gradient of one quadrature pass per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _sciint
from scipy import optimize as _sciopt
from scipy.special import hyp2f1 as _hyp2f1

from .model import KernelVariant, ProcessSpec, kernel_hat_Y, kernel_rotation
from .quad import (
    OscillationHint,
    QuadratureConfig,
    QuadratureError,
    integrate_even_singular,
)

__all__ = [
    "FddPoint",
    "OptimizerConfig",
    "LNDReport",
    "OptimizerError",
    "scale_norm",
    "exact_cf",
    "increment_norm",
    "lnd_distance",
    "condition_h_constant",
    "hausdorff_young_ratio",
]


@dataclass(frozen=True)
class FddPoint:
    """A finite-dimensional combination Sum_k coeffs[k] * X(times[k])."""

    times: Tuple[float, ...]
    coeffs: Tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(times) == 0:
            raise ValueError("FddPoint needs at least one entry")
        if len(times) != len(coeffs):
            raise ValueError("times and coeffs lengths differ")
        if any(not math.isfinite(v) for v in times + coeffs):
            raise ValueError("non-finite FddPoint entry")
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)


# BFGS iterations before stationarity is checked
_MAX_ITER = 200


@dataclass(frozen=True)
class OptimizerConfig:
    grad_tol: float = 1e-5

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")


@dataclass(frozen=True)
class LNDReport:
    times: Tuple[float, ...]
    distance: float
    argmin: Tuple[float, ...]
    increment_norm: float
    ratio: float


class OptimizerError(RuntimeError):
    """LND minimization failed to certify stationarity."""


# ---------------------------------------------------------------------------
# kernel combinations on the positive half-line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Terms:
    """Sum_k lam_k x^{-p_k} c1_k (e^{i nu_k x} - 1) for x > 0.

    Every kernel variant has this form on the positive half-line, with its
    rotation in c1; forming e^{i nu x} - 1 before the rotation keeps the
    digits that c1 e^{i nu x} - c1 would cancel at small x.  ``lam`` is one
    coefficient vector, or a stack of rows (rows, terms) of combinations on
    the same times; the evaluations then gain a leading row axis, and each
    term's x^{-p_k} and e^{i nu_k x} are computed once for every row."""

    lam: np.ndarray       # real coefficients
    p: np.ndarray         # envelope exponents H(t_k) + 1/alpha
    nu: np.ndarray        # signed oscillation frequencies
    c1: np.ndarray        # complex rotation of each term
    alpha: float

    def combo(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.lam.shape[:-1] + x.shape, dtype=complex)
        for k in range(self.p.size):
            out += (self.lam[..., k, None] * x ** (-self.p[k])
                    * (self.c1[k] * (np.exp(1j * self.nu[k] * x) - 1.0)))
        return out

    def fast_parts(self, x, nu_bar):
        """(A, S) with combo(x) = A + e^{i nu_bar x} S: the constant part
        A = -Sum lam_k c1_k x^{-p_k} and the beats S = Sum lam_k c1_k x^{-p_k}
        e^{i (nu_k - nu_bar) x}."""
        x = np.asarray(x, dtype=float)
        a = np.zeros(self.lam.shape[:-1] + x.shape, dtype=complex)
        b = np.zeros_like(a)
        for k in range(self.p.size):
            env = self.lam[..., k, None] * x ** (-self.p[k])
            a -= env * self.c1[k]
            b += env * (self.c1[k] * np.exp(1j * (self.nu[k] - nu_bar) * x))
        return a, b

    def phase_factors(self, y):
        """c1_k (e^{i phi_k} - 1) at the phase samples y of `_phase_samples`,
        one row per term: phi_k = nu_k y at positions y, sgn(nu_k) theta[j]
        at torus phase pairs y = (levels, theta) with levels[j] = |nu_k|."""
        if isinstance(y, tuple):
            levels, theta = y
            arg = [1j * math.copysign(1.0, v) * theta[levels.index(abs(v))]
                   for v in self.nu]
        else:
            arg = [1j * v * y for v in self.nu]
        return np.array([c * (np.exp(a) - 1.0) for c, a in zip(self.c1, arg)])

    def combo_frozen(self, x, osc):
        """Envelope frozen at x (column), phases taken along the rows of
        ``osc = phase_factors(y)``; for one coefficient vector."""
        out = np.zeros((x.size, osc.shape[1]), dtype=complex)
        for k in range(self.lam.size):
            out += self.lam[k] * x[:, None] ** (-self.p[k]) * osc[k][None, :]
        return out


def _build_terms(spec: ProcessSpec, times, coeffs) -> Optional[_Terms]:
    """The terms of Sum_k coeffs_k f(t_k) on the positive half-line, or of
    each row of a coefficient stack (rows, times).  A time whose
    coefficients are all zero, or t = 0, has no term; None if none is left.

    On x > 0, X and F1 are rotation * (e^{itx} - 1) x^{-p}, the rotation
    of `kernel_rotation` (1 for X); Y is rotation * (1 - e^{-itx}) x^{-p},
    so it takes c1 = -rotation and nu = -t."""
    alpha = spec.alpha.alpha
    coeffs = np.asarray(coeffs, dtype=float)
    lam, p, nu, c1 = [], [], [], []
    for k, t in enumerate(times):
        t = float(t)
        c = coeffs[..., k]
        if not np.any(c) or t == 0.0:  # f(0, .) = 0 for every variant
            continue
        if not 0.0 <= t <= spec.horizon:
            raise ValueError("time %g outside horizon [0, %g]" % (t, spec.horizon))
        pk = spec.hurst(t) + 1.0 / alpha
        rot = kernel_rotation(spec.kernel, pk, 1.0)
        sign = -1.0 if spec.kernel is KernelVariant.Y else 1.0
        lam.append(c)
        p.append(pk)
        nu.append(sign * t)
        c1.append(sign * (1.0 if rot is None else rot))
    if not lam:
        return None
    return _Terms(lam=np.stack(lam, axis=-1), p=np.asarray(p), nu=np.asarray(nu),
                  c1=np.asarray(c1, dtype=complex), alpha=alpha)


def _frequency_set(*combos: _Terms) -> Tuple[float, ...]:
    """Oscillation frequencies of |G|^alpha and of the gradient rows of
    `_split_rows` for the combinations G (and D): the pairwise |nu_i - nu_j|
    over all their terms, and the |nu_k| themselves, which come from cross
    terms with the constant parts.

    The |nu_k| are left out when every exponent p_k of every combination is
    equal (constant H) and each combination's constant part -Sum lam_k c1_k
    vanishes to round-off, |Sum lam_k c1_k| <= 8 eps Sum |lam_k c1_k|.  Then
    every combination is x^{-p} Sum lam_k c1_k e^{i nu_k x}, and both
    integrands carry only the beats.  Const-H increments and increment
    directions are such combinations; unit vectors f_j are not."""
    nu = np.concatenate([c.nu for c in combos])
    vals = {abs(nu[k] - nu[j]) for k in range(nu.size) for j in range(k)}
    if not _constant_free(combos):
        vals.update(abs(v) for v in nu)
    return tuple(sorted(v for v in vals if v > 1e-15))


def _constant_free(combos) -> bool:
    """Every exponent equal and every constant part -Sum lam_k c1_k zero to
    round-off (see `_frequency_set`)."""
    p = np.concatenate([c.p for c in combos])
    parts = [c.lam * c.c1 for c in combos]
    return bool(np.all(p == p[0]) and all(
        np.all(np.abs(q.sum(axis=-1)) <= 8.0 * np.finfo(float).eps * np.abs(q).sum(axis=-1))
        for q in parts))


# the fast phase of a combination is averaged in closed form when its kernel
# frequencies cluster this tightly: |nu_bar| >= _CLUSTER * max |nu_k - nu_j|
_CLUSTER = 12.0


def _horner(coef, z):
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out = out * z + c
    return out


def _series(a, b, c):
    """Coefficients of 2F1(a, b; c; z) for z <= 1/2, up to the first term
    whose share of the largest is below 2^-60 there; past it they shrink
    monotonically, so the remainder is at most twice that term."""
    coef = [1.0]
    top = 1.0
    n = 0
    while abs(coef[-1]) * 0.5 ** n > 2.0 ** -60 * top:
        coef.append(coef[-1] * (n + a) * (n + b) / ((n + c) * (n + 1)))
        top = max(top, abs(coef[-1]))
        n += 1
    return coef


@lru_cache(maxsize=None)
def _hyp_mean_series(alpha):
    """The three series of `_hyp_mean` and the connection constants."""
    h = 0.5 * alpha
    return (_series(-h, -h, 1.0), _series(-h, -h, -alpha),
            _series(1.0 + h, 1.0 + h, 2.0 + alpha),
            math.gamma(1.0 + alpha) / math.gamma(1.0 + h) ** 2,
            math.gamma(-1.0 - alpha) / math.gamma(-h) ** 2)


def _hyp_mean(alpha, z):
    """2F1(-h, -h; 1; z), h = alpha/2, for z in [0, 1]: the power series for
    z <= 1/2, and above it the connection formula to 1 - z,

        K1 2F1(-h, -h; -alpha; 1 - z)
        + K2 (1 - z)^{1+alpha} 2F1(1+h, 1+h; 2+alpha; 1 - z),

    K1 = Gamma(1+alpha) / Gamma(1+h)^2, K2 = Gamma(-1-alpha) / Gamma(-h)^2.
    Near alpha = 1 or 2 its two terms cancel, so within 1e-3 of them scipy's
    hyp2f1 (exact there, but slow near z = 1) takes that branch instead."""
    low_series, p_series, q_series, k1, k2 = _hyp_mean_series(alpha)
    out = np.empty_like(z)
    low = z <= 0.5
    out[low] = _horner(low_series, z[low])
    w = 1.0 - z[~low]
    if min(alpha - 1.0, 2.0 - alpha) < 1e-3:
        out[~low] = _hyp2f1(-0.5 * alpha, -0.5 * alpha, 1.0, z[~low])
    else:
        out[~low] = (k1 * _horner(p_series, w)
                     + k2 * w ** (1.0 + alpha) * _horner(q_series, w))
    return out


def _fast_phase_mean(a, b, alpha):
    """Mean over theta of |a + e^{i theta} b|^alpha, elementwise:
    max^alpha 2F1(-alpha/2, -alpha/2; 1; (min/max)^2) of |a| and |b|."""
    a = np.abs(a)
    b = np.abs(b)
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    ratio = np.divide(small, big, out=np.zeros_like(big), where=big > 0.0)
    return big ** alpha * _hyp_mean(alpha, ratio * ratio)


def _two_scale(terms: _Terms) -> dict:
    """The `OscillationHint` fields of the two-scale tail for a combination
    whose frequencies nu_k cluster (|nu_bar| >= _CLUSTER times their spread,
    nu_bar the centre of their range) and which keeps a constant part:
    ``fast_frequency`` min |nu_k|, the foot of the fast band, and
    ``fast_mean`` the closed-form mean of |G|^alpha over the fast phase
    nu_bar x, which carries only the beats nu_k - nu_j.  Empty otherwise."""
    lo, hi = float(np.min(terms.nu)), float(np.max(terms.nu))
    nu_bar = 0.5 * (lo + hi)
    if not 0.0 < _CLUSTER * (hi - lo) <= abs(nu_bar) or _constant_free((terms,)):
        return {}

    def fast_mean(x):
        return _fast_phase_mean(*terms.fast_parts(x, nu_bar), terms.alpha)
    return {"fast_frequency": min(abs(lo), abs(hi)), "fast_mean": fast_mean,
            "fast_leak": ((hi - lo) / abs(nu_bar)) ** (1.0 + terms.alpha)}


# side of the trapezoid grid on a two-frequency phase torus: against a 2048^2
# reference at x in [1e3, 1e9], 128^2 is 1.4e-6 and 2.5e-6 off on a sine-H
# increment at delta 1e-2 and 2.5e-3, and 9.2e-9 off on a const-H m2 phi
# section, where the 2^17-point Kronecker line was 2.2e-6, 2.8e-6 and 2.3e-7
# off; 64^2 is five times worse than the line on the sine-H increments
_TORUS_SIDE = 128


def _phase_samples(freqs: Sequence[float], nu: Sequence[float]):
    """Phase samples over which the mean of a trigonometric combination of
    the frequencies ``freqs`` of terms e^{i nu_k x} approximates its
    asymptotic (Weyl) mean.

    If the frequencies are commensurate the closure of x -> (nu_k x) is a
    circle, and one exact common period is sampled: positions y, where term
    k takes the phase nu_k y.  Otherwise, with exactly two distinct |nu_k|,
    the closure is the 2-torus, and the samples are the phase pairs
    (levels, theta) of a _TORUS_SIDE^2 trapezoid grid on it, where term k
    takes the phase sgn(nu_k) theta[j] with levels[j] = |nu_k|; the rule is
    spectrally accurate on periodic integrands.  With three or more, a
    rational relation among them would put the orbit on a sub-torus, so a
    long Kronecker-spaced line segment of positions is used.
    """
    w = np.asarray(sorted(freqs), dtype=float)
    base = w[0]
    dens = []
    ok = True
    for wk in w:
        fr = Fraction(wk / base).limit_denominator(20000)
        if abs(wk / base - float(fr)) > 1e-11:
            ok = False
            break
        dens.append(fr)
    if ok:
        lcm_den = 1
        for fr in dens:
            lcm_den = lcm_den * fr.denominator // math.gcd(lcm_den, fr.denominator)
        g = base / lcm_den
        n_max = round(w[-1] / g)
        if n_max <= 200_000:
            period = 2.0 * math.pi / g
            m = int(min(1 << 20, max(4096, 64 * n_max)))
            return (np.arange(m) + 0.5) * (period / m)
    levels = tuple(sorted({abs(float(v)) for v in nu}))
    if len(levels) == 2:
        grid = (np.arange(_TORUS_SIDE) + 0.5) * (2.0 * math.pi / _TORUS_SIDE)
        return levels, np.stack([np.repeat(grid, _TORUS_SIDE), np.tile(grid, _TORUS_SIDE)])
    # three or more: a Kronecker sequence over many slow periods
    length = 512.0 * 2.0 * math.pi / w[0]
    m = 1 << 17
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return length * np.mod((np.arange(m) + 0.5) * golden, 1.0)


# complex elements per block of a distinct-exponent phase-mean matrix (1 MiB):
# larger blocks run no faster and only raise the peak resident set
_ENVELOPE_BLOCK = 1 << 16

# Chebyshev coefficients of a computed phase mean level off at 1e-16 to 2e-15
# of the largest (the summands cancel in G, then 4 096 or more period
# samples, 128^2 torus phase pairs or 2^17 line samples are summed); a
# trailing pair below this share is at that floor
_ENVELOPE_CHOP = 64.0 * np.finfo(float).eps

# the least factor by which doubling a level must cut an open row's trailing
# coefficients: geometric decay that reaches the chop by 33 points cuts them
# 50-fold from 5 to 9 points, while a phase mean that is not smooth in ln x
# levels off far above the chop
_ENVELOPE_GAIN = 16.0


def _lobatto_coefficients(v):
    """Chebyshev coefficients, along the last axis, of the polynomial through
    the values v at the Lobatto points cos(pi j / n), j = 0..n."""
    n = v.shape[-1] - 1
    c = np.fft.rfft(np.concatenate([v, v[..., -2:0:-1]], axis=-1), axis=-1).real / n
    c[..., 0] *= 0.5
    c[..., n] *= 0.5
    return c


def _mean_envelope(reduce, combos, y):
    """Phase mean, over the samples y, of ``reduce(*[frozen combos at x])``
    as a vectorized function of the tail nodes x.

    ``reduce`` must be positively homogeneous of degree alpha in a common
    envelope factor, so the mean is x^{-alpha p_min} Phi(ln x), where Phi
    sees x only through the factors x^{-(p_k - p_min)}.  When every term of
    every combination has the same exponent p (constant H), Phi is a
    constant: the mean is evaluated once, at x = 1, and scaled by
    x^{-alpha p}.

    Otherwise Phi is smooth, and nearly flat when the exponents are close.
    It is summed at nested Chebyshev-Lobatto points in ln x (5, 9, 17, ...)
    on the span of one call's nodes, each level reusing the sums of the one
    before, until every row's two trailing coefficients are within
    ``_ENVELOPE_CHOP`` of its largest; the interpolant times
    x^{-alpha p_min} is then the envelope.  Only levels with at most half
    as many points as nodes are tried, the attempt ends at a level that
    does not cut an open row's trailing pair ``_ENVELOPE_GAIN``-fold, and
    the nodes are then summed directly, so a call costs at most 1.5 times
    the direct sums.  The direct sums stream the nodes in blocks of about
    ``_ENVELOPE_BLOCK`` elements (one node at least), so memory never grows
    as nodes x samples; the phase factors are computed once either way.
    Stacked combinations, or a ``reduce`` that returns a stack, give a
    (rows, nodes) envelope; a block holds one combination row at a time.
    """
    alpha = combos[0].alpha
    p = np.concatenate([c.p for c in combos])
    lead = combos[0].lam.shape[:-1]
    osc = [c.phase_factors(y) for c in combos]

    def split(parts):
        return ([[replace(c, lam=c.lam[i]) for c in parts] for i in range(lead[0])]
                if lead else [parts])

    def means(x, rows):
        out = [np.mean(reduce(*[c.combo_frozen(x, o) for c, o in zip(row, osc)]),
                       axis=-1) for row in rows]
        return np.stack(out) if lead else out[0]

    rows = split(combos)
    if np.all(p == p[0]):
        scale = means(np.ones(1), rows)[..., 0]
        power = -alpha * float(p[0])

        def mean_env(x):
            return np.multiply.outer(
                scale, np.atleast_1d(np.asarray(x, dtype=float)) ** power)
        return mean_env

    block = max(1, _ENVELOPE_BLOCK // osc[0].shape[-1])
    p_min = float(np.min(p))
    # Phi(ln x): the combinations with every exponent lowered by p_min
    flat = split([replace(c, p=c.p - p_min) for c in combos])

    def summed(x, rows):
        return np.concatenate([means(x[i:i + block], rows)
                               for i in range(0, x.size, block)], axis=-1)

    def interpolated(x):
        """The interpolant of Phi times x^{-alpha p_min} at x, or None."""
        t = np.log(x)
        lo, hi = float(np.min(t)), float(np.max(t))
        if not (np.all(np.isfinite(t)) and lo < hi):
            return None
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        n, phi, last = 4, None, None     # 5 points, then 9, 17, ...
        while 2 * (n + 1) <= x.size:
            # level n keeps the points of level n / 2 at its even indices
            j = np.arange(n + 1) if phi is None else np.arange(1, n, 2)
            new = summed(np.exp(mid + half * np.cos(math.pi * j / n)), flat)
            if phi is None:
                phi = new
            else:
                merged = np.empty(phi.shape[:-1] + (n + 1,))
                merged[..., ::2], merged[..., 1::2] = phi, new
                phi = merged
            c = _lobatto_coefficients(phi)
            size = np.abs(c)
            tail = np.maximum(size[..., -1], size[..., -2])
            # a NaN fails both tests, so it ends in the direct sums
            resolved = tail <= _ENVELOPE_CHOP * np.max(size, axis=-1)
            if np.all(resolved):
                return (np.polynomial.chebyshev.chebval(
                    (t - mid) / half, np.moveaxis(c, -1, 0))
                    * x ** (-alpha * p_min))
            if last is not None and not np.all(resolved | (tail <= last / _ENVELOPE_GAIN)):
                return None
            n, last = 2 * n, tail
        return None

    def mean_env(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = interpolated(x)
        return summed(x, rows) if out is None else out
    return mean_env


def _raw_norm_integral(spec: ProcessSpec, times, coeffs,
                       cfg: QuadratureConfig):
    """int_R |Sum lambda_k f(t_k, x)|^alpha dx (the scale norm to the alpha).

    ``coeffs`` is one coefficient vector, or a stack of rows (rows, times)
    of vectors on the same times; then the rows share one quadrature pass,
    which evaluates each f(t_k, x) once per node for every row, each row is
    certified on its own, and the result is an array with one value per
    row.  One vector gives a float."""
    terms = _build_terms(spec, times, coeffs)
    if terms is None:
        return np.zeros(np.shape(coeffs)[:-1]) if np.ndim(coeffs) > 1 else 0.0
    try:
        return _terms_integral(terms, cfg)
    except QuadratureError as exc:
        raise QuadratureError(
            "scale_norm quadrature failed for times=%s coeffs=%s: %s"
            % (tuple(times), tuple(np.asarray(coeffs).tolist()), exc),
            value=exc.value, error=exc.error) from exc


def _integral(reduce, combos, decay, cfg: QuadratureConfig, **fast):
    """int_R reduce(*[G(x) for G in combos]) dx, per row, for an even,
    nonnegative ``reduce`` of the combinations `combos` that decays as
    x^{-(decay + 1)}: the one path from kernel combinations to the engine.
    It builds the frequency set, the singular exponent alpha (max p - 1),
    the phase samples, the mean envelope and the hint; ``fast`` holds the
    two-scale fields of `_two_scale`, if any."""
    freqs = _frequency_set(*combos)
    p_max = float(max(np.max(c.p) for c in combos))
    hint = OscillationHint(
        frequencies=freqs,
        mean_envelope=_mean_envelope(reduce, combos, _phase_samples(
            freqs, np.concatenate([c.nu for c in combos]))),
        **fast)

    def g(x):
        return reduce(*[c.combo(x) for c in combos])

    # near H = 1 the head reaches x where x^{-p} overflows; the
    # non-finite value then raises, so a warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        return integrate_even_singular(g, decay, combos[0].alpha * (p_max - 1.0),
                                       cfg, oscillation=hint).value


def _terms_integral(terms: _Terms, cfg: QuadratureConfig):
    """int_R |G(x)|^alpha dx for the combination G of `terms`, per row."""
    alpha = terms.alpha
    decay = alpha * float(np.min(terms.p)) - 1.0          # = alpha * min H(t_k)
    return _integral(lambda G: np.abs(G) ** alpha, (terms,), decay, cfg,
                     **_two_scale(terms))


def scale_norm(spec: ProcessSpec, point: FddPoint,
               cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """(int_R |Sum_k lambda_k f(t_k, x)|^alpha dx)^{1/alpha}."""
    raw = _raw_norm_integral(spec, point.times, point.coeffs, cfg)
    return raw ** (1.0 / spec.alpha.alpha)


def exact_cf(spec: ProcessSpec, point: FddPoint,
             cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """E exp(i Sum_k lambda_k X(t_k)) = exp(-||Sum lambda_k f(t_k)||_alpha^alpha);
    real because the law is symmetric."""
    return math.exp(-_raw_norm_integral(spec, point.times, point.coeffs, cfg))


def increment_norm(spec: ProcessSpec, t: float, s: float,
                   cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """||X(t) - X(s)||_alpha."""
    t = float(t)
    s = float(s)
    if t == s:
        return 0.0
    lo, hi = (s, t) if s < t else (t, s)
    sgn = 1.0 if s < t else -1.0
    point = FddPoint(times=(lo, hi), coeffs=(-sgn, sgn))
    return scale_norm(spec, point, cfg)


# ---------------------------------------------------------------------------
# LND distance: convex minimization over the span of past values
# ---------------------------------------------------------------------------

def _grad_component(spec: ProcessSpec, times, coeffs, directions,
                    cfg: QuadratureConfig) -> Tuple[float, np.ndarray]:
    """(int |G|^alpha, its gradient along each D_j) from one integral, where
    G = Sum coeffs_k f(t_k) and D_j = Sum directions[j]_k f(t_k).  The
    derivative along D is alpha int |G|^{alpha-2} Re(conj(G) D), taken as
    alpha (int P - int N) of the nonnegative rows of `_split_rows`; the
    rows [|G|^alpha, P_1, N_1, ..., P_m, N_m] share one mesh, so each
    difference is the K15 sum of its integrand.  Each row is certified on
    its own, so a derivative's error is relative to int P + int N.  An
    increment direction at an increment G under constant H carries only
    the beats (`_frequency_set`).  Every combination takes a term at each
    time any of them uses, so a zero direction is a zero row, where P = N."""
    stack = _build_terms(spec, times, np.vstack([coeffs, directions]))
    if stack is None:
        return 0.0, np.zeros(len(directions))
    alpha = stack.alpha
    # N <= |G|^{alpha-1} (|D| + |G|) decays as x^{-alpha p_min}
    decay = alpha * float(np.min(stack.p)) - 1.0

    def reduce(G, *D):
        return np.concatenate([np.abs(G)[None] ** alpha]
                              + [_split_rows(G, d, alpha) for d in D])
    rows = _integral(reduce, [replace(stack, lam=lam) for lam in stack.lam], decay, cfg)
    return float(rows[0]), alpha * (rows[1::2] - rows[2::2])


def _split_rows(G, D, alpha):
    """[P, N]: N = |G|^{alpha-1} sqrt(|D|^2 + |G|^2), P = N + v, v = |G|^{alpha-1}
    Re(conj(G) D / |G|) (0 at G = 0).  |v| < N where G != 0 (Cauchy-Schwarz), so the
    clip of P at 0 takes off only round-off; both rows are smooth there, while
    max(+-v, 0) kinks where v changes sign, and |G|^{alpha-1} |D| where D = 0."""
    absG = np.abs(G)
    safe = np.where(absG > 0.0, absG, 1.0)
    # Re(conj(G) D) / |G| from the unit vector G / |G|: no small product underflows
    along = (G.real / safe) * D.real + (G.imag / safe) * D.imag
    lift = np.hypot(np.abs(D), absG)
    return absG ** (alpha - 1.0) * np.stack([np.maximum(lift + along, 0.0), lift])


def _span_distance(spec: ProcessSpec, times, v0, V, x0,
                   cfg: QuadratureConfig, opt_cfg: OptimizerConfig):
    """(min, argmin) of the convex map a -> ||v0 + V^T a||_alpha^alpha, where
    v0 and the rows of the array V are coefficient vectors on X(times).

    BFGS runs on the value and the gradient of one `_grad_component` pass
    per evaluation: alpha > 1 makes |.|^alpha continuously differentiable,
    so the gradient is taken under the integral, one derivative along each
    row of V.  Stationarity is certified by the quadrature gradient at the
    last iterate, or OptimizerError is raised.
    """
    if not len(x0):  # an empty span
        return _raw_norm_integral(spec, times, v0, cfg), x0
    res = _sciopt.minimize(lambda a: _grad_component(spec, times, v0 + a @ V, V, cfg),
                           x0, jac=True, method="BFGS",
                           options={"gtol": opt_cfg.grad_tol, "maxiter": _MAX_ITER})
    gnorm = float(np.max(np.abs(res.jac)))
    if gnorm > opt_cfg.grad_tol:
        raise OptimizerError("LND minimization not stationary: |grad| = %.3e > %.3e"
                             % (gnorm, opt_cfg.grad_tol))
    return float(res.fun), res.x


def lnd_distance(spec: ProcessSpec, times: Sequence[float],
                 cfg: QuadratureConfig = QuadratureConfig(),
                 opt_cfg: OptimizerConfig = OptimizerConfig()) -> LNDReport:
    """Distance from X(t_n) to span{X(t_1), ..., X(t_{n-1})} in ||.||_alpha,
    the minimum of ||f(t_n) - Sum_k a_k f(t_k)||_alpha over a."""
    times = tuple(float(t) for t in times)
    n = len(times)
    if n < 2:
        raise ValueError("need at least two times")
    if any(b <= a for a, b in zip(times[:-1], times[1:])):
        raise ValueError("times must be strictly increasing (duplicates degenerate)")
    if times[0] <= 0.0:
        raise ValueError("LND domain is [eps, T] with eps > 0")
    x0 = np.zeros(n - 1)
    x0[-1] = 1.0
    best_f, best_x = _span_distance(spec, times, np.eye(n)[-1], -np.eye(n - 1, n),
                                    x0, cfg, opt_cfg)
    distance = best_f ** (1.0 / spec.alpha.alpha)
    inc = increment_norm(spec, times[-1], times[-2], cfg)
    return LNDReport(times=times, distance=distance,
                     argmin=tuple(float(v) for v in best_x),
                     increment_norm=inc, ratio=distance / inc)


# ---------------------------------------------------------------------------
# condition (H) and the Hausdorff-Young ratio
# ---------------------------------------------------------------------------

def condition_h_constant(spec: ProcessSpec, pairs: Sequence[Tuple[float, float]],
                         cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Best constant C with |E e^{i lam (X(t)-X(s))}| <= exp(-C |lam|^alpha
    |t-s|^{alpha hHat}) over the sampled pairs: the infimum of
    (increment_norm / |t-s|^{hHat})^alpha."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    h_hat = spec.hurst.h_hat
    alpha = spec.alpha.alpha
    best = math.inf
    for t, s in pairs:
        t, s = float(t), float(s)
        if t == s:
            raise ValueError("degenerate pair (t == s)")
        val = increment_norm(spec, t, s, cfg) / abs(t - s) ** h_hat
        best = min(best, val ** alpha)
    return best


def hausdorff_young_ratio(spec: ProcessSpec, point: FddPoint,
                          cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """||F g||_{L^beta} / ||g||_{L^alpha} for g = Sum lambda_k f_Y(t_k, .),
    with the transform given in closed form by `kernel_hat_Y` (linear in the
    combination).  The transform is supported on (-inf, t_n]: it vanishes for
    u > t_k term by term but extends to all u < 0, so the beta-norm includes
    the negative half-line tail.
    """
    if spec.kernel is not KernelVariant.Y:
        raise ValueError("hausdorff_young_ratio requires the Y kernel")
    alpha = spec.alpha.alpha
    beta = spec.alpha.beta
    g_norm = scale_norm(spec, point, cfg)
    if g_norm == 0.0:
        raise ValueError("zero combination")
    act = [(t, c) for t, c in zip(point.times, point.coeffs)
           if c != 0.0 and t != 0.0]

    def ghat(u):
        return sum(c * kernel_hat_Y(spec, t, u) for t, c in act)

    def integrand(u):
        return abs(ghat(u)) ** beta

    t_n = max(t for t, _ in act)
    interior = sorted({t for t, _ in act if t < t_n})
    head, _ = _sciint.quad(integrand, 0.0, t_n, points=interior or None,
                           limit=400, epsabs=1e-13, epsrel=1e-11)
    tail, _ = _sciint.quad(integrand, -np.inf, 0.0, limit=400,
                           epsabs=1e-13, epsrel=1e-11)
    return (head + tail) ** (1.0 / beta) / g_norm
