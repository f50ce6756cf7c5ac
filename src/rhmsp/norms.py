"""Exact stable calculus for kernel combinations.

Every marginal of the process is symmetric alpha-stable, and the stochastic
integral is an isometry onto L^alpha(R), so norms of linear combinations
Sum lambda_k X(t_k) reduce to 1-D integrals of |Sum lambda_k f(t_k, x)|^alpha.
This module evaluates those integrals through the quad engine, exposes the
exact characteristic function, and performs the local-nondeterminism (LND)
minimization over the span of past values.
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

from .model import KernelVariant, ProcessSpec
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


# quasi-Newton iterations before the simplex fallback
_MAX_ITER = 200


@dataclass(frozen=True)
class OptimizerConfig:
    grad_tol: float = 1e-5

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class LNDReport:
    times: Tuple[float, ...]
    distance: float
    argmin: Tuple[float, ...]
    increment_norm: float
    ratio: float


class OptimizerError(RuntimeError):
    """LND minimization failed to certify stationarity."""

    def __init__(self, message, best_point, grad_norm):
        super().__init__(message)
        self.best_point = tuple(best_point)
        self.grad_norm = float(grad_norm)


# ---------------------------------------------------------------------------
# kernel combinations on the positive half-line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Terms:
    """Sum_k lam_k x^{-p_k} (c1_k e^{i nu_k x} + c0_k) for x > 0.

    ``lam`` is one coefficient vector, or a stack of rows (rows, terms) of
    combinations on the same times; the evaluations then gain a leading row
    axis, and each term's x^{-p_k} and e^{i nu_k x} are computed once for
    every row."""

    lam: np.ndarray       # real coefficients
    p: np.ndarray         # envelope exponents H(t_k) + 1/alpha
    nu: np.ndarray        # signed oscillation frequencies
    c1: np.ndarray        # complex factor on the oscillating part
    c0: np.ndarray        # complex constant part
    alpha: float

    def combo(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.lam.shape[:-1] + x.shape, dtype=complex)
        for k in range(self.p.size):
            out += (self.lam[..., k, None] * x ** (-self.p[k])
                    * (self.c1[k] * np.exp(1j * self.nu[k] * x) + self.c0[k]))
        return out

    def fast_parts(self, x, nu_bar):
        """(A, S) with combo(x) = A + e^{i nu_bar x} S: the constant part
        A = Sum lam_k c0_k x^{-p_k} and the beats S = Sum lam_k c1_k x^{-p_k}
        e^{i (nu_k - nu_bar) x}."""
        x = np.asarray(x, dtype=float)
        a = np.zeros(self.lam.shape[:-1] + x.shape, dtype=complex)
        b = np.zeros_like(a)
        for k in range(self.p.size):
            env = self.lam[..., k, None] * x ** (-self.p[k])
            a += env * self.c0[k]
            b += env * (self.c1[k] * np.exp(1j * (self.nu[k] - nu_bar) * x))
        return a, b

    def phase_factors(self, y):
        """c1_k e^{i nu_k y} + c0_k at the phase samples y, one row per term."""
        return np.array([self.c1[k] * np.exp(1j * self.nu[k] * y) + self.c0[k]
                         for k in range(self.p.size)])

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
    coefficients are all zero, or t = 0, has no term; None if none is left."""
    alpha = spec.alpha.alpha
    coeffs = np.asarray(coeffs, dtype=float)
    lam, p, nu, c1, c0 = [], [], [], [], []
    for k, t in enumerate(times):
        t = float(t)
        c = coeffs[..., k]
        if not np.any(c) or t == 0.0:  # f(0, .) = 0 for every variant
            continue
        if not 0.0 <= t <= spec.horizon:
            raise ValueError("time %g outside horizon [0, %g]" % (t, spec.horizon))
        pk = spec.hurst(t) + 1.0 / alpha
        if spec.kernel is KernelVariant.X:
            ck1, ck0, nuk = 1.0 + 0.0j, -1.0 + 0.0j, t
        elif spec.kernel is KernelVariant.Y:
            rot = np.exp(1j * math.pi * pk / 2.0)
            ck1, ck0, nuk = -rot, rot, -t
        else:  # F1
            rot = np.exp(-1j * math.pi * pk / 2.0)
            ck1, ck0, nuk = rot, -rot, t
        lam.append(c)
        p.append(pk)
        nu.append(nuk)
        c1.append(ck1)
        c0.append(ck0)
    if not lam:
        return None
    return _Terms(lam=np.stack(lam, axis=-1), p=np.asarray(p), nu=np.asarray(nu),
                  c1=np.asarray(c1, dtype=complex),
                  c0=np.asarray(c0, dtype=complex), alpha=alpha)


def _frequency_set(*combos: _Terms) -> Tuple[float, ...]:
    """Oscillation frequencies of |G|^alpha and |G|^{alpha-2} Re(conj(G) D)
    for the combinations G (and D): the pairwise |nu_i - nu_j| over all their
    terms, and the |nu_k| themselves, which come from cross terms with the
    constant parts.

    The |nu_k| are left out when every exponent p_k of every combination is
    equal (constant H) and each combination's constant part Sum lam_k c0_k
    vanishes to round-off, |Sum lam_k c0_k| <= 8 eps Sum |lam_k c0_k|.  Then
    every combination is c1 x^{-p} Sum lam_k e^{i nu_k x}, and both integrands
    carry only the beats.  Const-H increments and increment directions are
    such combinations; unit vectors f_j are not."""
    nu = np.concatenate([c.nu for c in combos])
    vals = {abs(nu[k] - nu[j]) for k in range(nu.size) for j in range(k)}
    if not _constant_free(combos):
        vals.update(abs(v) for v in nu)
    return tuple(sorted(v for v in vals if v > 1e-15))


def _constant_free(combos) -> bool:
    """Every exponent equal and every constant part Sum lam_k c0_k zero to
    round-off (see `_frequency_set`)."""
    p = np.concatenate([c.p for c in combos])
    parts = [c.lam * c.c0 for c in combos]
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


def _phase_samples(freqs: Sequence[float]) -> np.ndarray:
    """Sample points y such that averaging a trigonometric combination of the
    given frequencies over y approximates its asymptotic (Weyl) mean.

    If the frequencies are commensurate the closure of x -> (nu_k x) is a
    circle, and one exact common period is sampled.  Otherwise a long
    Kronecker-spaced line segment is used.
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
    # incommensurate fallback: Kronecker sequence over many slow periods
    length = 512.0 * 2.0 * math.pi / w[0]
    m = 1 << 17
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return length * np.mod((np.arange(m) + 0.5) * golden, 1.0)


# complex elements per block of a distinct-exponent phase-mean matrix (1 MiB):
# larger blocks run no faster and only raise the peak resident set
_ENVELOPE_BLOCK = 1 << 16


def _mean_envelope(reduce, combos, y):
    """Phase mean, over the samples y, of ``reduce(*[frozen combos at x])``
    as a vectorized function of the tail nodes x.

    ``reduce`` must be positively homogeneous of degree alpha in a common
    envelope factor.  When every term of every combination has the same
    exponent p (constant H), the frozen combinations at x are x^{-p} times
    those at x = 1, so the mean is evaluated once and scaled by
    x^{-alpha p}.  Otherwise the nodes are streamed in blocks of about
    ``_ENVELOPE_BLOCK`` elements (one node at least), so memory never grows
    as nodes x samples; the phase factors are computed once either way.
    Combinations that are stacks of rows give a (rows, nodes) envelope,
    taken one row at a time, so that a block never holds more than one row.
    """
    alpha = combos[0].alpha
    p = np.concatenate([c.p for c in combos])
    lead = combos[0].lam.shape[:-1]
    osc = [c.phase_factors(y) for c in combos]
    rows = ([[replace(c, lam=c.lam[i]) for c in combos] for i in range(lead[0])]
            if lead else [combos])

    def means(x):
        out = [np.mean(reduce(*[c.combo_frozen(x, o) for c, o in zip(row, osc)]),
                       axis=-1) for row in rows]
        return np.stack(out) if lead else out[0]

    if np.all(p == p[0]):
        scale = means(np.ones(1))[..., 0]
        power = -alpha * float(p[0])

        def mean_env(x):
            return np.multiply.outer(
                scale, np.atleast_1d(np.asarray(x, dtype=float)) ** power)
        return mean_env

    block = max(1, _ENVELOPE_BLOCK // y.size)

    def mean_env(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(lead + (x.size,))
        for i in range(0, x.size, block):
            out[..., i:i + block] = means(x[i:i + block])
        return out
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
    alpha = terms.alpha
    freqs = _frequency_set(terms)
    decay = alpha * float(np.min(terms.p)) - 1.0          # = alpha * min H(t_k)
    singular = alpha * (float(np.max(terms.p)) - 1.0)

    def g(x):
        return np.abs(terms.combo(x)) ** alpha

    mean_env = _mean_envelope(lambda G: np.abs(G) ** alpha, (terms,),
                              _phase_samples(freqs))
    hint = OscillationHint(frequencies=freqs, mean_envelope=mean_env,
                           **_two_scale(terms))
    try:
        # near H = 1 the head reaches x where x^{-p} overflows; the
        # non-finite value then raises, so a warning would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            res = integrate_even_singular(g, decay, singular, cfg, oscillation=hint)
    except QuadratureError as exc:
        raise QuadratureError(
            "scale_norm quadrature failed for times=%s coeffs=%s: %s"
            % (tuple(times), tuple(np.asarray(coeffs).tolist()), exc),
            value=exc.value, error=exc.error) from exc
    return res.value


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

def _grad_component(spec: ProcessSpec, times, coeffs, direction,
                    cfg: QuadratureConfig) -> float:
    """Derivative of int |G|^alpha along D, where G = Sum coeffs_k f(t_k) and
    D = Sum direction_k f(t_k): returns alpha int |G|^{alpha-2} Re(conj(G) D).

    The integrand changes sign, so it is split into positive and negative
    parts, each a valid input for the even-singular engine.  Its frequencies
    are those of G and D together, so an increment direction at an
    increment G under constant H carries only the beats.
    """
    terms = _build_terms(spec, times, coeffs)
    along = _build_terms(spec, times, direction)
    if terms is None or along is None:
        return 0.0
    alpha = terms.alpha
    freqs = _frequency_set(terms, along)

    p_min = float(min(np.min(terms.p), np.min(along.p)))
    p_max = float(max(np.max(terms.p), np.max(along.p)))
    decay = (alpha - 1.0) * p_min + float(np.min(along.p)) - 1.0
    singular = alpha * (p_max - 1.0)

    def signed(G, D):
        absG = np.abs(G)
        out = np.zeros_like(absG)
        mask = absG > 0.0
        out[mask] = (absG[mask] ** (alpha - 2.0)
                     * (G[mask].conjugate() * D[mask]).real)
        return out

    y = _phase_samples(freqs)
    total = 0.0
    for sign in (1.0, -1.0):
        def part(G, D, sign=sign):
            return np.maximum(sign * signed(G, D), 0.0)

        def g(x, part=part):
            x = np.asarray(x, dtype=float)
            return part(terms.combo(x), along.combo(x))

        hint = OscillationHint(frequencies=freqs,
                               mean_envelope=_mean_envelope(part, (terms, along), y))
        res = integrate_even_singular(g, decay, singular, cfg, oscillation=hint)
        total += sign * res.value
    return alpha * total


def _span_distance(spec: ProcessSpec, times, v0, V, x0,
                   cfg: QuadratureConfig, opt_cfg: OptimizerConfig):
    """(min, argmin) of the convex map a -> ||v0 + V^T a||_alpha^alpha, where
    v0 and the rows of the array V are coefficient vectors on X(times).

    Quasi-Newton runs with the gradient taken under the integral (alpha > 1
    makes |.|^alpha continuously differentiable), one derivative along each
    row of V, with a simplex fallback; stationarity is certified by the
    quadrature gradient.
    """
    def coeffs(a):
        return tuple(float(c) for c in v0 + a @ V)

    def objective(a):
        return _raw_norm_integral(spec, times, coeffs(a), cfg)

    def gradient(a):
        w = coeffs(a)
        return np.array([_grad_component(spec, times, w, row, cfg) for row in V])

    if not len(x0):  # an empty span
        return objective(x0), x0
    res = _sciopt.minimize(objective, x0, jac=gradient, method="BFGS",
                           options={"gtol": opt_cfg.grad_tol, "maxiter": _MAX_ITER})
    best_x, best_f = res.x, float(res.fun)
    gnorm = float(np.max(np.abs(gradient(best_x))))
    if gnorm > opt_cfg.grad_tol:
        # derivative-free fallback from the best iterate
        res2 = _sciopt.minimize(objective, best_x, method="Nelder-Mead",
                                options={"xatol": 1e-9, "fatol": 1e-14,
                                         "maxiter": 400 * len(x0)})
        if float(res2.fun) <= best_f:
            best_x, best_f = res2.x, float(res2.fun)
        gnorm = float(np.max(np.abs(gradient(best_x))))
        if gnorm > opt_cfg.grad_tol:
            raise OptimizerError(
                "LND minimization not stationary: |grad| = %.3e > %.3e"
                % (gnorm, opt_cfg.grad_tol), best_x, gnorm)
    return best_f, best_x


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
    from .model import kernel_hat_Y  # local import keeps module load light

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
