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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _sciint
from scipy import optimize as _sciopt

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


@dataclass(frozen=True)
class OptimizerConfig:
    grad_tol: float = 1e-5
    max_iter: int = 200

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
    """Sum_k lam_k x^{-p_k} (c1_k e^{i nu_k x} + c0_k) for x > 0."""

    lam: np.ndarray       # real coefficients
    p: np.ndarray         # envelope exponents H(t_k) + 1/alpha
    nu: np.ndarray        # signed oscillation frequencies
    c1: np.ndarray        # complex factor on the oscillating part
    c0: np.ndarray        # complex constant part
    alpha: float

    def combo(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for k in range(self.lam.size):
            out += (self.lam[k] * x ** (-self.p[k])
                    * (self.c1[k] * np.exp(1j * self.nu[k] * x) + self.c0[k]))
        return out

    def phase_factors(self, y):
        """c1_k e^{i nu_k y} + c0_k at the phase samples y, one row per term."""
        return np.array([self.c1[k] * np.exp(1j * self.nu[k] * y) + self.c0[k]
                         for k in range(self.lam.size)])

    def combo_frozen(self, x, osc):
        """Envelope frozen at x (column), phases taken along the rows of
        ``osc = phase_factors(y)``."""
        out = np.zeros((x.size, osc.shape[1]), dtype=complex)
        for k in range(self.lam.size):
            out += self.lam[k] * x[:, None] ** (-self.p[k]) * osc[k][None, :]
        return out


def _build_terms(spec: ProcessSpec, times, coeffs) -> Optional[_Terms]:
    alpha = spec.alpha.alpha
    lam, p, nu, c1, c0 = [], [], [], [], []
    for t, c in zip(times, coeffs):
        t = float(t)
        c = float(c)
        if c == 0.0 or t == 0.0:  # f(0, .) = 0 for every variant
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
    return _Terms(lam=np.asarray(lam), p=np.asarray(p), nu=np.asarray(nu),
                  c1=np.asarray(c1, dtype=complex),
                  c0=np.asarray(c0, dtype=complex), alpha=alpha)


def _frequency_set(terms: _Terms) -> Tuple[float, ...]:
    """All oscillation frequencies of |combo|^alpha: the |nu_k| themselves
    (cross terms with the constants) and the pairwise |nu_i - nu_j|."""
    vals = set()
    nu = terms.nu
    for k in range(nu.size):
        vals.add(abs(nu[k]))
        for j in range(k):
            vals.add(abs(nu[k] - nu[j]))
    vals = sorted(v for v in vals if v > 1e-15)
    return tuple(vals)


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
    """
    alpha = combos[0].alpha
    p = np.concatenate([c.p for c in combos])
    osc = [c.phase_factors(y) for c in combos]

    def rows(x):
        return np.mean(reduce(*[c.combo_frozen(x, o) for c, o in zip(combos, osc)]),
                       axis=1)

    if np.all(p == p[0]):
        scale = float(rows(np.ones(1))[0])
        power = -alpha * float(p[0])

        def mean_env(x):
            return scale * np.atleast_1d(np.asarray(x, dtype=float)) ** power
        return mean_env

    block = max(1, _ENVELOPE_BLOCK // y.size)

    def mean_env(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.size)
        for i in range(0, x.size, block):
            out[i:i + block] = rows(x[i:i + block])
        return out
    return mean_env


def _raw_norm_integral(spec: ProcessSpec, times, coeffs,
                       cfg: QuadratureConfig) -> float:
    """int_R |Sum lambda_k f(t_k, x)|^alpha dx (the scale norm to the alpha)."""
    terms = _build_terms(spec, times, coeffs)
    if terms is None:
        return 0.0
    alpha = terms.alpha
    freqs = _frequency_set(terms)
    decay = alpha * float(np.min(terms.p)) - 1.0          # = alpha * min H(t_k)
    singular = alpha * (float(np.max(terms.p)) - 1.0)

    def g(x):
        return np.abs(terms.combo(x)) ** alpha

    mean_env = _mean_envelope(lambda G: np.abs(G) ** alpha, (terms,),
                              _phase_samples(freqs))
    hint = OscillationHint(frequencies=freqs, mean_envelope=mean_env)
    try:
        res = integrate_even_singular(g, decay, singular, cfg, oscillation=hint)
    except QuadratureError as exc:
        raise QuadratureError(
            "scale_norm quadrature failed for times=%s coeffs=%s: %s"
            % (tuple(times), tuple(coeffs), exc),
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

def _grad_component(spec: ProcessSpec, times, coeffs, j,
                    cfg: QuadratureConfig) -> float:
    """d/da_j of int |G|^alpha where G = Sum coeffs_k f(t_k) and the j-th
    coefficient enters as -a_j: returns -alpha int |G|^{alpha-2} Re(conj(G) f_j).

    The integrand changes sign, so it is split into positive and negative
    parts, each a valid input for the even-singular engine.
    """
    terms = _build_terms(spec, times, coeffs)
    if terms is None:
        return 0.0
    alpha = terms.alpha
    tj = float(times[j])
    unit = _build_terms(spec, (tj,), (1.0,))
    # frequencies of |G|^{alpha-2} conj(G), plus those coupling G with f_j
    fr = set(_frequency_set(terms))
    for nk in terms.nu:
        for nj in unit.nu:
            d = abs(nk - nj)
            if d > 1e-15:
                fr.add(d)
    for nj in unit.nu:
        fr.add(abs(nj))
    freqs = tuple(sorted(fr))

    p_min = float(min(np.min(terms.p), np.min(unit.p)))
    p_max = float(max(np.max(terms.p), np.max(unit.p)))
    decay = (alpha - 1.0) * p_min + float(np.min(unit.p)) - 1.0
    singular = alpha * (p_max - 1.0)

    def signed(G, fj):
        absG = np.abs(G)
        out = np.zeros_like(absG)
        mask = absG > 0.0
        out[mask] = (absG[mask] ** (alpha - 2.0)
                     * (G[mask].conjugate() * fj[mask]).real)
        return out

    y = _phase_samples(freqs)
    total = 0.0
    for sign in (1.0, -1.0):
        def part(G, fj, sign=sign):
            return np.maximum(sign * signed(G, fj), 0.0)

        def g(x, part=part):
            x = np.asarray(x, dtype=float)
            return part(terms.combo(x), unit.combo(x))

        hint = OscillationHint(frequencies=freqs,
                               mean_envelope=_mean_envelope(part, (terms, unit), y))
        res = integrate_even_singular(g, decay, singular, cfg, oscillation=hint)
        total += sign * res.value
    return -alpha * total  # dG/da_j = -f_j


def lnd_distance(spec: ProcessSpec, times: Sequence[float],
                 cfg: QuadratureConfig = QuadratureConfig(),
                 opt_cfg: OptimizerConfig = OptimizerConfig()) -> LNDReport:
    """Distance from X(t_n) to span{X(t_1), ..., X(t_{n-1})} in ||.||_alpha.

    Minimizes the convex map a -> ||f(t_n) - Sum_k a_k f(t_k)||_alpha^alpha by
    quasi-Newton with the gradient obtained by differentiating under the
    integral (alpha > 1 makes |.|^alpha continuously differentiable), with a
    simplex fallback; stationarity is certified by the quadrature gradient.
    """
    times = tuple(float(t) for t in times)
    n = len(times)
    if n < 2:
        raise ValueError("need at least two times")
    if any(b <= a for a, b in zip(times[:-1], times[1:])):
        raise ValueError("times must be strictly increasing (duplicates degenerate)")
    if times[0] <= 0.0:
        raise ValueError("LND domain is [eps, T] with eps > 0")
    alpha = spec.alpha.alpha

    def coeff_vec(a):
        return tuple(-float(ak) for ak in a) + (1.0,)

    def objective(a):
        return _raw_norm_integral(spec, times, coeff_vec(a), cfg)

    def gradient(a):
        cs = coeff_vec(a)
        return np.array([_grad_component(spec, times, cs, j, cfg)
                         for j in range(n - 1)])

    x0 = np.zeros(n - 1)
    x0[-1] = 1.0
    res = _sciopt.minimize(objective, x0, jac=gradient, method="BFGS",
                           options={"gtol": opt_cfg.grad_tol,
                                    "maxiter": opt_cfg.max_iter})
    best_x, best_f = res.x, float(res.fun)
    gnorm = float(np.max(np.abs(gradient(best_x))))
    if gnorm > opt_cfg.grad_tol:
        # derivative-free fallback from the best iterate
        res2 = _sciopt.minimize(objective, best_x, method="Nelder-Mead",
                                options={"xatol": 1e-9, "fatol": 1e-14,
                                         "maxiter": 400 * (n - 1)})
        if float(res2.fun) <= best_f:
            best_x, best_f = res2.x, float(res2.fun)
        gnorm = float(np.max(np.abs(gradient(best_x))))
        if gnorm > opt_cfg.grad_tol:
            raise OptimizerError(
                "LND minimization not stationary: |grad| = %.3e > %.3e"
                % (gnorm, opt_cfg.grad_tol), best_x, gnorm)

    distance = best_f ** (1.0 / alpha)
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
