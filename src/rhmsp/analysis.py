"""Verification suites tying simulation and exact calculus together.

Each operation packages one desk-scale check — Hölder slope of sampled paths,
localizability of rescaled increments, the norm-equivalence sweeps, local
nondeterminism ratios, and the appendix Fourier-transform identity — into a
CheckReport with an explicit metric, threshold, and pass/fail direction.
Every report is a pure function of its inputs, hence reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _sciint
from scipy.special import gamma as _gamma_fn

from .model import HurstFunction, KernelVariant, ProcessSpec, StabilityIndex
from .norms import (
    OptimizerConfig,
    _Terms,
    _raw_norm_integral,
    _span_distance,
    _terms_integral,
    increment_norm,
)
from .quad import QuadratureConfig, oscillatory_ft

__all__ = [
    "CheckReport",
    "DEFAULT_U_GRID",
    "holder_lags",
    "holder_slope",
    "localizability_error",
    "lemma_sweeps",
    "lnd_study",
    "ft_check",
]

DEFAULT_U_GRID = (-2.0, -1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 3.0)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class CheckReport:
    """One verification outcome.  ``passed`` is derived from the other
    fields: metric <= threshold or metric >= threshold, per ``direction``.

    The constructor still takes a ``passed`` flag from callers that state
    one; a flag that disagrees with the derived one is rejected."""

    check: str
    parameters: Dict[str, object]
    metric: float
    threshold: float
    direction: str          # "<=" or ">="
    artifacts: Tuple[str, ...] = ()

    def __init__(self, check: str, parameters: Dict[str, object],
                 metric: float, threshold: float, direction: str = "<=",
                 artifacts: Sequence[str] = (),
                 passed: Optional[bool] = None):
        if direction not in ("<=", ">="):
            raise ValueError("direction must be '<=' or '>='")
        for name, value in (("check", check), ("parameters", dict(parameters)),
                            ("metric", float(metric)),
                            ("threshold", float(threshold)),
                            ("direction", direction),
                            ("artifacts", tuple(artifacts))):
            object.__setattr__(self, name, value)
        if passed is not None and bool(passed) != self.passed:
            raise ValueError("pass flag inconsistent with metric/threshold")

    @property
    def passed(self) -> bool:
        if self.direction == "<=":
            return self.metric <= self.threshold
        return self.metric >= self.threshold

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "metric": self.metric,
            "threshold": self.threshold,
            "direction": self.direction,
            "pass": self.passed,
            "artifacts": list(self.artifacts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def with_artifacts(self, paths: Sequence[str]) -> "CheckReport":
        return replace(self, artifacts=tuple(str(p) for p in paths))

    def with_parameters(self, **extra) -> "CheckReport":
        """The same outcome with `extra` added to (or overriding) its
        parameters, e.g. the run's provenance as ``config=...``."""
        return replace(self, parameters={**self.parameters, **extra})


# ---------------------------------------------------------------------------
# Hölder slope of sampled paths
# ---------------------------------------------------------------------------

def holder_lags(grid, deltas: Sequence[float]):
    """The sorted deltas and their lags in steps of the uniform grid, as
    `holder_slope` uses them; raises ValueError for fewer than 4 deltas, a
    grid that is not uniform or a delta that is no usable multiple of its
    step.  It needs only the grid, so a caller can check before sampling."""
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("need at least 4 deltas for a slope regression")
    grid = np.asarray(grid, dtype=float)
    steps = np.diff(grid)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("holder_slope requires a uniform grid")
    lags = []
    for d in deltas:
        k = int(round(d / dt))
        if not (1 <= k < grid.size):
            raise ValueError("delta %g not a usable multiple of the grid step" % d)
        lags.append(k)
    return deltas, lags


def holder_slope(ensemble, deltas: Sequence[float],
                 threshold: float = 0.1) -> CheckReport:
    """Per-path modulus maxima S(delta) = max_{|t-s|<=delta} |X(t)-X(s)|,
    regressed log-log; metric = |median slope - hHat|.

    The 0.1 default tolerance absorbs the |log delta|^{1/alpha+1/2+eps}
    factor in the true modulus, which biases the empirical slope slightly
    below hHat at desk-scale resolutions.
    """
    from scipy import ndimage   # its only user; kept out of `import rhmsp`

    deltas, lags = holder_lags(ensemble.grid, deltas)
    grid = np.asarray(ensemble.grid, dtype=float)

    log_d = np.log(np.asarray(deltas))
    slopes = []
    for row in np.asarray(ensemble.paths, dtype=float):
        log_s = []
        for k in lags:
            # sliding max/min with edge replication: edge windows see a subset
            # of the true values, so they never exceed a full interior window
            mx = ndimage.maximum_filter1d(row, size=k + 1, mode="nearest")
            mn = ndimage.minimum_filter1d(row, size=k + 1, mode="nearest")
            log_s.append(math.log(float(np.max(mx - mn))))
        slopes.append(float(np.polyfit(log_d, np.asarray(log_s), 1)[0]))
    median_slope = float(np.median(slopes))
    # the modulus on the sampled window is governed by min H over that window
    h_hat = ensemble.spec.hurst.range_on(grid[0], grid[-1])[0]
    params = {
        "spec": ensemble.spec.to_config(),
        "deltas": list(deltas),
        "paths": int(np.asarray(ensemble.paths).shape[0]),
        "median_slope": median_slope,
        "slopes": [float(s) for s in slopes],
        "h_hat": h_hat,
    }
    return CheckReport("holder_slope", params, abs(median_slope - h_hat), threshold)


# ---------------------------------------------------------------------------
# localizability: exact log-cf comparison of rescaled increments
# ---------------------------------------------------------------------------

# the (u, lambda) grid of `localizability_error`
_LOC_U_GRID = (0.25, 0.5, 1.0)
_LOC_LAMBDA_GRID = (-2.0, -1.0, 1.0, 2.0)


def localizability_error(spec: ProcessSpec, t: float, delta: float,
                         cfg: QuadratureConfig = QuadratureConfig(),
                         threshold: float = 0.05) -> CheckReport:
    """max over (lambda, u) of the difference between -log cf of the rescaled
    increment delta^{-H(t)} (X(t+delta u) - X(t)) and -log cf of the limiting
    self-similar local version, both evaluated exactly by quadrature.

    Both log-cfs are homogeneous of degree |lambda|^alpha, so only |lambda|
    matters; each side is one alpha-norm integral.
    """
    t = float(t)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if t + delta * max(_LOC_U_GRID) > spec.horizon:
        raise ValueError("t + delta*max(u) leaves the horizon")
    alpha = spec.alpha.alpha
    h_t = float(spec.hurst(t))
    loc_T = max(_LOC_U_GRID)
    local_spec = ProcessSpec(
        alpha=spec.alpha,
        hurst=HurstFunction(form="const", params=(h_t,), horizon=loc_T),
        kernel=spec.kernel, horizon=loc_T)

    errs = {}
    worst = 0.0
    lam_pows = sorted({abs(l) ** alpha for l in _LOC_LAMBDA_GRID})
    for u in _LOC_U_GRID:
        lhs = delta ** (-alpha * h_t) * _raw_norm_integral(
            spec, (t, t + delta * u), (-1.0, 1.0), cfg)
        rhs = _raw_norm_integral(local_spec, (u,), (1.0,), cfg)
        for lp in lam_pows:
            worst = max(worst, lp * abs(lhs - rhs))
        errs["u=%g" % u] = abs(lhs - rhs)
    params = {
        "spec": spec.to_config(),
        "t": t, "delta": delta,
        "u_grid": list(_LOC_U_GRID), "lambda_grid": list(_LOC_LAMBDA_GRID),
        "h_t": h_t, "rel_tol": cfg.rel_tol,
        "per_u_error": errs,
    }
    return CheckReport("localizability_error", params, worst, threshold)


# ---------------------------------------------------------------------------
# norm-equivalence sweeps (Hurst-difference bound, self-similar flatness,
# and the two-sided increment sandwich)
# ---------------------------------------------------------------------------

def _hurst_difference_norm(alpha: float, t: float, h1: float, h2: float,
                           cfg: QuadratureConfig) -> float:
    """||Z^{H1}(t) - Z^{H2}(t)||_alpha: same time, two envelope exponents."""
    terms = _Terms(lam=np.array([1.0, -1.0]),
                   p=np.array([h1, h2]) + 1.0 / alpha,
                   nu=np.array([t, t]), c1=np.ones(2, dtype=complex), alpha=alpha)
    return _terms_integral(terms, cfg) ** (1.0 / alpha)


# the grids of `lemma_sweeps`: the reference time, the number of Hurst
# values, the dyadic gap exponents of the flatness sweep, the base times and
# gap exponents of the sandwich, and the flatness slack in units of rel_tol
_T_REF = 1.0
_HURST_POINTS = 5
_FLAT_GAP_EXPONENTS = range(2, 9)
_SANDWICH_BASES = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)
_SANDWICH_GAP_EXPONENTS = (2, 3, 4, 5, 6)
_FLAT_SLACK = 10.0


def lemma_sweeps(spec: ProcessSpec,
                 cfg: QuadratureConfig = QuadratureConfig(rel_tol=1e-6),
                 ) -> Tuple[CheckReport, CheckReport, CheckReport]:
    """The three norm-module sweeps as CheckReports:

    1. Hurst-difference bound: sup over (H1, H2) of
       ||Z^{H1}(t)-Z^{H2}(t)||_alpha / |H1-H2| is finite (reported metric).
    2. Constant-H flatness: increment_norm(t, s)/|t-s|^H is exactly constant
       by self-similarity; metric = max/min over dyadic gaps.
    3. Variable-H sandwich: increment_norm(t, s) lies in
       [C1 |t-s|^{minH}, C2 |t-s|^{maxH}] with C1, C2 calibrated on the first
       half of the pair grid and held fixed; metric = violation count.
    """
    alpha = spec.alpha.alpha

    # --- sweep 1: Hurst-difference ratio over an (H1, H2) grid -------------
    if spec.hurst.h_check > spec.hurst.h_hat:
        lo, hi = spec.hurst.h_hat, spec.hurst.h_check
    else:
        lo, hi = 0.3, 0.7
    hs = np.linspace(lo, hi, _HURST_POINTS)
    sup_ratio = 0.0
    pair_count = 0
    for i in range(_HURST_POINTS):
        for j in range(i + 1, _HURST_POINTS):
            nrm = _hurst_difference_norm(alpha, _T_REF, hs[i], hs[j], cfg)
            sup_ratio = max(sup_ratio, nrm / abs(hs[j] - hs[i]))
            pair_count += 1
    # finiteness is the claim; the threshold is a generous desk-scale cap
    rep1 = CheckReport(
        "hurst_difference_bound",
        {"alpha": alpha, "t": _T_REF, "h_grid": [float(h) for h in hs],
         "pairs": pair_count, "sup_ratio": sup_ratio},
        sup_ratio, 100.0)

    # --- sweep 2: constant-H flatness ---------------------------------------
    h_flat = float(spec.hurst(_T_REF))
    flat_T = max(spec.horizon, _T_REF + 0.5)
    flat_spec = ProcessSpec(
        alpha=spec.alpha,
        hurst=HurstFunction(form="const", params=(h_flat,), horizon=flat_T),
        kernel=spec.kernel, horizon=flat_T)
    ratios = []
    for k in _FLAT_GAP_EXPONENTS:
        gap = 2.0 ** (-k)
        ratios.append(increment_norm(flat_spec, _T_REF + gap, _T_REF, cfg)
                      / gap ** h_flat)
    ratios = np.asarray(ratios)
    rep2 = CheckReport(
        "selfsimilar_flatness",
        {"alpha": alpha, "h": h_flat, "t": _T_REF,
         "gap_exponents": [int(k) for k in _FLAT_GAP_EXPONENTS],
         "ratios": [float(r) for r in ratios], "rel_tol": cfg.rel_tol},
        float(np.max(ratios) / np.min(ratios)), 1.0 + _FLAT_SLACK * cfg.rel_tol)

    # --- sweep 3: two-sided sandwich with calibrated constants -------------
    rows = []
    for s in _SANDWICH_BASES:
        for k in _SANDWICH_GAP_EXPONENTS:
            gap = 2.0 ** (-k)
            t1 = float(s) + gap
            if t1 > spec.horizon:
                continue
            h_lo, h_hi = spec.hurst.range_on(s, t1)
            inc = increment_norm(spec, t1, float(s), cfg)
            rows.append((float(s), gap, inc,
                         inc / gap ** h_lo, inc / gap ** h_hi))
    if len(rows) < 4:
        raise ValueError("sandwich grid left the horizon; too few pairs")
    # calibrate on the even-indexed pairs (spanning the full base range),
    # then require the sandwich on every pair with the constants held fixed
    c1 = 0.95 * min(r[3] for r in rows[0::2])
    c2 = 1.05 * max(r[4] for r in rows[0::2])
    violations = sum(1 for r in rows if r[3] < c1 or r[4] > c2)
    rep3 = CheckReport(
        "increment_sandwich",
        {"spec": spec.to_config(), "pairs": len(rows),
         "C1": c1, "C2": c2,
         "table": [[r[0], r[1], r[2]] for r in rows]},
        float(violations), 0.0)
    return rep1, rep2, rep3


# ---------------------------------------------------------------------------
# LND ratio study
# ---------------------------------------------------------------------------

def _increment_lnd_ratio(spec: ProcessSpec, times: Sequence[float],
                         cfg: QuadratureConfig,
                         opt_cfg: OptimizerConfig) -> Tuple[float, Tuple[float, ...]]:
    """Ratio of the distance from the last increment to the span of the
    earlier increments, over the last increment's norm.  For n = 2 the span
    is empty and the ratio is 1 by construction."""
    times = tuple(float(t) for t in times)
    n = len(times)
    alpha = spec.alpha.alpha
    inc = increment_norm(spec, times[-1], times[-2], cfg)
    # the combination (X(t_n) - X(t_{n-1})) - Sum_k c_k (X(t_{k+1}) - X(t_k))
    # is affine in c: v0 plus c_k times row k of V
    v0 = np.eye(n)[-1] - np.eye(n)[-2]
    V = np.eye(n - 2, n) - np.eye(n - 2, n, 1)
    best_f, best_x = _span_distance(spec, times, v0, V, np.zeros(n - 2), cfg, opt_cfg)
    dist = best_f ** (1.0 / alpha)
    return dist / inc, tuple(float(v) for v in best_x)


def hy_chain_bound(spec: ProcessSpec, t_prev: float, t_n: float,
                   cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Lower bound on the LND ratio for the Y kernel via Hausdorff-Young.

    The transform of the full combination agrees with the transform of the
    last term alone on (t_{n-1}, t_n) — every earlier hat vanishes there —
    so ||g||_alpha >= (2 pi)^{-1/beta} ||g-hat||_{L^beta(t_{n-1}, t_n)}, and
    the restricted beta-norm has the closed form used here.
    """
    if spec.kernel is not KernelVariant.Y:
        raise ValueError("the chain bound applies to the Y kernel")
    alpha = spec.alpha.alpha
    beta = spec.alpha.beta
    p = float(spec.hurst(t_n)) + 1.0 / alpha
    s = float(t_n) - float(t_prev)
    if s <= 0.0:
        raise ValueError("need t_prev < t_n")
    expo = beta * (p - 1.0) + 1.0
    hat_norm = (2.0 * math.pi / _gamma_fn(p)) * (s ** expo / expo) ** (1.0 / beta)
    inc = increment_norm(spec, t_n, t_prev, cfg)
    return hat_norm / ((2.0 * math.pi) ** (1.0 / beta) * inc)


def lnd_study(spec: ProcessSpec, center: float, spacings: Sequence[float],
              n: int,
              cfg: QuadratureConfig = QuadratureConfig(rel_tol=1e-6),
              opt_cfg: OptimizerConfig = OptimizerConfig(),
              floor_value: float = 0.5,
              kernels: Sequence[KernelVariant] = (KernelVariant.X,
                                                  KernelVariant.Y),
              ) -> CheckReport:
    """Local-nondeterminism ratios: distance from the last increment to the
    span of the earlier increments, relative to the last increment's norm,
    for equispaced times center, center+s, ..., center+(n-1)s.

    metric = min ratio across spacings and kernels; direction '>=' against a
    calibrated positive floor.  For n = 2 the span is empty and the ratio is
    identically 1 (the sanity row).  For the Y kernel the ratio dominates the
    Hausdorff-Young chain bound, reported alongside.
    """
    center = float(center)
    n = int(n)
    if n not in (2, 3, 4):
        raise ValueError("n must be one of 2, 3, 4")
    if center <= 0.0:
        raise ValueError("center must be positive (LND domain is [eps, T])")
    spacings = [float(s) for s in spacings]
    if not spacings:
        raise ValueError("need at least one spacing")
    if any(s <= 0.0 for s in spacings):
        raise ValueError("spacings must be positive")
    if center + (n - 1) * max(spacings) > spec.horizon:
        raise ValueError("time ladder leaves the horizon")

    table = []
    metric = math.inf
    for kern in kernels:
        kspec = ProcessSpec(alpha=spec.alpha, hurst=spec.hurst,
                            kernel=kern, horizon=spec.horizon)
        for s in spacings:
            times = tuple(center + k * s for k in range(n))
            ratio, argmin = _increment_lnd_ratio(kspec, times, cfg, opt_cfg)
            row = {"kernel": kern.value, "spacing": s, "ratio": ratio,
                   "argmin": list(argmin)}
            if kern is KernelVariant.Y:
                row["hy_chain_bound"] = hy_chain_bound(
                    kspec, times[-2], times[-1], cfg)
            table.append(row)
            metric = min(metric, ratio)
    params = {
        "spec": spec.to_config(),
        "center": center, "n": n, "spacings": spacings,
        "kernels": [k.value for k in kernels],
        "rel_tol": cfg.rel_tol,
        "table": table,
    }
    return CheckReport("lnd_study", params, metric, floor_value, direction=">=")


# ---------------------------------------------------------------------------
# appendix Fourier-transform identity
# ---------------------------------------------------------------------------

def _ft_closed_form(h: float, t: float, u) -> float:
    """(2 pi / Gamma(h)) ((t-u)_+^{h-1} - (-u)_+^{h-1}); at h = 1 the powers
    degenerate to indicators."""
    u = np.asarray(u, dtype=float)
    k = h - 1.0
    if k == 0.0:
        val = (u < t).astype(float) - (u < 0.0).astype(float)
    else:
        val = (np.maximum(t - u, 0.0) ** k - np.maximum(-u, 0.0) ** k)
    out = (2.0 * math.pi / _gamma_fn(h)) * val
    return out if out.ndim else float(out)


def _ft_integrand(h: float, t: float):
    """f_{h,t}(x) = (e^{-itx} - 1) |x|^{-h} e^{i pi h sgn(x)/2}, the kernel
    whose transform has the closed form above.  The phase factor takes only
    three values, for sgn(x) = -1, 0 and 1; they are computed once, by the
    same expression, and selected per node."""
    neg, zero, pos = np.exp(1j * math.pi * h * np.array([-1.0, 0.0, 1.0]) / 2.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        return ((np.exp(-1j * t * x) - 1.0) * np.abs(x) ** (-h)
                * np.where(x > 0.0, pos, np.where(x < 0.0, neg, zero)))
    return f


def ft_check(h: float, t: float,
             u_grid: Sequence[float] = DEFAULT_U_GRID,
             cfg: QuadratureConfig = QuadratureConfig(rel_tol=1e-7,
                                                      abs_tol=1e-7),
             threshold: float = 1e-4,
             alpha: Optional[float] = None) -> CheckReport:
    """Numerical Fourier transform of f_{h,t} against its closed form.

    For h in (1, 2) the transform converges absolutely and is compared
    pointwise on u_grid (relative error where the closed form is nonzero,
    absolute against cfg.abs_tol where it vanishes, i.e. u > t).  For
    h in (1/alpha, 1] absolute convergence fails; the verifiable surrogate is
    the duality pairing <f, g-hat> = <f-hat, g> against Gaussian tests g
    centred at the u_grid points.
    """
    h = float(h)
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not 0.0 < h < 2.0:
        raise ValueError("h must lie in (0, 2)")
    if alpha is not None and h <= 1.0 / StabilityIndex(alpha).alpha:
        raise ValueError("h must exceed 1/alpha for the duality surrogate")
    u_grid = [float(u) for u in u_grid]
    # NaN drops out of the max and an infinite u out of the panel count
    bad = [u for u in u_grid if not math.isfinite(u)]
    if bad:
        raise ValueError("u must be finite, got %r" % bad[0])
    # u = t is the machine-degenerate point of the direct closed form
    if not any(h <= 1.0 or u != t for u in u_grid):
        raise ValueError("no u to check: the u grid is empty or, for h > 1, "
                         "every u equals t")
    f = _ft_integrand(h, t)

    if h > 1.0:
        worst_rel = 0.0
        worst_zero = 0.0
        per_u = {}
        for u in u_grid:
            if u == t:
                continue  # machine-degenerate point of the closed form
            val = oscillatory_ft(f, u, envelope_decay=h, cfg=cfg,
                                 inner_frequencies=(-t,),
                                 singular_exponent=h - 1.0,
                                 hermitian=True)
            exact = _ft_closed_form(h, t, u)
            err = abs(val.real - exact)
            if exact == 0.0:
                worst_zero = max(worst_zero, err)
                per_u["u=%g" % u] = err
            else:
                worst_rel = max(worst_rel, err / abs(exact))
                per_u["u=%g" % u] = err / abs(exact)
        params = {"h": h, "t": t, "u_grid": u_grid, "mode": "direct",
                  "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
                  "per_u": per_u, "max_abs_at_zero": worst_zero}
        # the vanishing points must also sit below the absolute tolerance
        metric = max(worst_rel, worst_zero / cfg.abs_tol * threshold)
        return CheckReport("ft_check", params, metric, threshold)

    # duality branch: pair against Gaussian tests centred on the grid
    width = 0.5 * t
    worst = 0.0
    per_u = {}
    for mu in u_grid:
        def ghat(x):
            x = np.asarray(x, dtype=float)
            # transform with the engine's e^{+iux} phase convention
            return (width * math.sqrt(2.0 * math.pi)
                    * np.exp(-0.5 * (width * x) ** 2)
                    * np.exp(1j * mu * x))

        def lhs_integrand(x):
            # Hermitian pairing: integral over R = 2 Re integral over (0, inf)
            return 2.0 * (f(x) * ghat(x)).real

        lhs, _ = _sciint.quad(lhs_integrand, 0.0, 12.0 / width,
                              limit=400, epsabs=1e-12, epsrel=1e-10)

        def g(u):
            return np.exp(-0.5 * ((np.asarray(u, dtype=float) - mu) / width) ** 2)

        # rhs = integral of the closed form against g; the (.)^{h-1} endpoint
        # singularities are flattened by the substitution v = s^{1/h}
        k = h - 1.0
        pref = 2.0 * math.pi / _gamma_fn(h)
        v_max = 14.0 * width + max(0.0, -mu)

        def smooth_piece(v):        # (t+v)^k g(-v) on v > 0, no singularity
            return (t + v) ** k * g(-v)

        def flat_pos(s):            # w^k g(t-w) dw with w = s^{1/h}
            return g(t - s ** (1.0 / h)) / h

        def flat_neg(s):            # v^k g(-v) dv with v = s^{1/h}
            return g(-(s ** (1.0 / h))) / h

        piece_a, _ = _sciint.quad(flat_pos, 0.0, t ** h,
                                  limit=400, epsabs=1e-12, epsrel=1e-10)
        piece_b1, _ = _sciint.quad(smooth_piece, 0.0, v_max,
                                   limit=400, epsabs=1e-12, epsrel=1e-10)
        piece_b2, _ = _sciint.quad(flat_neg, 0.0, v_max ** h,
                                   limit=400, epsabs=1e-12, epsrel=1e-10)
        rhs = pref * (piece_a + piece_b1 - piece_b2)
        # absolute floor: tests centred far above t pair noise against noise
        scale = max(abs(rhs), abs(lhs), 1e-6 * pref * width)
        rel = abs(lhs - rhs) / scale
        worst = max(worst, rel)
        per_u["mu=%g" % mu] = rel
    params = {"h": h, "t": t, "u_grid": u_grid, "mode": "duality",
              "test_width": width, "per_u": per_u}
    return CheckReport("ft_check", params, worst, threshold)
