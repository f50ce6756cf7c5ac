"""Occupation-density estimation and the m=2 local-time moment integral.

The histogram estimator is deliberately unsmoothed: each time step deposits
its full length dt into the bin of its left-endpoint value, so the total
mass identity Sum values * binWidth = t is machine-exact and checkable.  The
second-moment evaluator renders the m=2 case of the moment formula

    E L([t,t+h], x)^2 = (2 pi)^{-2} iint_{[t,t+h]^2} iint_{R^2}
        e^{-i x (u1+u2)} E e^{i(u1 X(s1)+u2 X(s2))} du ds

through exact stable calculus: the u-plane is rotated to increment
coordinates, the radial integral is carried out analytically against the
alpha-stable profile, and what remains is a line of scale_norm sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _sciint
from scipy.special import gamma as _gamma_fn
from scipy.special import roots_jacobi as _roots_jacobi

from .model import ProcessSpec
from .norms import _raw_norm_integral
from .quad import QuadratureConfig

__all__ = [
    "SamplePath",
    "LocalTimeEstimate",
    "TestFunction",
    "LocalTimeBudgetError",
    "occupation_histogram",
    "occupation_formula_check",
    "local_time_second_moment",
    "ensemble_path",
]


@dataclass(frozen=True)
class SamplePath:
    """A single realized path on a strictly increasing time grid."""

    times: Tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        vals = np.asarray(self.values, dtype=float)
        if len(times) != vals.size or len(times) < 2:
            raise ValueError("path needs matching times/values, length >= 2")
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise ValueError("path times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class LocalTimeEstimate:
    window: Tuple[float, float]
    x_grid: np.ndarray          # bin edges, uniform
    values: np.ndarray          # occupation density per bin
    bin_width: float
    path_dt: float

    @property
    def centers(self):
        return 0.5 * (self.x_grid[:-1] + self.x_grid[1:])


@dataclass(frozen=True)
class TestFunction:
    """Test integrand for the occupation density formula."""

    kind: str                   # "gaussian" | "indicator"
    p1: float
    p2: float

    @staticmethod
    def gaussian(center: float, width: float) -> "TestFunction":
        if not width > 0:
            raise ValueError("gaussian width must be positive")
        return TestFunction("gaussian", float(center), float(width))

    @staticmethod
    def indicator(a: float, b: float) -> "TestFunction":
        if not a < b:
            raise ValueError("indicator needs a < b")
        return TestFunction("indicator", float(a), float(b))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * ((x - self.p1) / self.p2) ** 2)
        return ((x >= self.p1) & (x < self.p2)).astype(float)


class LocalTimeBudgetError(RuntimeError):
    """m=2 quadrature exceeded its scale_norm call budget."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = float(partial)


def occupation_histogram(path: SamplePath, t: float, bin_count: int,
                         start: float = 0.0,
                         edges: Optional[np.ndarray] = None) -> LocalTimeEstimate:
    """Histogram occupation-density estimate of the path over [start, t].

    Every step [t_i, t_{i+1}) with start <= t_i < t adds its length to the
    bin of X(t_i); values are mass / binWidth.  Without `edges`, the
    bin_count bins have width span / (bin_count - 1) and the first is centred
    on the path's minimum, so both extremes sit half a bin inside and a
    round-off change of the path cannot move them across an edge.  When
    `edges` is given the supplied uniform edges are used (shared-edge
    additivity studies).  A value x goes to bin floor((x - edges[0]) / width).
    """
    t = float(t)
    start = float(start)
    if bin_count < 10 and edges is None:
        raise ValueError("binCount must be >= 10")
    times = np.asarray(path.times)
    if t not in path.times:
        raise ValueError("t=%g is not on the path grid" % t)
    if start not in path.times:
        raise ValueError("start=%g is not on the path grid" % start)
    if not start < t:
        raise ValueError("need start < t")
    sel = (times >= start) & (times < t)
    idx = np.nonzero(sel)[0]
    dts = np.diff(times)[idx]
    xs = path.values[idx]
    dt_typ = float(np.median(dts))

    if edges is not None:
        edges = np.asarray(edges, dtype=float)
        width = float(edges[1] - edges[0])
    else:
        lo, hi = float(np.min(xs)), float(np.max(xs))
        span = hi - lo
        if span == 0.0:
            width = 1.0
            edges = np.array([lo - 0.5, lo + 0.5])
        else:
            # the extremes sit half a bin inside, so no sample lies on an edge
            width = span / (bin_count - 1)
            edges = (lo - 0.5 * width) + width * np.arange(bin_count + 1)
    nbins = edges.size - 1
    pos = np.clip(np.floor((xs - edges[0]) / width).astype(int), 0, nbins - 1)
    mass = np.bincount(pos, weights=dts, minlength=nbins)
    return LocalTimeEstimate(window=(start, t), x_grid=edges,
                             values=mass / width, bin_width=width,
                             path_dt=dt_typ)


def occupation_formula_check(path: SamplePath, estimate: LocalTimeEstimate,
                             test_fn: TestFunction) -> float:
    """Relative discrepancy between int f(X(s)) ds and int f(x) L(x) dx
    (both sides by left-endpoint quadrature on their own grids).

    If the time side falls below 1e-12 in magnitude the absolute discrepancy
    is returned instead (degenerate-denominator convention).
    """
    start, t = estimate.window
    times = np.asarray(path.times)
    sel = (times >= start) & (times < t)
    idx = np.nonzero(sel)[0]
    dts = np.diff(times)[idx]
    lhs = float(np.sum(test_fn(path.values[idx]) * dts))
    rhs = float(np.sum(test_fn(estimate.centers) * estimate.values)
                * estimate.bin_width)
    if abs(lhs) < 1e-12:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / abs(lhs)


# ---------------------------------------------------------------------------
# m = 2 moment integral
# ---------------------------------------------------------------------------

def _radial_transform(alpha: float, y: float) -> float:
    """G(y) = 2 int_0^inf r e^{-r^alpha} cos(y r) dr."""
    if y == 0.0:
        return 2.0 * _gamma_fn(2.0 / alpha) / alpha
    r_max = 46.0 ** (1.0 / alpha)  # e^{-r^alpha} < 1e-20 beyond
    val, _ = _sciint.quad(lambda r: r * math.exp(-r ** alpha), 0.0, r_max,
                          weight="cos", wvar=abs(y), limit=400,
                          epsabs=1e-11, epsrel=1e-9)
    return 2.0 * val


def _phi_rule(eps: float):
    """Nodes and weights of the polar-angle rule on (0, pi) for a dip of
    relative width eps at pi/2: 5-point Gauss-Legendre on each side of
    [pi/2 - d, pi/2 + d], d = min(1.2, 6 eps), and 10 points inside it,
    concentrated within O(eps) of pi/2 by the substitution
    phi = pi/2 + eps tan(tau)."""
    d = min(1.2, 6.0 * eps)
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    phis, weights = [], []
    for lo, hi in ((0.0, math.pi / 2 - d), (math.pi / 2 + d, math.pi)):
        mid, hw = 0.5 * (hi + lo), 0.5 * (hi - lo)
        phis += [mid + hw * xq for xq in gl_x]
        weights += [hw * wq for wq in gl_w]
    a_t = math.atan(d / eps)
    for xq, wq in zip(*np.polynomial.legendre.leggauss(10)):
        tau = a_t * xq
        phis.append(math.pi / 2 + eps * math.tan(tau))
        weights.append(wq * a_t * eps / math.cos(tau) ** 2)
    return phis, weights


def _phi_coeffs(phis):
    """Coefficients (c1, c2) on (f(s1), f(s2)) of the section at each phi:
    u1 X(s1) + u2 X(s2) with (u1, u2) = (cos phi - sin phi, sin phi)."""
    return [(math.cos(phi) - math.sin(phi), math.sin(phi)) for phi in phis]


def local_time_second_moment(spec: ProcessSpec, t: float, h: float, x: float,
                             cfg: QuadratureConfig = QuadratureConfig(
                                 rel_tol=1e-4, abs_tol=1e-10),
                             max_norm_calls: int = 100_000) -> float:
    """E L([t, t+h], x)^2 by tensorized quadrature over exact stable calculus.

    Outer integral: gap/position coordinates with a Gauss-Jacobi rule in the
    gap absorbing the g^{-H} near-diagonal singularity.  Inner u-plane:
    increment coordinates (v, w) = (u1+u2, u2), polar angle phi with nodes
    clustered at the phi = pi/2 dip where the section norm collapses to the
    increment norm, and the radial direction integrated analytically via
    the profile G(y) = 2 int r e^{-r^alpha} cos(yr) dr.

    At each gap node the base section ||f(s1)||^alpha and the increment
    section ||f(s2) - f(s1)||^alpha, which set the dip width, are two
    scalar norms; the 20 phi sections ||c1 f(s1) + c2 f(s2)||^alpha share
    the time pair and are one stacked quadrature pass, each row certified
    on its own.  ``max_norm_calls`` counts sections, stacked or not.

    Cost: a phi section keeps a constant part (c1 + c2 != 0), so its
    frequencies s1, s2 cluster around a fast phase with the beat g.  Where
    (s1 + s2) / 2 >= 12 g the stack takes the two-scale tail of `quad`, and
    its cost no longer grows as 1/g.  At s1 = 0.5, const H 0.5 and the
    default tolerance the stack takes 26k nodes at g = 0.02 (where the leak
    of the fast window is measured) and 6.5k at g = 0.005 and 0.00125,
    against the one-scale tail's 0.67M, 2.5M and 9.6M.
    """
    t = float(t)
    h = float(h)
    x = float(x)
    alpha = spec.alpha.alpha
    if not h > 0:
        raise ValueError("h must be positive")
    if not (0.0 <= t and t + h <= spec.horizon):
        raise ValueError("[t, t+h] leaves the horizon")

    calls = [0]
    partial = [0.0]

    def sections(s1, s2, coeffs):
        """||c1 f(s1) + c2 f(s2)||^alpha for one pair (c1, c2), or for each
        row of a stack of pairs."""
        calls[0] += np.size(coeffs) // 2
        if calls[0] > max_norm_calls:
            raise LocalTimeBudgetError(
                "scale_norm call budget %d exceeded" % max_norm_calls,
                partial[0])
        return _raw_norm_integral(spec, (s1, s2), coeffs, cfg)

    def inner(s1, s2):
        """int_0^pi c(phi)^{-2/alpha} G(x cos(phi) c(phi)^{-1/alpha}) dphi."""
        base = sections(s1, s2, (1.0, 0.0))       # ||f(s1)||^alpha
        inc = sections(s1, s2, (-1.0, 1.0))       # ||f(s2)-f(s1)||^alpha
        eps = min(0.8, (inc / base) ** (1.0 / alpha))
        phis, weights = _phi_rule(eps)
        cs = sections(s1, s2, _phi_coeffs(phis))
        total = 0.0
        for phi, wq, c in zip(phis, weights, cs):
            y = x * math.cos(phi) * c ** (-1.0 / alpha)
            total += wq * c ** (-2.0 / alpha) * _radial_transform(alpha, y)
        return total

    # gap integral: integrand ~ g^{-hCheck} near g=0; Gauss-Jacobi weight.
    # Node counts are deliberately lean: every inner node is a stack of
    # scale_norm quadratures, and the documented accuracy budget for this
    # operation is the Monte-Carlo comparison band, not machine precision.
    h_check = spec.hurst.h_check
    gj_x, gj_w = _roots_jacobi(2, 0.0, -h_check)
    total = 0.0
    for xg, wg in zip(gj_x, gj_w):
        g = h * (1.0 + xg) / 2.0
        # position average int_t^{t+h-g} inner(s1, s1+g) ds1: the integrand
        # varies by O(h/t) and almost linearly across the strip, so the
        # midpoint rule is already far inside the accuracy budget
        lo, hi = t, t + h - g
        pos = (hi - lo) * inner(0.5 * (lo + hi), 0.5 * (lo + hi) + g)
        total += wg * g ** h_check * pos
        partial[0] = total
    total *= (h / 2.0) ** (1.0 - h_check)
    return 2.0 * total / (2.0 * math.pi) ** 2


def ensemble_path(ensemble, index: int) -> SamplePath:
    """View one ensemble row as a SamplePath."""
    return SamplePath(times=ensemble.grid, values=ensemble.paths[index])
