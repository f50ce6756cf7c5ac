"""Reference values computed apart from `rhmsp`.

Nothing here imports the package under test: the values come from closed
forms and from scipy's QUADPACK routines, so an error in the program's own
quadrature engine cannot hide in its reference.

* `single_time_raw` gives ||f(t)||_alpha^alpha for a single time by the
  period-sum method: every kernel variant has modulus |e^{itx}-1| |x|^{-p}
  with p = H(t) + 1/alpha, so y = t x turns the norm into
  t^{alpha H} N(alpha, H) with

      N = 2 int_0^inf (2 |sin(y/2)|)^alpha y^{-1-alpha H} dy.

  N is summed period by period (QUADPACK QAWS, whose algebraic weight takes
  the endpoint zeros of |sin| and the y^{alpha-1-alpha H} singularity
  exactly), and the periods beyond K are summed in closed form: expanding
  (2 pi k + u)^{-s} about k + 1/2 gives c_k = sum_j b_j (k + 1/2)^{-s-j}
  with b_j from the moments of (2 sin(u/2))^alpha over one period, and
  sum_{k >= K} (k + 1/2)^{-s-j} is the Hurwitz zeta function.
* Under constant H the increments are stationary, so
  ||f(t) - f(s)||_alpha = ||f(t - s)||_alpha and the same routine serves
  increment norms.
* `ft_closed_form` is the transform of f_{h,t}(x) = (e^{-itx} - 1) |x|^{-h}
  e^{i pi h sgn(x)/2} under the convention int e^{iux} f(x) dx.
* `sas_density` is the density of a symmetric alpha-stable law with
  characteristic function exp(-|sigma u|^alpha); at 0 it is
  Gamma(1 + 1/alpha) / (pi sigma).  Integrated over a window it gives the
  mean local time E L, and Jensen gives E L^2 >= (E L)^2.
* `lepage_value` re-sums the truncated LePage series of one path from its
  own Philox stream, with the constants in closed form.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gamma, zeta

_PERIODS = 12         # periods summed by quadrature before the zeta tail
_TAIL_ORDERS = 24     # even expansion orders j kept in the tail


def _qaws(fn, a, b, wa, wb):
    val, _err = integrate.quad(fn, a, b, weight="alg", wvar=(wa, wb),
                               epsabs=1e-15, epsrel=1e-12, limit=1000)
    return val


@lru_cache(maxsize=None)
def norm_constant(alpha, hurst):
    """N(alpha, H) = int_R |e^{iy} - 1|^alpha |y|^{-1-alpha H} dy."""
    alpha = float(alpha)
    hurst = float(hurst)
    s = 1.0 + alpha * hurst
    two_pi = 2.0 * math.pi

    def smooth(u):
        # (2 sin(u/2))^alpha = smooth(u) * u^alpha (2 pi - u)^alpha on [0, 2 pi]
        if u <= 0.0 or u >= two_pi:
            return (1.0 / math.pi) ** alpha
        return (2.0 * math.sin(0.5 * u) / (u * (two_pi - u))) ** alpha

    # first period: the y^{-s} singularity joins the weight at 0
    total = _qaws(smooth, 0.0, two_pi, alpha - s, alpha)
    for k in range(1, _PERIODS):
        shift = two_pi * k
        total += _qaws(lambda u: smooth(u) * (shift + u) ** (-s),
                       0.0, two_pi, alpha, alpha)
    # periods k >= _PERIODS: sum_j binom(-s, j) M_j zeta(s + j, K + 1/2),
    # M_j = int_0^{2 pi} (2 sin(u/2))^alpha (u/(2 pi) - 1/2)^j du (odd j vanish)
    tail = 0.0
    coef = 1.0  # binom(-s, j), updated incrementally
    for j in range(_TAIL_ORDERS + 1):
        if j > 0:
            coef *= (-s - j + 1.0) / j
        if j % 2:
            continue
        moment = _qaws(lambda u: smooth(u) * (u / two_pi - 0.5) ** j,
                       0.0, two_pi, alpha, alpha)
        tail += coef * moment * float(zeta(s + j, _PERIODS + 0.5))
    total += two_pi ** (-s) * tail
    return 2.0 * total


def single_time_raw(alpha, hurst, t):
    """||f(t)||_alpha^alpha for a single time t > 0 and H(t) = hurst."""
    return float(t) ** (alpha * hurst) * norm_constant(alpha, hurst)


def ft_closed_form(h, t, u):
    """(2 pi / Gamma(h)) ((t - u)_+^{h-1} - (-u)_+^{h-1}) for h != 1."""
    k = h - 1.0

    def pos(v):
        return v ** k if v > 0.0 else 0.0

    return 2.0 * math.pi / gamma(h) * (pos(t - u) - pos(-u))


def sas_density(alpha, sigma, x):
    """Density at x of the SaS law with ch.f. exp(-|sigma u|^alpha):
    (1 / (pi sigma)) int_0^inf cos(v x / sigma) exp(-v^alpha) dv."""
    if x == 0.0:
        return gamma(1.0 + 1.0 / alpha) / (math.pi * sigma)
    v_max = 46.0 ** (1.0 / alpha)  # exp(-v^alpha) < 1e-20 beyond
    val, _err = integrate.quad(lambda v: math.exp(-v ** alpha), 0.0, v_max,
                               weight="cos", wvar=abs(x) / sigma,
                               epsabs=1e-14, epsrel=1e-12, limit=400)
    return val / (math.pi * sigma)


def mean_local_time(alpha, hurst, t, h, x):
    """E L([t, t+h], x) = int_t^{t+h} p_{X(s)}(x) ds for constant H, where
    X(s) is SaS with sigma(s) = (s^{alpha H} N(alpha, H))^{1/alpha}."""
    gx, gw = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for xq, wq in zip(gx, gw):
        s = t + 0.5 * h * (xq + 1.0)
        sigma = single_time_raw(alpha, hurst, s) ** (1.0 / alpha)
        total += wq * sas_density(alpha, sigma, x)
    return 0.5 * h * total


def hurst_value(form, params, t):
    """H(t) for the mini-language forms const, affine, sine and logistic."""
    p = params
    if form == "const":
        return p[0]
    if form == "affine":
        return p[0] + p[1] * t
    if form == "sine":
        return p[0] + p[1] * math.sin(p[2] * t + (p[3] if len(p) > 3 else 0.0))
    if form == "logistic":
        return p[0] + (p[1] - p[0]) / (1.0 + math.exp(-p[3] * (t - p[2])))
    raise ValueError("unknown Hurst form %r" % form)


def lepage_value(alpha, hurst_at_t, t, seed, path, terms):
    """(value, scale) of path `path` at time t > 0 without tail compensation,
    kernel X: C_alpha Re sum_k Gamma_k^{-1/alpha} phi(xi_k)^{-1/alpha}
    (e^{i t xi_k} - 1) |xi_k|^{-H(t) - 1/alpha} g_k,
    drawn from the Philox stream keyed by (seed, path) in the order Gamma
    increments, xi, Re g, Im g.  `scale` is the sum of the moduli of the
    terms, against which summation round-off is measured."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, path], dtype=np.uint64)))
    gammas = np.cumsum(rng.exponential(size=terms))
    xi = rng.standard_cauchy(size=terms)
    g = rng.standard_normal(size=terms) + 1j * rng.standard_normal(size=terms)
    c_alpha = (gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)) ** (-1.0 / alpha)
    abs_moment = 2.0 ** (alpha / 2.0) * gamma((alpha + 1.0) / 2.0) / math.sqrt(math.pi)
    weights = (gammas ** (-1.0 / alpha) * (math.pi * (1.0 + xi * xi)) ** (1.0 / alpha)
               * abs_moment ** (-1.0 / alpha) * g)
    kernel = (np.exp(1j * t * xi) - 1.0) * np.abs(xi) ** (-hurst_at_t - 1.0 / alpha)
    terms_t = c_alpha * (kernel * weights).real
    return float(np.sum(terms_t)), float(np.sum(np.abs(terms_t)))
