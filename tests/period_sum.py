"""Period-sum reference for single-time alpha-norms, apart from `rhmsp`.

A copy of the oracle in `perfbench/oracles.py`, so the unit tests check the
quadrature engine against values it did not compute.  Every kernel variant
has modulus |e^{itx}-1| |x|^{-p} with p = H(t) + 1/alpha, so y = t x turns
the norm into t^{alpha H} N(alpha, H) with

    N = 2 int_0^inf (2 |sin(y/2)|)^alpha y^{-1-alpha H} dy.

N is summed period by period (QUADPACK QAWS, whose algebraic weight takes
the endpoint zeros of |sin| and the y^{alpha-1-alpha H} singularity
exactly), and the periods beyond K are summed in closed form through the
Hurwitz zeta function.  Under constant H the increments are stationary, so
||f(t) - f(s)||_alpha = ||f(t - s)||_alpha and the same routine serves
increment norms.
"""

import math
from functools import lru_cache

from scipy import integrate
from scipy.special import zeta

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
