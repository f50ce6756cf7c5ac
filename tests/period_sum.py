"""Period-sum references for alpha-norms, apart from `rhmsp`.

A copy of the oracle in `perfbench/oracles.py`, so the unit tests check the
quadrature engine against values it did not compute.  QAWS samples the
period ends, where this copy gives the smooth factor its limit
(2 pi)^{-alpha}; the (1/pi)^alpha of the benchmark's copy moves N by about
4e-13.  Every kernel variant
has modulus |e^{itx}-1| |x|^{-p} with p = H(t) + 1/alpha, so y = t x turns
the norm into t^{alpha H} N(alpha, H) with

    N = 2 int_0^inf (2 |sin(y/2)|)^alpha y^{-1-alpha H} dy.

N is summed period by period (QUADPACK QAWS, whose algebraic weight takes
the endpoint zeros of |sin| and the y^{alpha-1-alpha H} singularity
exactly), and the periods beyond K are summed in closed form through the
Hurwitz zeta function.  Under constant H the increments are stationary, so
||f(t) - f(s)||_alpha = ||f(t - s)||_alpha and the same routine serves
increment norms.  `two_time_raw` sums the norm of a combination of two
commensurate times the same way, period by period of its bracket.
"""

import cmath
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


def _period_sum(smooth, alpha, s):
    """int_0^inf B(y) y^{-s} dy for a 2 pi-periodic B(y) = smooth(y mod 2 pi)
    * u^alpha (2 pi - u)^alpha, u = y mod 2 pi, with smooth finite on
    (0, 2 pi) (B has the zeros of order alpha at multiples of 2 pi and no
    others)."""
    two_pi = 2.0 * math.pi
    # first period: the y^{-s} singularity joins the weight at 0
    total = _qaws(smooth, 0.0, two_pi, alpha - s, alpha)
    for k in range(1, _PERIODS):
        shift = two_pi * k
        total += _qaws(lambda u: smooth(u) * (shift + u) ** (-s),
                       0.0, two_pi, alpha, alpha)
    # periods k >= _PERIODS: sum_j binom(-s, j) M_j zeta(s + j, K + 1/2),
    # M_j = int_0^{2 pi} B(u) (u/(2 pi) - 1/2)^j du; odd j vanish when B is
    # symmetric about pi, as every bracket here is
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
    return total + two_pi ** (-s) * tail


@lru_cache(maxsize=None)
def norm_constant(alpha, hurst):
    """N(alpha, H) = int_R |e^{iy} - 1|^alpha |y|^{-1-alpha H} dy."""
    alpha = float(alpha)
    hurst = float(hurst)
    two_pi = 2.0 * math.pi

    def smooth(u):
        # (2 sin(u/2))^alpha = smooth(u) * u^alpha (2 pi - u)^alpha on [0, 2 pi]
        if u <= 0.0 or u >= two_pi:   # the limit at the zeros
            return (1.0 / two_pi) ** alpha
        return (2.0 * math.sin(0.5 * u) / (u * (two_pi - u))) ** alpha

    return 2.0 * _period_sum(smooth, alpha, 1.0 + alpha * hurst)


def single_time_raw(alpha, hurst, t):
    """||f(t)||_alpha^alpha for a single time t > 0 and H(t) = hurst."""
    return float(t) ** (alpha * hurst) * norm_constant(alpha, hurst)


def two_time_raw(alpha, hurst, tau, m, n, c1, c2):
    """||c1 f(m tau) + c2 f(n tau)||_alpha^alpha for constant H = hurst,
    kernel X, and integers 0 < m < n.

    With y = tau x the norm is tau^{alpha H} int_R B(y) |y|^{-1-alpha H} dy,
    and the bracket B(y) = |c1 (e^{imy} - 1) + c2 (e^{iny} - 1)|^alpha is
    2 pi-periodic and symmetric about pi, so `_period_sum` applies when B
    vanishes only at multiples of 2 pi.  At n = m + 1 it does for every
    c1 m + c2 n != 0: a zero inside a period needs the phase of
    sin(mu/2) e^{imu/2} / (sin(nu/2) e^{inu/2}) to be real, which takes
    u/2 a multiple of pi."""
    alpha = float(alpha)
    two_pi = 2.0 * math.pi

    def smooth(u):
        if u <= 0.0 or u >= two_pi:   # the limit at the zeros
            return (abs(c1 * m + c2 * n) / two_pi) ** alpha
        bracket = abs(c1 * (cmath.exp(1j * m * u) - 1.0)
                      + c2 * (cmath.exp(1j * n * u) - 1.0))
        return (bracket / (u * (two_pi - u))) ** alpha

    return (2.0 * float(tau) ** (alpha * hurst)
            * _period_sum(smooth, alpha, 1.0 + alpha * hurst))
