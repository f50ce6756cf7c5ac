"""Domain types for the harmonizable multifractional stable laboratory.

A process law is (alpha, H(.), kernel variant, horizon).  The Hurst function
comes from a small text mini-language whose forms are all C^1, so the bounds
hHat/hCheck and the Hoelder constant sup|H'| are computed analytically at
construction time instead of by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

import numpy as np
from scipy.special import gamma as _gamma_fn

__all__ = [
    "StabilityIndex",
    "HurstFunction",
    "KernelVariant",
    "ProcessSpec",
    "HurstSyntaxError",
    "HurstRangeError",
    "parse_hurst",
    "eval_kernel",
    "phase_step",
    "kernel_rotation",
    "kernel_hat_Y",
]


class HurstSyntaxError(ValueError):
    """Malformed Hurst spec text; carries the character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class HurstRangeError(ValueError):
    """Hurst function leaves (0, 1) somewhere on the horizon."""


@dataclass(frozen=True)
class StabilityIndex:
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a finite real")
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie strictly inside (1, 2), got %r" % (self.alpha,))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def beta(self) -> float:
        """Conjugate exponent, 1/alpha + 1/beta = 1."""
        return self.alpha / (self.alpha - 1.0)


@dataclass(frozen=True)
class HurstFunction:
    """Evaluable t -> H(t) with certified bounds over [0, horizon]."""

    form: str                  # "const" | "affine" | "sine" | "logistic"
    params: Tuple[float, ...]
    horizon: float
    h_hat: float = field(init=False)
    h_check: float = field(init=False)
    holder_const: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a positive real")
        if any(not math.isfinite(p) for p in self.params):
            raise ValueError("non-finite Hurst parameter in %r" % (self.params,))
        lo, hi, dmax = self._extrema()
        if not (0.0 < lo and hi < 1.0):
            raise HurstRangeError(
                "Hurst range [%g, %g] leaves (0, 1) on [0, %g]"
                % (lo, hi, self.horizon))
        object.__setattr__(self, "h_hat", lo)
        object.__setattr__(self, "h_check", hi)
        object.__setattr__(self, "holder_const", dmax)

    def _extrema(self):
        """Analytic (min, max, sup|H'|) over [0, horizon] per form."""
        lo, hi = self.range_on(0.0, self.horizon)
        p = self.params
        if self.form == "const":
            dmax = 0.0
        elif self.form == "affine":
            dmax = abs(p[1])
        elif self.form == "sine":
            dmax = abs(p[1] * p[2])
        elif self.form == "logistic":
            dmax = abs((p[1] - p[0]) * p[3]) / 4.0
        else:
            raise ValueError("unknown Hurst form %r" % (self.form,))
        return lo, hi, dmax

    def range_on(self, a, b):
        """Analytic (min, max) of H over the subinterval [a, b]."""
        a, b = float(a), float(b)
        if not 0.0 <= a <= b:
            raise ValueError("need 0 <= a <= b")
        p = self.params
        if self.form == "const":
            return p[0], p[0]
        if self.form == "affine":
            ends = (p[0] + p[1] * a, p[0] + p[1] * b)
            return min(ends), max(ends)
        if self.form == "sine":
            base, amp, freq = p[0], p[1], p[2]
            phase = p[3] if len(p) > 3 else 0.0
            cand = [base + amp * math.sin(freq * a + phase),
                    base + amp * math.sin(freq * b + phase)]
            if freq != 0.0:
                # interior critical points: freq*t + phase = pi/2 + k*pi
                k0 = math.ceil((freq * a + phase - math.pi / 2) / math.pi)
                k1 = math.floor((freq * b + phase - math.pi / 2) / math.pi)
                for k in range(k0, k1 + 1):
                    t_star = (math.pi / 2 + k * math.pi - phase) / freq
                    if a <= t_star <= b:
                        cand.append(base + amp * math.sin(freq * t_star + phase))
            return min(cand), max(cand)
        if self.form == "logistic":
            # monotone in t, extrema at the endpoints
            ends = [self._logistic(t, *p) for t in (a, b)]
            return min(ends), max(ends)
        raise ValueError("unknown Hurst form %r" % (self.form,))

    @staticmethod
    def _logistic(t, lo, hi, center, rate):
        return lo + (hi - lo) / (1.0 + np.exp(-rate * (np.asarray(t) - center)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.form == "const":
            out = np.full_like(t, p[0])
        elif self.form == "affine":
            out = p[0] + p[1] * t
        elif self.form == "sine":
            phase = p[3] if len(p) > 3 else 0.0
            out = p[0] + p[1] * np.sin(p[2] * t + phase)
        elif self.form == "logistic":
            out = self._logistic(t, *p)
        else:
            raise ValueError("unknown Hurst form %r" % (self.form,))
        return out if out.ndim else float(out)

    def spec_text(self) -> str:
        return "%s:%s" % (self.form, ",".join("%g" % v for v in self.params))


class KernelVariant(Enum):
    X = "X"
    Y = "Y"
    F1 = "F1"


def parse_hurst(spec_text: str, horizon: float) -> HurstFunction:
    """Parse ``const:<v> | affine:<a>,<b> | sine:<base>,<amp>,<freq>[,<phase>]
    | logistic:<lo>,<hi>,<center>,<rate>`` into a certified HurstFunction."""
    if not isinstance(spec_text, str):
        raise HurstSyntaxError("Hurst spec must be a string", 0)
    head, sep, rest = spec_text.partition(":")
    if not sep:
        raise HurstSyntaxError("missing ':' separator", len(spec_text))
    arities = {"const": (1, 1), "affine": (2, 2), "sine": (3, 4), "logistic": (4, 4)}
    if head not in arities:
        raise HurstSyntaxError("unknown form %r" % head, 0)
    params = []
    pos = len(head) + 1
    for tok in rest.split(","):
        if tok == "" or tok != tok.strip():
            raise HurstSyntaxError("empty or padded parameter", pos)
        try:
            v = float(tok)
        except ValueError:
            raise HurstSyntaxError("bad real literal %r" % tok, pos) from None
        if not math.isfinite(v):
            raise ValueError("non-finite Hurst parameter %r" % tok)
        params.append(v)
        pos += len(tok) + 1
    lo_n, hi_n = arities[head]
    if not lo_n <= len(params) <= hi_n:
        raise HurstSyntaxError(
            "form %r takes %d%s parameters, got %d"
            % (head, lo_n, "" if lo_n == hi_n else "-%d" % hi_n, len(params)),
            len(head) + 1)
    return HurstFunction(form=head, params=tuple(params), horizon=float(horizon))


@dataclass(frozen=True)
class ProcessSpec:
    alpha: StabilityIndex
    hurst: HurstFunction
    kernel: KernelVariant
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a positive real")
        if self.hurst.horizon < self.horizon:
            raise ValueError("Hurst function certified on a shorter horizon "
                             "(%g < %g)" % (self.hurst.horizon, self.horizon))

    def to_config(self) -> dict:
        """Flat key=value form used by config files and artifact metadata."""
        return {
            "alpha": "%g" % self.alpha.alpha,
            "hurst": self.hurst.spec_text(),
            "kernel": self.kernel.value,
            "horizon": "%g" % self.horizon,
        }

    @staticmethod
    def from_config(cfg: dict) -> "ProcessSpec":
        missing = [k for k in ("alpha", "hurst", "kernel", "horizon") if k not in cfg]
        if missing:
            raise ValueError("missing process keys: %s" % ", ".join(missing))
        horizon = float(cfg["horizon"])
        return ProcessSpec(
            alpha=StabilityIndex(float(cfg["alpha"])),
            hurst=parse_hurst(cfg["hurst"], horizon),
            kernel=KernelVariant(cfg["kernel"]),
            horizon=horizon,
        )


def phase_step(kernel: KernelVariant, theta):
    """Real and imaginary parts of the kernel's additive step at theta = t x:
    e^{i theta} - 1 for X and F1, 1 - e^{-i theta} for Y.

    Taken as cos theta - 1 (or 1 - cos theta) and sin theta from numpy's real
    cos and sin, which on x86-64 glibc builds equal the parts of numpy's
    complex exp(1j theta) bit for bit; the Y step is the X pair with the real
    part negated exactly.  This is the one place the step is formed, so
    `eval_kernel` and the LePage block synthesis share it term for term.
    """
    c = np.cos(theta)
    re = 1.0 - c if kernel is KernelVariant.Y else c - 1.0
    return re, np.sin(theta)


def kernel_rotation(kernel: KernelVariant, p, sign_x):
    """The multiplicative rotation e^{i rho pi p sgn(x)/2} of the kernel,
    rho = 1 for Y and -1 for F1; None for X, which is not rotated."""
    if kernel is KernelVariant.Y:
        return np.exp(1j * math.pi * p * sign_x / 2.0)
    if kernel is KernelVariant.F1:
        return np.exp(-1j * math.pi * p * sign_x / 2.0)
    return None


def eval_kernel(spec: ProcessSpec, t: float, x) -> complex:
    """Pointwise kernel value f(t, x); vectorized over x.

    Variants (p = H(t) + 1/alpha):
      X:  (e^{itx} - 1) |x|^{-p}
      Y:  (1 - e^{-itx}) |x|^{-p} e^{i pi p sign(x)/2}
      F1: f_X(t,x) e^{-i pi p sign(x)/2}  ( = -f_Y(t,-x) )

    All satisfy the Hermitian symmetry f(t,-x) = conj(f(t,x)).  The step is
    `phase_step` and the rotation `kernel_rotation`.
    """
    t = float(t)
    if not 0.0 <= t <= spec.horizon:
        raise ValueError("t=%g outside horizon [0, %g]" % (t, spec.horizon))
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr == 0.0):
        raise ValueError("kernel is singular at x = 0")
    p = spec.hurst(t) + 1.0 / spec.alpha.alpha
    re, im = phase_step(spec.kernel, t * x_arr)
    out = (re + 1j * im) * np.abs(x_arr) ** (-p)
    rotation = kernel_rotation(spec.kernel, p, np.sign(x_arr))
    if rotation is not None:
        out = out * rotation
    return out if out.ndim else complex(out)


def kernel_hat_Y(spec: ProcessSpec, t: float, u: float) -> float:
    """Closed-form Fourier transform (convention int e^{iux} f(x) dx) of the
    Y kernel: (2 pi / Gamma(p)) ((-u)_+^{p-1} - (t-u)_+^{p-1}), p = H(t)+1/alpha.

    The sign is the one the transform actually has under this convention; it
    is verified numerically against `quad.oscillatory_ft` (a frequently quoted
    version of the formula has the two positive-part terms swapped, which
    matches only in absolute value).  Only |.| enters the Hausdorff-Young
    ratios downstream, but the signed value is kept exact here.
    """
    if spec.kernel is not KernelVariant.Y:
        raise ValueError("kernel_hat_Y requires the Y kernel variant")
    t = float(t)
    u = float(u)
    p = spec.hurst(t) + 1.0 / spec.alpha.alpha
    k = p - 1.0  # equals H(t) - 1/beta
    if not -1.0 < k < 1.0:
        raise ValueError("exponent H(t)-1/beta = %g outside (-1, 1)" % k)
    if k < 0.0 and (u == 0.0 or u == t):
        raise ValueError("u=%g hits an integrable singularity (u in {0, t})" % u)

    def pos_pow(v):
        return v ** k if v > 0.0 else 0.0

    return 2.0 * math.pi / _gamma_fn(p) * (pos_pow(-u) - pos_pow(t - u))
