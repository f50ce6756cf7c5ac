"""The three workloads: their inputs, their operations and their checks.

A workload is a list of rounds.  Round r is a fixed list of operations whose
inputs come from numpy's PCG64 seeded with (seed, workload id, r), so a run
is reproducible from its seed and every round has the same make-up.  An
operation is a call into one public entry point of `rhmsp`; its output is
kept and checked after the timed phase:

* `check` runs on every output, against `oracles` or against a property
  the method must have that needs no further call into the program;
* `deep_check` runs on the outputs of round 0 only, because it calls the
  program again (another kernel variant, scaled times, the LND objective
  beside its minimizer, a shorter ensemble).

A check raises `CheckError`; an operation that raises is counted as failed
and its output is not checked.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

HORIZON = 4.0
MIN_GAP = 1.0 / 16.0   # smallest single time of a query


class CheckError(AssertionError):
    """An output that its oracle or property rejects."""


def expect(ok, message, *args):
    if not ok:
        raise CheckError(message % args)


@dataclass
class Op:
    """One timed call: `call()` runs it; the checks take its output."""

    kind: str
    call: Callable
    check: Callable = None
    deep_check: Callable = None


def _rng(seed, workload_id, round_index):
    return np.random.default_rng([int(seed), workload_id, round_index])


def _spec(rh, alpha, form, params, kernel="X", horizon=HORIZON):
    text = "%s:%s" % (form, ",".join(repr(float(p)) for p in params))
    return rh.ProcessSpec(alpha=rh.StabilityIndex(alpha),
                          hurst=rh.parse_hurst(text, horizon),
                          kernel=rh.KernelVariant(kernel), horizon=horizon)


def _with_kernel(rh, spec, kernel):
    return rh.ProcessSpec(alpha=spec.alpha, hurst=spec.hurst,
                          kernel=rh.KernelVariant(kernel), horizon=spec.horizon)


def _close(value, reference, rel, what):
    expect(math.isfinite(value) and abs(value - reference) <= rel * abs(reference),
           "%s: %.15g vs reference %.15g (rel err %.3g > %.3g)", what, value,
           reference, abs(value / reference - 1.0) if reference else math.inf, rel)


# ---------------------------------------------------------------------------
# norm_queries: one-shot exact-law queries
# ---------------------------------------------------------------------------

def _draw_hurst(rng, form):
    """Parameters whose H stays in [0.45, 0.7] on [0, HORIZON]."""
    if form == "const":
        return (rng.uniform(0.45, 0.7),)
    if form == "affine":
        return (rng.uniform(0.45, 0.55), rng.uniform(0.02, 0.035))
    if form == "sine":
        return (rng.uniform(0.55, 0.6), rng.uniform(0.05, 0.1),
                rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0 * math.pi))
    return (rng.uniform(0.45, 0.5), rng.uniform(0.65, 0.7),
            rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0))


# Time sets of the multi-time queries: a fixed shape per Hurst form, scaled
# by a seeded factor in [1, 1.6].  The engine's cost follows the ratio of
# the largest to the smallest frequency of a time set, which scaling keeps,
# so the cost of a round hardly depends on the seed; the values do.
SHAPES = {
    "const": ((1.0, 1.3), (1.0, 1.5), (0.5, 1.0, 2.2)),
    "affine": ((1.0, 1.5), (1.0, 1.6), (0.6, 1.2, 2.0)),
    "sine": ((1.0, 1.8), (0.8, 1.6), (0.4, 1.0, 1.7)),
    "logistic": ((1.0, 1.4), (1.0, 2.0), (0.5, 1.2, 2.4)),
}


def _scaled(rng, shape):
    a = rng.uniform(1.0, 1.6)
    return tuple(float(a * t) for t in shape)


def _draw_coeffs(rng, count):
    c = rng.uniform(0.3, 1.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    return tuple(float(v) for v in c)


class _Law:
    """What the oracle needs of a spec: alpha and H(t)."""

    def __init__(self, alpha, form, params):
        self.alpha, self.form, self.params = alpha, form, params

    def h(self, t):
        return oracles.hurst_value(self.form, self.params, t)

    def single_raw(self, t):
        return oracles.single_time_raw(self.alpha, self.h(t), t)


def _norm_ops(rh, rng, alpha, form, rotated, multi_time):
    """Two single-time queries on one seeded spec and, if `multi_time`, an
    increment and a two- or three-time characteristic function.  Kernel X
    serves all of them but the single-time characteristic function, which
    takes the rotated kernel `rotated` (Y or F1): at several times, or at H
    above 0.7, the rotated kernels miss the oracle or raise (see CHANGES.md),
    so they are asked only what they answer."""
    params = _draw_hurst(rng, form)
    law = _Law(alpha, form, params)
    spec = _spec(rh, alpha, form, params)
    rot_spec = _with_kernel(rh, spec, rotated)
    fine = rh.QuadratureConfig(rel_tol=1e-8)
    std = rh.QuadratureConfig(rel_tol=1e-6)
    ops = []

    inc_shape, cf2_shape, cf3_shape = SHAPES[form]

    # single-time norm: the oracle holds for every H form (only H(t) enters)
    t = float(rng.uniform(MIN_GAP, HORIZON))

    def check_single(norm, t=t):
        _close(norm ** alpha, law.single_raw(t), 4.0 * fine.rel_tol,
               "scale_norm(%s, t=%.6g)" % (spec.hurst.spec_text(), t))

    ops.append(Op("scale_norm", lambda: rh.scale_norm(
        spec, rh.FddPoint(times=(t,), coeffs=(1.0,)), fine), check_single))

    # single-time characteristic function
    t1 = float(rng.uniform(MIN_GAP, HORIZON))
    lam = float(rng.uniform(0.3, 1.0))

    point1 = rh.FddPoint(times=(t1,), coeffs=(lam,))

    def check_cf1(cf, t1=t1, lam=lam):
        expect(0.0 < cf <= 1.0, "exact_cf %.17g outside (0, 1]", cf)
        _close(-math.log(cf), lam ** alpha * law.single_raw(t1), 4.0 * std.rel_tol,
               "exact_cf(%s, t=%.6g, lambda=%.4g)" % (rotated, t1, lam))

    def deep_cf1(cf):
        # kernel invariance: X, Y and F1 have the same single-time law
        again = rh.exact_cf(spec, point1, std)
        _close(-math.log(again), -math.log(cf), 8.0 * std.rel_tol,
               "kernel X vs %s of exact_cf at t=%.6g" % (rotated, t1))

    ops.append(Op("exact_cf", lambda: rh.exact_cf(rot_spec, point1, std), check_cf1, deep_cf1))

    if not multi_time:
        return ops

    # increment norm
    s, u = _scaled(rng, inc_shape)
    scale = float(rng.uniform(0.5, 2.0))

    def check_inc(inc, s=s, u=u):
        raw = inc ** alpha
        if form == "const":   # stationary increments
            _close(raw, law.single_raw(u - s), 4.0 * std.rel_tol,
                   "increment_norm(%.6g, %.6g)" % (u, s))
        else:                 # triangle inequality with oracle end points
            a = law.single_raw(u) ** (1.0 / alpha)
            b = law.single_raw(s) ** (1.0 / alpha)
            slack = 4.0 * std.rel_tol * (a + b)
            expect(abs(a - b) - slack <= inc <= a + b + slack,
                   "increment_norm %.15g outside [|%.6g - %.6g|, sum]", inc, a, b)

    def deep_inc(inc, s=s, u=u, scale=scale):
        # homogeneity: ||c (f(u) - f(s))|| = |c| ||f(u) - f(s)||
        scaled = rh.scale_norm(spec, rh.FddPoint(times=(s, u), coeffs=(-scale, scale)), std)
        _close(scaled ** alpha, scale ** alpha * inc ** alpha, 8.0 * std.rel_tol,
               "homogeneity of increment_norm(%.6g, %.6g)" % (u, s))

    ops.append(Op("increment_norm", lambda: rh.increment_norm(spec, u, s, std),
                  check_inc, deep_inc))

    # two- or three-time characteristic function
    times = _scaled(rng, cf2_shape if (rng.random() < 0.5) else cf3_shape)
    coeffs = _draw_coeffs(rng, len(times))
    point = rh.FddPoint(times=times, coeffs=coeffs)

    def check_cf(cf, times=times, coeffs=coeffs):
        expect(0.0 < cf <= 1.0, "exact_cf %.17g outside (0, 1]", cf)
        # triangle inequality over the times: ||sum c_k f(t_k)|| <= sum |c_k| ||f(t_k)||
        bound = sum(abs(c) * law.single_raw(t) ** (1.0 / alpha)
                    for t, c in zip(times, coeffs))
        expect((-math.log(cf)) ** (1.0 / alpha) <= bound * (1.0 + 4.0 * std.rel_tol),
               "exact_cf %.17g breaks the triangle bound %.6g", cf, bound)

    def deep_cf(cf, times=times, coeffs=coeffs):
        raw = -math.log(cf)
        if form == "const":
            # self-similarity: ||sum c_k f(a t_k)|| = a^H ||sum c_k f(t_k)||
            a = 0.5
            again = rh.exact_cf(spec, rh.FddPoint(times=tuple(a * t for t in times),
                                                  coeffs=coeffs), std)
            _close(-math.log(again), a ** (alpha * params[0]) * raw,
                   8.0 * std.rel_tol, "self-similarity of exact_cf at %s" % (times,))
        else:
            # homogeneity: -log cf of (b c) is |b|^alpha times that of c
            b = 0.75
            again = rh.exact_cf(spec, rh.FddPoint(times=times, coeffs=tuple(
                b * c for c in coeffs)), std)
            _close(-math.log(again), b ** alpha * raw, 8.0 * std.rel_tol,
                   "homogeneity of exact_cf at %s" % (times,))

    ops.append(Op("exact_cf", lambda: rh.exact_cf(spec, point, std), check_cf, deep_cf))
    return ops


FT_GRID = tuple((h, t) for h in (1.2, 1.5, 1.8) for t in (0.5, 1.0, 2.0))

# exact_cf on these fixed inputs raises QuadratureError on every call: the
# engine cannot certify rel_tol 1e-6 for a low-H logistic spec at three times.
# It stays in each round, outside the seeded inputs, and is counted as failed.
KNOWN_FAILURE = dict(alpha=1.5, form="logistic", params=(0.3, 0.7, 1.0, 2.0),
                     times=(0.4, 1.1, 2.3), coeffs=(0.5, -0.7, 0.3), rel_tol=1e-6)


def _ft_ops(rh, rng):
    cfg = rh.QuadratureConfig(rel_tol=1e-7, abs_tol=1e-7)
    ops = []
    for h, t in FT_GRID:
        # one seeded frequency off the closed form's kinks at u = 0 and u = t
        u = float(rng.uniform(-2.0, -0.1) if rng.random() < 0.5 else rng.uniform(0.1, t - 0.1))

        def check(rep):
            expect(rep.passed and rep.metric <= 1e-4,
                   "ft_check(h=%g, t=%g) metric %.3g > 1e-4", rep.parameters["h"],
                   rep.parameters["t"], rep.metric)

        def deep(rep, h=h, t=t, u=u):
            def f(x):
                x = np.asarray(x, dtype=float)
                return ((np.exp(-1j * t * x) - 1.0) * np.abs(x) ** (-h)
                        * np.exp(1j * math.pi * h * np.sign(x) / 2.0))
            val = rh.oscillatory_ft(f, u, envelope_decay=h, cfg=cfg,
                                    inner_frequencies=(-t,), singular_exponent=h - 1.0,
                                    hermitian=True)
            _close(val.real, oracles.ft_closed_form(h, t, u), 1e-4,
                   "oscillatory_ft(h=%g, t=%g, u=%.6g)" % (h, t, u))

        ops.append(Op("ft_check", lambda h=h, t=t: rh.ft_check(h, t, cfg=cfg), check, deep))
    return ops


def norm_queries(rh, seed, r):
    rng = _rng(seed, 1, r)
    ops = []
    i = 0
    for alpha in (1.5, 1.8):
        for form in ("const", "affine", "sine", "logistic"):
            # at alpha = 1.5 the engine raises on a few per cent of variable-H
            # increments and multi-time cfs (see CHANGES.md); none at 1.8
            multi = alpha == 1.8 or form == "const"
            ops += _norm_ops(rh, rng, alpha, form, ("Y", "F1")[(i + r) % 2], multi)
            i += 1
    ops += _ft_ops(rh, rng)
    k = KNOWN_FAILURE
    spec = _spec(rh, k["alpha"], k["form"], k["params"])
    point = rh.FddPoint(times=k["times"], coeffs=k["coeffs"])
    cfg = rh.QuadratureConfig(rel_tol=k["rel_tol"])
    ops.append(Op("exact_cf", lambda: rh.exact_cf(spec, point, cfg),
                  lambda cf: expect(0.0 < cf <= 1.0, "exact_cf %.17g outside (0, 1]", cf)))
    return ops


# ---------------------------------------------------------------------------
# local_moments: many coefficient vectors over the same close times
# ---------------------------------------------------------------------------

def _increment_coeffs3(c):
    """Coefficients on (t1, t2, t3) of (X(t3) - X(t2)) - c (X(t2) - X(t1))."""
    return (c, -1.0 - c, 1.0)


def local_moments(rh, seed, r):
    rng = _rng(seed, 2, r)
    ops = []

    # m = 2 local-time moment on criterion 8's widest window, at a seeded level
    alpha, hurst, t0, h = 1.5, 0.5, 0.5, 0.04
    m2_spec = _spec(rh, alpha, "const", (hurst,))
    level = float(rng.uniform(-0.2, 0.2))

    def check_m2(m2):
        mean = oracles.mean_local_time(alpha, hurst, t0, h, level)
        expect(math.isfinite(m2) and m2 >= mean * mean,
               "m2 %.6g below the Jensen bound (E L)^2 = %.6g", m2, mean * mean)

    ops.append(Op("local_time_second_moment",
                  lambda: rh.local_time_second_moment(m2_spec, t0, h, level), check_m2))

    # LND ratio, n = 3, at criterion 6's spacing 2^-5, kernel X
    lnd_spec = _spec(rh, 1.5, "const", (0.7,))
    lnd_cfg = rh.QuadratureConfig(rel_tol=1e-5)
    center, spacing = 0.5, 2.0 ** -5
    times = tuple(center + k * spacing for k in range(3))

    def check_lnd(rep):
        expect(rep.passed, "lnd_study below its floor: %.6g", rep.metric)
        for row in rep.parameters["table"]:
            expect(0.0 < row["ratio"] <= 1.0 + 1e-12, "LND ratio %r outside (0, 1]", row["ratio"])
            if "hy_chain_bound" in row:
                expect(row["ratio"] >= row["hy_chain_bound"],
                       "LND ratio %r below the Hausdorff-Young bound %r",
                       row["ratio"], row["hy_chain_bound"])

    def deep_lnd(rep):
        step = 0.05
        for row in rep.parameters["table"]:
            kspec = _with_kernel(rh, lnd_spec, row["kernel"])
            c = row["argmin"][0]
            f0, fm, fp = (rh.norms._raw_norm_integral(
                kspec, times, _increment_coeffs3(c + d), lnd_cfg)
                for d in (0.0, -step, step))
            expect(min(fm, fp) >= f0 * (1.0 - 8.0 * lnd_cfg.rel_tol),
                   "LND objective %r at argmin %r +- %g is not a minimum (%r, %r)",
                   f0, c, step, fm, fp)

    ops.append(Op("lnd_study", lambda: rh.lnd_study(
        lnd_spec, center, [spacing], 3, cfg=lnd_cfg,
        opt_cfg=rh.OptimizerConfig(grad_tol=2e-4), kernels=(rh.KernelVariant.X,)),
        check_lnd, deep_lnd))

    # localizability at delta = 1e-2, constant and sine H
    loc_cfg = rh.QuadratureConfig(rel_tol=1e-6)
    for form, params in (("const", (0.5,)), ("sine", (0.5, 0.1, 1.0))):
        spec = _spec(rh, 1.5, form, params)
        t = float(rng.uniform(0.4, 0.6))

        def check_loc(rep, form=form):
            expect(math.isfinite(rep.metric) and rep.metric >= 0.0,
                   "localizability_error %r is not a finite error", rep.metric)
            if form == "const":   # the increments are exactly self-similar
                expect(rep.metric <= 4.0 * loc_cfg.rel_tol,
                       "const-H localizability error %.3g > 4 rel_tol", rep.metric)

        def deep_loc(rep, spec=spec, t=t, form=form):
            # under varying H the error shrinks with delta
            if form != "const":
                wider = rh.localizability_error(spec, t, 2e-2, cfg=loc_cfg)
                expect(wider.metric > rep.metric,
                       "localizability error %.4g at delta 2e-2 is not above %.4g at 1e-2",
                       wider.metric, rep.metric)

        ops.append(Op("localizability_error", lambda spec=spec, t=t: rh.localizability_error(
            spec, t, 1e-2, cfg=loc_cfg), check_loc, deep_loc))
    return ops


# ---------------------------------------------------------------------------
# paths: LePage ensembles and their statistics
# ---------------------------------------------------------------------------

HOLDER_DELTAS = tuple(2.0 ** -k for k in range(4, 10))
REPRO_SAMPLES = 3


def _check_repro(rng, ens, law):
    """Path values against an independent re-summation of their series."""
    n_paths, n_grid = ens.paths.shape
    for _ in range(REPRO_SAMPLES):
        j = int(rng.integers(n_paths))
        i = int(rng.integers(1, n_grid))
        t = ens.grid[i]
        ref, scale = oracles.lepage_value(law.alpha, law.h(t), t,
                                          ens.config.seed, j, ens.config.terms)
        expect(abs(ens.paths[j, i] - ref) <= 1e-12 * scale,
               "path %d at t=%.6g is %.17g, the series sums to %.17g", j, t,
               ens.paths[j, i], ref)


def _check_prefix(rh, ens, j):
    """Per-path Philox streams: path j does not depend on the path count."""
    short = rh.sample_paths(ens.spec, ens.grid, j + 1, ens.config)
    expect(np.array_equal(short.paths[j], ens.paths[j]),
           "path %d of a %d-path ensemble differs from a %d-path ensemble",
           j, ens.paths.shape[0], j + 1)


def _check_mass(est, span):
    mass = float(np.sum(est.values) * est.bin_width)
    expect(abs(mass - span) <= 1e-10 * span, "occupation mass %.17g != %.17g", mass, span)


def _holder_check(law, window, grid_points):
    """Median slope within 0.1 of the H range on the window, widened by three
    standard errors of the median (1.2533 sd / sqrt(n)) of the per-path
    slopes: with a handful of paths the estimator's spread is 0.15-0.19 per
    path, which alone would take the median past 0.1 on a share of seeds."""
    hs = [law.h(t) for t in np.linspace(window[0], window[1], grid_points)]
    h_lo, h_hi = min(hs), max(hs)

    def check(rep):
        slopes = np.asarray(rep.parameters["slopes"])
        med = rep.parameters["median_slope"]
        se = 1.2533 * float(np.std(slopes, ddof=1)) / math.sqrt(slopes.size)
        allowance = 0.1 + 3.0 * se
        expect(h_lo - allowance <= med <= h_hi + allowance,
               "median Hoelder slope %.4f outside [%.4f, %.4f] +- %.4f",
               med, h_lo, h_hi, allowance)
        expect(abs(rep.parameters["h_hat"] - h_lo) <= 1e-3,
               "holder_slope reports min H %.6g, expected %.6g", rep.parameters["h_hat"], h_lo)
    return check


def paths(rh, seed, r):
    rng = _rng(seed, 3, r)
    check_rng_seed = int(rng.integers(2 ** 32))
    ops = []
    alpha = 1.5

    def lepage(terms, tail):
        return rh.LePageConfig(terms=terms, seed=int(rng.integers(2 ** 32)),
                               tail_compensation=tail)

    # fine uniform grids without tail compensation: Hoelder slopes, occupation
    for form, params, points, count in (
            ("sine", (rng.uniform(0.55, 0.6), rng.uniform(0.05, 0.1),
                      rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)), 4097, 8),
            ("const", (rng.uniform(0.6, 0.75),), 2049, 16)):
        law = _Law(alpha, form, params)
        spec = _spec(rh, alpha, form, params)
        grid = tuple(np.linspace(0.0, 1.0, points))
        cfg = lepage(1000, False)
        holder = {}
        t_occ = grid[int(rng.integers(points // 4, points))]

        def sample(spec=spec, grid=grid, count=count, cfg=cfg, holder=holder):
            holder["ens"] = rh.sample_paths(spec, grid, count, cfg)
            return holder["ens"]

        def check_sample(ens, law=law):
            _check_repro(np.random.default_rng(check_rng_seed), ens, law)

        ops.append(Op("sample_paths", sample, check_sample))
        ops.append(Op("holder_slope", lambda holder=holder: rh.holder_slope(
            holder["ens"], HOLDER_DELTAS), _holder_check(law, (0.0, 1.0), points)))
        ops.append(Op("occupation_histogram", lambda holder=holder, t=t_occ: rh.occupation_histogram(
            rh.ensemble_path(holder["ens"], 0), t, 64),
            lambda est, t=t_occ: _check_mass(est, t)))

    # small grid with tail compensation and many paths: empirical vs exact cf
    hurst = float(rng.uniform(0.5, 0.7))
    law = _Law(alpha, "const", (hurst,))
    spec = _spec(rh, alpha, "const", (hurst,))
    palette = tuple(0.125 * k for k in range(1, 9))
    grid = (0.0,) + palette
    cfg = lepage(2000, True)
    cf_holder = {}
    budget = rh.bias_budget(spec.alpha, cfg.terms)

    def sample_cf(spec=spec, grid=grid, cfg=cfg):
        cf_holder["ens"] = rh.sample_paths(spec, grid, 2000, cfg)
        return cf_holder["ens"]

    ops.append(Op("sample_paths", sample_cf,
                  deep_check=lambda ens: _check_prefix(rh, ens, int(
                      np.random.default_rng(check_rng_seed).integers(8)))))
    std = rh.QuadratureConfig(rel_tol=1e-6)
    for count in (1, 1, 2, 3):
        times = tuple(sorted(float(v) for v in rng.choice(palette, size=count, replace=False)))
        # coefficients sized so the cf sits near 1/2, where the check is
        # sharpest; ||f(t)||^alpha is about 7.3 t^{alpha H} here, which is
        # close enough for sizing and keeps the oracle out of the set-up
        raw_sum = sum(7.3 * t ** (alpha * hurst) for t in times)
        coeffs = tuple(float(s * (math.log(2.0) / raw_sum) ** (1.0 / alpha) * rng.uniform(0.8, 1.25))
                       for s in rng.choice([-1.0, 1.0], size=count))
        point = rh.FddPoint(times=times, coeffs=coeffs)

        def check_cf(out, point=point, law=law, spec=spec):
            emp, se = out
            if len(point.times) == 1:
                exact = math.exp(-abs(point.coeffs[0]) ** alpha * law.single_raw(point.times[0]))
            else:
                exact = rh.exact_cf(spec, point, std)
            band = 3.0 * se + budget
            expect(abs(emp - exact) <= band,
                   "empirical cf %s at %s is %.4g from exact %.6g (band %.4g)",
                   emp, point.times, abs(emp - exact), exact, band)

        ops.append(Op("empirical_cf", lambda point=point: rh.empirical_cf(
            cf_holder["ens"], point), check_cf))

    # criterion 8's non-uniform window grid: [0] and 129 points on [0.5, 0.52]
    law = _Law(alpha, "const", (0.5,))
    spec = _spec(rh, alpha, "const", (0.5,))
    grid = (0.0,) + tuple(np.linspace(0.5, 0.52, 129))
    cfg = lepage(1500, False)
    win_holder = {}

    def sample_win(spec=spec, grid=grid, cfg=cfg):
        win_holder["ens"] = rh.sample_paths(spec, grid, 200, cfg)
        return win_holder["ens"]

    ops.append(Op("sample_paths", sample_win,
                  lambda ens: _check_repro(np.random.default_rng(check_rng_seed), ens, law),
                  lambda ens: _check_prefix(rh, ens, int(
                      np.random.default_rng(check_rng_seed).integers(40)))))
    ops.append(Op("occupation_histogram", lambda: rh.occupation_histogram(
        rh.ensemble_path(win_holder["ens"], 0), grid[-1], 16, start=grid[1]),
        lambda est: _check_mass(est, grid[-1] - grid[1])))
    return ops


WORKLOADS = {"norm_queries": norm_queries, "local_moments": local_moments, "paths": paths}
