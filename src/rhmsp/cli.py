"""Batch command-line surface for the rhmsp laboratory.

Subcommands map one-to-one onto the library suites; every run resolves a flat
key=value configuration (file, then ``--set`` overrides), prints one
PASS/FAIL line per check, and writes CSV artifacts with JSON sidecars that
embed the full resolved configuration.  Exit codes: 0 all checks pass,
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import analysis, lepage, localtime
from .lepage import LePageConfig, derive_constants, sample_paths
from .model import KernelVariant, ProcessSpec, StabilityIndex
from .norms import FddPoint, OptimizerConfig, exact_cf, scale_norm
from .quad import QuadratureConfig

__all__ = ["run", "main"]

COMMANDS = ("simulate", "cf-check", "norm", "lnd", "localize", "localtime",
            "ft-check", "holder", "verify-all")

DEFAULT_CONFIG = {
    "alpha": "1.5",
    "hurst": "const:0.5",
    "kernel": "X",
    "horizon": "4",
    "rel_tol": "1e-6",
    "abs_tol": "1e-9",
}


class CliError(Exception):
    """Usage/configuration error: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# configuration and argument plumbing
# ---------------------------------------------------------------------------

def load_config(path: str) -> Dict[str, str]:
    """Flat ``key=value`` per line; ``#`` starts a comment; blanks ignored."""
    if not os.path.isfile(path):
        raise CliError("config file not found: %s" % path)
    out: Dict[str, str] = {}
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError("%s:%d: expected key=value, got %r"
                               % (path, ln, raw.rstrip("\n")))
            key, val = line.split("=", 1)
            key, val = key.strip(), val.strip()
            if not key:
                raise CliError("%s:%d: empty key" % (path, ln))
            out[key] = val
    return out


def resolve_config(args) -> Dict[str, str]:
    cfg = dict(DEFAULT_CONFIG)
    if getattr(args, "spec", None):
        cfg.update(load_config(args.spec))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise CliError("--set expects key=value, got %r" % item)
        key, val = item.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def resolve_seed(args, cfg: Dict[str, str]) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if "seed" in cfg:
        try:
            return int(cfg["seed"])
        except ValueError:
            raise CliError("config seed is not an integer: %r" % cfg["seed"])
    env = os.environ.get("RHMSP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError("RHMSP_SEED is not an integer: %r" % env)
    return 42


def build_spec(cfg: Dict[str, str]) -> ProcessSpec:
    try:
        return ProcessSpec.from_config(cfg)
    except (ValueError, KeyError) as exc:
        raise CliError("bad process configuration: %s" % exc)


def build_quad_config(cfg: Dict[str, str]) -> QuadratureConfig:
    try:
        return QuadratureConfig(rel_tol=float(cfg["rel_tol"]),
                                abs_tol=float(cfg["abs_tol"]))
    except ValueError as exc:
        raise CliError("bad quadrature configuration: %s" % exc)


def parse_grid(text: str) -> np.ndarray:
    """``start:end:count`` with inclusive endpoints and `count` intervals."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("grid must be start:end:count, got %r" % text)
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise CliError("grid must be start:end:count, got %r" % text)
    if count < 1 or not end > start:
        raise CliError("grid needs end > start and count >= 1")
    return np.linspace(start, end, count + 1)


def parse_floats(text: str, what: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise CliError("bad %s list: %r" % (what, text))


def prepare_out_dir(path: str, force: bool) -> str:
    if os.path.isfile(path):
        raise CliError("--out %s is a file; expected a directory" % path)
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise CliError("--out %s is not empty (use --force to overwrite)" % path)
    os.makedirs(path, exist_ok=True)
    return path


def prepare_out_file(path: str, force: bool) -> str:
    if os.path.isdir(path):
        raise CliError("--out %s is a directory; expected a file" % path)
    if os.path.exists(path) and not force:
        raise CliError("--out %s exists (use --force to overwrite)" % path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def sidecar_json(provenance: Dict[str, object]) -> str:
    return json.dumps(provenance, sort_keys=True, indent=2) + "\n"


def emit(report: analysis.CheckReport) -> None:
    print("%s %s: metric=%.6g %s %.6g"
          % ("PASS" if report.passed else "FAIL", report.check,
             report.metric, report.direction, report.threshold))


def write_report(report: analysis.CheckReport, out_dir: str,
                 name: str, extra_artifacts: Sequence[str] = ()) -> None:
    path = os.path.join(out_dir, name + ".json")
    # record artifacts relative to the report directory so identical runs
    # into different --out roots stay byte-identical
    rel = [os.path.relpath(p, out_dir) for p in list(extra_artifacts) + [path]]
    rep = report.with_artifacts(rel)
    write_text(path, rep.to_json())


def _sample_grid_paths(spec: ProcessSpec, grid: np.ndarray, paths: int,
                      **lepage_options) -> lepage.PathEnsemble:
    """`sample_paths` on a command-line grid; a grid that leaves the horizon
    or a bad ensemble size is a usage error."""
    try:
        return sample_paths(spec, grid, paths, LePageConfig(**lepage_options))
    except ValueError as exc:
        raise CliError(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    seed = resolve_seed(args, cfg)
    grid = parse_grid(args.grid)
    out = prepare_out_file(args.out, args.force)
    ens = _sample_grid_paths(spec, grid, args.paths, terms=args.terms, seed=seed)
    csv = lepage.ensemble_to_csv(ens)
    meta = {
        "config": {**cfg, "seed": str(seed)},
        "grid": args.grid,
        "paths": args.paths,
        "terms": args.terms,
        "per_path_seeds": [[int(a), int(b)] for a, b in ens.per_path_seeds],
        "truncation_diagnostic": lepage.truncation_diagnostic(
            spec.alpha, args.terms),
    }
    write_text(out, csv)
    write_text(os.path.splitext(out)[0] + ".json", sidecar_json(meta))
    print("PASS simulate: wrote %d paths x %d times to %s"
          % (args.paths, grid.size, out))
    return 0


def _random_points(grid: np.ndarray, count: int, seed: int) -> List[FddPoint]:
    """Deterministic FddPoints with times on the grid (excluding t=0)."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0xC0FFEE], dtype=np.uint64)))
    usable = [t for t in grid if t > 0.0]
    points = []
    for _ in range(count):
        m = int(rng.integers(1, 4))
        times = sorted(rng.choice(len(usable), size=m, replace=False))
        coeffs = rng.uniform(-1.0, 1.0, size=m)
        coeffs = np.where(np.abs(coeffs) < 0.2, np.sign(coeffs) * 0.2 + 0.0,
                          coeffs)
        points.append(FddPoint(times=tuple(usable[i] for i in times),
                               coeffs=tuple(float(c) for c in coeffs)))
    return points


def cmd_cf_check(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    qcfg = build_quad_config(cfg)
    seed = resolve_seed(args, cfg)
    out = prepare_out_dir(args.out, args.force)
    grid = parse_grid(args.grid)
    ens = _sample_grid_paths(spec, grid, args.paths, terms=args.terms, seed=seed)
    points = _random_points(grid, args.points, seed)
    bias = lepage.bias_budget(spec.alpha, args.terms)
    rows = []
    metric = 0.0
    for pt in points:
        emp, se = lepage.empirical_cf(ens, pt)
        exact = exact_cf(spec, pt, qcfg)
        err = abs(emp - exact)
        budget = 3.0 * se + bias
        metric = max(metric, err / budget)
        rows.append((pt, emp, se, exact, err, budget))
    params = {
        "config": {**cfg, "seed": str(seed)},
        "paths": args.paths, "terms": args.terms, "points": args.points,
        "bias_budget": bias,
    }
    report = analysis.CheckReport(
        check="cf_check", parameters=params, metric=float(metric),
        threshold=1.0, direction="<=", passed=bool(metric <= 1.0))
    lines = ["times,coeffs,empirical_re,empirical_im,stderr,exact,abs_error,budget"]
    for pt, emp, se, exact, err, budget in rows:
        lines.append("%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            ";".join("%.17g" % t for t in pt.times),
            ";".join("%.17g" % c for c in pt.coeffs),
            emp.real, emp.imag, se, exact, err, budget))
    csv_path = os.path.join(out, "cf_points.csv")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_report(report, out, "cf_check", [csv_path])
    emit(report)
    return 0 if report.passed else 1


def cmd_norm(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    qcfg = build_quad_config(cfg)
    times = parse_floats(args.times, "times")
    coeffs = parse_floats(args.coeffs, "coeffs")
    if len(times) != len(coeffs):
        raise CliError("--times and --coeffs lengths differ")
    try:
        point = FddPoint(times=tuple(times), coeffs=tuple(coeffs))
    except ValueError as exc:
        raise CliError(str(exc))
    value = scale_norm(spec, point, qcfg)
    cf = math.exp(-value ** spec.alpha.alpha)
    print("PASS norm: scale_norm=%.12g exact_cf=%.12g" % (value, cf))
    if args.out:
        out = prepare_out_dir(args.out, args.force)
        payload = {"config": cfg, "times": times, "coeffs": coeffs,
                   "scale_norm": value, "exact_cf": cf}
        write_text(os.path.join(out, "norm.json"), sidecar_json(payload))
    return 0


def cmd_lnd(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    qcfg = build_quad_config(cfg)
    out = prepare_out_dir(args.out, args.force)
    spacings = parse_floats(args.spacings, "spacings")
    try:
        report = analysis.lnd_study(
            spec, args.center, spacings, args.n, cfg=qcfg,
            opt_cfg=OptimizerConfig(grad_tol=args.grad_tol),
            floor_value=args.floor)
    except ValueError as exc:
        raise CliError(str(exc))
    report = analysis.CheckReport(
        check=report.check,
        parameters={**report.parameters, "config": cfg},
        metric=report.metric, threshold=report.threshold,
        direction=report.direction, passed=report.passed)
    lines = ["kernel,spacing,ratio,hy_chain_bound"]
    for row in report.parameters["table"]:
        lines.append("%s,%.17g,%.17g,%s" % (
            row["kernel"], row["spacing"], row["ratio"],
            "%.17g" % row["hy_chain_bound"] if "hy_chain_bound" in row else ""))
    csv_path = os.path.join(out, "lnd_ratios.csv")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_report(report, out, "lnd_study", [csv_path])
    emit(report)
    return 0 if report.passed else 1


def cmd_localize(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    qcfg = build_quad_config(cfg)
    out = prepare_out_dir(args.out, args.force)
    deltas = parse_floats(args.deltas, "deltas")
    all_pass = True
    for i, delta in enumerate(deltas):
        try:
            report = analysis.localizability_error(
                spec, args.t, delta, cfg=qcfg, threshold=args.threshold)
        except ValueError as exc:
            raise CliError(str(exc))
        report = analysis.CheckReport(
            check=report.check,
            parameters={**report.parameters, "config": cfg},
            metric=report.metric, threshold=report.threshold,
            direction=report.direction, passed=report.passed)
        write_report(report, out, "localize_%d" % i)
        emit(report)
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


def cmd_localtime(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    seed = resolve_seed(args, cfg)
    out = prepare_out_dir(args.out, args.force)
    grid = parse_grid(args.grid)
    on_grid = np.flatnonzero(np.isclose(grid, args.t))
    if not on_grid.size:
        raise CliError("--t must lie on the grid")
    t = float(grid[on_grid[0]])   # the grid point itself, which the histogram needs
    ens = _sample_grid_paths(spec, grid, 1, terms=args.terms, seed=seed)
    path = localtime.ensemble_path(ens, 0)
    est = localtime.occupation_histogram(path, t, args.bins)
    mass = float(np.sum(est.values) * est.bin_width)
    mass_report = analysis.CheckReport(
        check="localtime_mass_identity",
        parameters={"config": {**cfg, "seed": str(seed)}, "t": t,
                    "bins": args.bins, "mass": mass},
        metric=abs(mass - t), threshold=1e-10 * t,
        direction="<=", passed=bool(abs(mass - t) <= 1e-10 * t))
    centre = float(np.median(path.values[:-1]))
    spread = float(np.std(path.values[:-1])) or 1.0
    test = localtime.TestFunction.gaussian(centre, 0.5 * spread)
    residual = localtime.occupation_formula_check(path, est, test)
    occ_report = analysis.CheckReport(
        check="localtime_occupation_residual",
        parameters={"config": {**cfg, "seed": str(seed)}, "t": t,
                    "bins": args.bins, "test_center": centre,
                    "test_width": 0.5 * spread},
        metric=float(residual), threshold=args.residual_threshold,
        direction="<=", passed=bool(residual <= args.residual_threshold))
    lines = ["x,L"]
    for x, v in zip(est.centers, est.values):
        lines.append("%.17g,%.17g" % (x, v))
    csv_path = os.path.join(out, "localtime.csv")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_text(os.path.join(out, "localtime.json"), sidecar_json({
        "config": {**cfg, "seed": str(seed)},
        "window": [0.0, t], "bin_width": est.bin_width,
        "path_dt": est.path_dt, "source_path": 0,
    }))
    write_report(mass_report, out, "mass_identity", [csv_path])
    write_report(occ_report, out, "occupation_residual", [csv_path])
    emit(mass_report)
    emit(occ_report)
    ok = mass_report.passed and occ_report.passed
    if args.m2:
        hs = parse_floats(args.m2, "m2 window list")
        rows = ["h,m2"]
        for hwin in hs:
            m2 = localtime.local_time_second_moment(spec, t, hwin, args.x)
            rows.append("%.17g,%.17g" % (hwin, m2))
            print("PASS localtime_m2: h=%g m2=%.6g" % (hwin, m2))
        write_text(os.path.join(out, "m2.csv"), "\n".join(rows) + "\n")
    return 0 if ok else 1


def cmd_ft_check(args) -> int:
    cfg = resolve_config(args)
    out = prepare_out_dir(args.out, args.force)
    u_grid = (parse_floats(args.u, "u grid") if args.u
              else list(analysis.DEFAULT_U_GRID))
    try:
        report = analysis.ft_check(args.h, args.t, u_grid,
                                   alpha=float(cfg["alpha"]))
    except ValueError as exc:
        raise CliError(str(exc))
    report = analysis.CheckReport(
        check=report.check, parameters={**report.parameters, "config": cfg},
        metric=report.metric, threshold=report.threshold,
        direction=report.direction, passed=report.passed)
    write_report(report, out, "ft_check")
    emit(report)
    return 0 if report.passed else 1


def cmd_holder(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    seed = resolve_seed(args, cfg)
    out = prepare_out_dir(args.out, args.force)
    grid = parse_grid(args.grid)
    # tail compensation adds an independent normal per grid point; that white
    # noise is right for marginal laws but ruins path-regularity statistics
    ens = _sample_grid_paths(spec, grid, args.paths, terms=args.terms, seed=seed,
                            tail_compensation=False)
    deltas = parse_floats(args.deltas, "deltas")
    report = analysis.holder_slope(ens, deltas, threshold=args.threshold)
    report = analysis.CheckReport(
        check=report.check,
        parameters={**report.parameters, "config": {**cfg, "seed": str(seed)}},
        metric=report.metric, threshold=report.threshold,
        direction=report.direction, passed=report.passed)
    lines = ["path,slope"]
    for j, s in enumerate(report.parameters["slopes"]):
        lines.append("%d,%.17g" % (j, s))
    csv_path = os.path.join(out, "slopes.csv")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_report(report, out, "holder_slope", [csv_path])
    emit(report)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify-all: the CI entry point, dependency-ordered
# ---------------------------------------------------------------------------

def cmd_verify_all(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg)
    seed = resolve_seed(args, cfg)
    out = prepare_out_dir(args.out, args.force)
    qcfg = build_quad_config(cfg)
    provenance = {**cfg, "seed": str(seed)}
    reports: List[analysis.CheckReport] = []

    def sub(name: str) -> str:
        p = os.path.join(out, name)
        os.makedirs(p, exist_ok=True)
        return p

    # 1. series constants against the reflection-formula identity
    c_alpha, sigma = derive_constants(spec.alpha)
    a = spec.alpha.alpha
    # Gamma(1-a) and cos(pi a/2) are both negative on (1,2): positive product
    ident = (math.gamma(1.0 - a) * math.cos(math.pi * a / 2.0)) ** (-1.0 / a)
    dev = abs(c_alpha / ident - 1.0)
    rep = analysis.CheckReport(
        check="constants_identity",
        parameters={"config": provenance, "c_alpha": c_alpha,
                    "gauss_sigma": sigma, "identity": ident},
        metric=dev, threshold=1e-10,
        direction="<=", passed=bool(dev <= 1e-10))
    write_report(rep, sub("constants"), "constants")
    reports.append(rep)

    # 2. exact self-similarity of the norm engine (depends on quad+norms)
    h0 = float(spec.hurst(1.0)) if spec.hurst.form != "const" \
        else spec.hurst.params[0]
    from .model import HurstFunction
    flat = ProcessSpec(alpha=spec.alpha,
                       hurst=HurstFunction("const", (h0,), spec.horizon),
                       kernel=spec.kernel, horizon=spec.horizon)
    ratios = [scale_norm(flat, FddPoint((t,), (1.0,)), qcfg) / t ** h0
              for t in (0.25, 1.0, 4.0) if t <= spec.horizon]
    mm = max(ratios) / min(ratios)
    rep = analysis.CheckReport(
        check="selfsimilarity",
        parameters={"config": provenance, "h": h0, "ratios": ratios},
        metric=mm, threshold=1.0 + 10.0 * qcfg.rel_tol,
        direction="<=", passed=bool(mm <= 1.0 + 10.0 * qcfg.rel_tol))
    write_report(rep, sub("selfsim"), "selfsimilarity")
    reports.append(rep)

    # 3. appendix FT identity (depends on quad only)
    rep = analysis.ft_check(1.5, 1.0, alpha=a)
    rep = analysis.CheckReport(
        check=rep.check, parameters={**rep.parameters, "config": provenance},
        metric=rep.metric, threshold=rep.threshold,
        direction=rep.direction, passed=rep.passed)
    write_report(rep, sub("ft"), "ft_check")
    reports.append(rep)

    # 4. localizability at one coarse delta (depends on norms)
    rep = analysis.localizability_error(flat, 0.5, 0.1, cfg=qcfg,
                                        threshold=4.0 * qcfg.rel_tol)
    rep = analysis.CheckReport(
        check=rep.check, parameters={**rep.parameters, "config": provenance},
        metric=rep.metric, threshold=rep.threshold,
        direction=rep.direction, passed=rep.passed)
    write_report(rep, sub("localize"), "localizability")
    reports.append(rep)

    # 5. LND sanity row (depends on norms + optimizer plumbing)
    rep = analysis.lnd_study(flat, 0.5, [2.0 ** -4], 2, cfg=qcfg,
                             floor_value=1.0 - 10.0 * qcfg.rel_tol)
    rep = analysis.CheckReport(
        check=rep.check, parameters={**rep.parameters, "config": provenance},
        metric=rep.metric, threshold=rep.threshold,
        direction=rep.direction, passed=rep.passed)
    write_report(rep, sub("lnd"), "lnd_study")
    reports.append(rep)

    # 6. simulation shape + determinism (depends on lepage)
    grid = np.linspace(0.0, 1.0, 129)
    ens = sample_paths(spec, grid, 100, LePageConfig(terms=400, seed=seed))
    csv = lepage.ensemble_to_csv(ens)
    sim_dir = sub("simulate")
    write_text(os.path.join(sim_dir, "paths.csv"), csv)
    write_text(os.path.join(sim_dir, "paths.json"), sidecar_json({
        "config": provenance, "paths": 100, "terms": 400,
        "grid": "0:1:128",
        "truncation_diagnostic": lepage.truncation_diagnostic(spec.alpha, 400),
    }))

    # 7. empirical vs exact characteristic function (depends on 6 + norms)
    points = _random_points(grid, 5, seed)
    bias = lepage.bias_budget(spec.alpha, 400)
    worst = 0.0
    for pt in points:
        emp, se = lepage.empirical_cf(ens, pt)
        worst = max(worst, abs(emp - exact_cf(spec, pt, qcfg))
                    / (3.0 * se + bias))
    rep = analysis.CheckReport(
        check="cf_check",
        parameters={"config": provenance, "points": 5, "paths": 100,
                    "terms": 400, "bias_budget": bias},
        metric=float(worst), threshold=1.0,
        direction="<=", passed=bool(worst <= 1.0))
    write_report(rep, sub("cf"), "cf_check")
    reports.append(rep)

    # 8. local-time mass identity + occupation residual (depends on 6)
    lt_grid = np.linspace(0.0, 1.0, 4097)
    lt_ens = sample_paths(spec, lt_grid, 1, LePageConfig(terms=400, seed=seed))
    path = localtime.ensemble_path(lt_ens, 0)
    est = localtime.occupation_histogram(path, 1.0, 64)
    mass = float(np.sum(est.values) * est.bin_width)
    rep = analysis.CheckReport(
        check="localtime_mass_identity",
        parameters={"config": provenance, "bins": 64, "mass": mass},
        metric=abs(mass - 1.0), threshold=1e-10,
        direction="<=", passed=bool(abs(mass - 1.0) <= 1e-10))
    lt_dir = sub("localtime")
    lines = ["x,L"]
    for x, v in zip(est.centers, est.values):
        lines.append("%.17g,%.17g" % (x, v))
    write_text(os.path.join(lt_dir, "localtime.csv"), "\n".join(lines) + "\n")
    write_text(os.path.join(lt_dir, "localtime.json"), sidecar_json({
        "config": provenance, "window": [0.0, 1.0],
        "bin_width": est.bin_width, "path_dt": est.path_dt,
        "source_path": 0}))
    write_report(rep, lt_dir, "mass_identity")
    reports.append(rep)
    centre = float(np.median(path.values[:-1]))
    spread = float(np.std(path.values[:-1])) or 1.0
    residual = localtime.occupation_formula_check(
        path, est, localtime.TestFunction.gaussian(centre, 0.5 * spread))
    rep = analysis.CheckReport(
        check="localtime_occupation_residual",
        parameters={"config": provenance, "bins": 64},
        metric=float(residual), threshold=0.05,
        direction="<=", passed=bool(residual <= 0.05))
    write_report(rep, lt_dir, "occupation_residual")
    reports.append(rep)

    # 9. Hölder slope on a fine uncompensated ensemble (depends on 6); the
    # tail-compensation white noise would flatten the modulus regression
    h_ens = sample_paths(spec, lt_grid, 8,
                         LePageConfig(terms=400, seed=seed,
                                      tail_compensation=False))
    rep = analysis.holder_slope(h_ens, [2.0 ** -k for k in range(4, 10)],
                                threshold=0.2)
    rep = analysis.CheckReport(
        check=rep.check, parameters={**rep.parameters, "config": provenance},
        metric=rep.metric, threshold=rep.threshold,
        direction=rep.direction, passed=rep.passed)
    write_report(rep, sub("holder"), "holder_slope")
    reports.append(rep)

    for rep in reports:
        emit(rep)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # return exit code 2 through CliError
        raise CliError(message)


def _add_common(p, out_required=True):
    p.add_argument("--spec", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to config, then RHMSP_SEED)")
    p.add_argument("--out", required=out_required, help="output location")
    p.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty output location")


def build_parser() -> _Parser:
    parser = _Parser(prog="rhmsp", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="sample paths to CSV")
    _add_common(p)
    p.add_argument("--grid", default="0:1:256", help="start:end:count")
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--terms", type=int, default=2000)

    p = sub.add_parser("cf-check", help="empirical vs exact cf")
    _add_common(p)
    p.add_argument("--grid", default="0:1:32")
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--terms", type=int, default=2000)
    p.add_argument("--points", type=int, default=10)

    p = sub.add_parser("norm", help="scale norm of a combination")
    _add_common(p, out_required=False)
    p.add_argument("--times", required=True, help="comma-separated times")
    p.add_argument("--coeffs", required=True, help="comma-separated coefficients")

    p = sub.add_parser("lnd", help="local-nondeterminism ratio study")
    _add_common(p)
    p.add_argument("--center", type=float, default=0.5)
    p.add_argument("--spacings", default="0.0625,0.03125")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--floor", type=float, default=0.5)
    p.add_argument("--grad-tol", type=float, default=1e-4)

    p = sub.add_parser("localize", help="localizability error schedule")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--deltas", default="0.1,0.01")
    p.add_argument("--threshold", type=float, default=0.05)

    p = sub.add_parser("localtime", help="occupation histogram checks")
    _add_common(p)
    p.add_argument("--grid", default="0:1:4096")
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--m2", default=None,
                   help="comma list of window widths for the m=2 moment")
    p.add_argument("--residual-threshold", type=float, default=0.05)

    p = sub.add_parser("ft-check", help="appendix Fourier-transform identity")
    _add_common(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--u", default=None, help="comma-separated u grid")

    p = sub.add_parser("holder", help="Hölder slope of sampled paths")
    _add_common(p)
    p.add_argument("--grid", default="0:1:4096")
    p.add_argument("--paths", type=int, default=20)
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--deltas", default="0.0625,0.03125,0.015625,0.0078125,"
                                       "0.00390625,0.001953125")
    p.add_argument("--threshold", type=float, default=0.1)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    _add_common(p)
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "cf-check": cmd_cf_check,
    "norm": cmd_norm,
    "lnd": cmd_lnd,
    "localize": cmd_localize,
    "localtime": cmd_localtime,
    "ft-check": cmd_ft_check,
    "holder": cmd_holder,
    "verify-all": cmd_verify_all,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if not getattr(args, "command", None):
            raise CliError("expected one of: %s" % ", ".join(COMMANDS))
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
