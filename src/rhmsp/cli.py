"""Batch command-line surface for the rhmsp laboratory.

Subcommands map one-to-one onto the library suites; every run resolves a flat
key=value configuration (file, then ``--set`` overrides), prints one
PASS/FAIL line per check, and writes CSV artifacts with JSON sidecars that
embed the full resolved configuration.  Exit codes: 0 all checks pass,
1 at least one check failed, 2 a usage error, any library ``ValueError``, a
quadrature that cannot certify its result or an LND minimization that cannot
certify stationarity.

Each ``cmd_*`` only computes: it puts its artifacts in the ``files`` dict
(path -> text) that `run` passes in.  `run` alone turns an error into exit 2
and writes the files, once the command has returned, so a command that exits
2 writes nothing.
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
from .model import HurstFunction, KernelVariant, ProcessSpec, StabilityIndex
from .norms import FddPoint, OptimizerConfig, OptimizerError, exact_cf, scale_norm
from .quad import QuadratureConfig, QuadratureError

__all__ = ["run", "main"]

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


def build_quad_config(cfg: Dict[str, str]) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=float(cfg["rel_tol"]),
                            abs_tol=float(cfg["abs_tol"]))


def parse_grid(text: str, horizon: float) -> np.ndarray:
    """``start:end:count`` with inclusive endpoints and `count` intervals,
    ending within the horizon."""
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
    if end > horizon:
        raise CliError("grid leaves the horizon")
    return np.linspace(start, end, count + 1)


def parse_floats(text: str, what: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise CliError("bad %s list: %r" % (what, text))


def check_out_dir(path: str, force: bool) -> str:
    """Check an output directory; `run` creates it with the first artifact,
    so a rejected command leaves nothing behind."""
    if os.path.isfile(path):
        raise CliError("--out %s is a file; expected a directory" % path)
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise CliError("--out %s is not empty (use --force to overwrite)" % path)
    return path


def check_out_file(path: str, force: bool) -> str:
    """Check an output file other than its .json sidecar; `run` creates its directory."""
    if os.path.isdir(path):
        raise CliError("--out %s is a directory; expected a file" % path)
    if os.path.splitext(path)[1] == ".json":
        raise CliError("--out %s is its own JSON sidecar; name it .csv" % path)
    if os.path.exists(path) and not force:
        raise CliError("--out %s exists (use --force to overwrite)" % path)
    return path


def sidecar_json(provenance: Dict[str, object]) -> str:
    return json.dumps(provenance, sort_keys=True, indent=2) + "\n"


def emit(report: analysis.CheckReport) -> None:
    print("%s %s: metric=%.6g %s %.6g"
          % ("PASS" if report.passed else "FAIL", report.check,
             report.metric, report.direction, report.threshold))


def add_report(files: Dict[str, str], report: analysis.CheckReport,
               out_dir: str, name: str, config: Dict[str, str],
               extra_artifacts: Sequence[str] = ()) -> None:
    """Put `report` in `files` as ``<name>.json`` with the run's provenance
    as its ``config`` parameter."""
    path = os.path.join(out_dir, name + ".json")
    # record artifacts relative to the report directory so identical runs
    # into different --out roots stay byte-identical
    rel = [os.path.relpath(p, out_dir) for p in list(extra_artifacts) + [path]]
    files[path] = report.with_parameters(config=config).with_artifacts(rel).to_json()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    seed = resolve_seed(args, cfg)
    grid = parse_grid(args.grid, spec.horizon)
    out = check_out_file(args.out, args.force)
    ens = sample_paths(spec, grid, args.paths,
                       LePageConfig(terms=args.terms, seed=seed))
    meta = {
        "config": {**cfg, "seed": str(seed)},
        "grid": args.grid,
        "paths": args.paths,
        "terms": args.terms,
        "per_path_seeds": [[int(a), int(b)] for a, b in ens.per_path_seeds],
        "truncation_diagnostic": lepage.truncation_diagnostic(
            spec.alpha, args.terms),
    }
    files[out] = lepage.ensemble_to_csv(ens)
    files[os.path.splitext(out)[0] + ".json"] = sidecar_json(meta)
    print("PASS simulate: wrote %d paths x %d times to %s"
          % (args.paths, grid.size, out))
    return 0


def _random_points(grid: np.ndarray, count: int, seed: int) -> List[FddPoint]:
    """Deterministic FddPoints with times on the grid (excluding t=0); each
    has one to three distinct times, at most as many as the grid has."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0xC0FFEE], dtype=np.uint64)))
    usable = [t for t in grid if t > 0.0]
    points = []
    for _ in range(count):
        m = int(rng.integers(1, min(4, len(usable) + 1)))
        times = sorted(rng.choice(len(usable), size=m, replace=False))
        coeffs = rng.uniform(-1.0, 1.0, size=m)
        coeffs = np.where(np.abs(coeffs) < 0.2, np.sign(coeffs) * 0.2 + 0.0,
                          coeffs)
        points.append(FddPoint(times=tuple(usable[i] for i in times),
                               coeffs=tuple(float(c) for c in coeffs)))
    return points


def _cf_check(spec: ProcessSpec, ens: lepage.PathEnsemble,
              points: Sequence[FddPoint], qcfg: QuadratureConfig):
    """Empirical against exact cf at `points`: a report whose metric is the
    worst error over its budget (3 standard errors plus the truncation bias),
    and the per-point CSV text."""
    terms = ens.config.terms
    bias = lepage.bias_budget(spec.alpha, terms)
    ratios = []
    lines = ["times,coeffs,empirical_re,empirical_im,stderr,exact,abs_error,budget"]
    for pt in points:
        emp, se = lepage.empirical_cf(ens, pt)
        exact = exact_cf(spec, pt, qcfg)
        err = abs(emp - exact)
        budget = 3.0 * se + bias
        ratios.append(err / budget)
        lines.append("%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            ";".join("%.17g" % t for t in pt.times),
            ";".join("%.17g" % c for c in pt.coeffs),
            emp.real, emp.imag, se, exact, err, budget))
    params = {"paths": ens.paths.shape[0], "terms": terms,
              "points": len(points), "bias_budget": bias}
    # np.max keeps a NaN ratio, which then fails the check
    report = analysis.CheckReport("cf_check", params, float(np.max(ratios)), 1.0)
    return report, "\n".join(lines) + "\n"


def cmd_cf_check(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    qcfg = build_quad_config(cfg)
    seed = resolve_seed(args, cfg)
    out = check_out_dir(args.out, args.force)
    grid = parse_grid(args.grid, spec.horizon)
    if args.paths < 2:
        raise CliError("--paths must be at least 2: one path has no standard error")
    if args.points < 1:
        raise CliError("--points must be at least 1")
    ens = sample_paths(spec, grid, args.paths,
                       LePageConfig(terms=args.terms, seed=seed))
    report, csv_text = _cf_check(spec, ens, _random_points(grid, args.points, seed),
                                 qcfg)
    csv_path = os.path.join(out, "cf_points.csv")
    files[csv_path] = csv_text
    add_report(files, report, out, "cf_check", {**cfg, "seed": str(seed)},
               [csv_path])
    emit(report)
    return 0 if report.passed else 1


def cmd_norm(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    qcfg = build_quad_config(cfg)
    times = parse_floats(args.times, "times")
    coeffs = parse_floats(args.coeffs, "coeffs")
    if len(times) != len(coeffs):
        raise CliError("--times and --coeffs lengths differ")
    out = check_out_dir(args.out, args.force) if args.out else None
    value = scale_norm(spec, FddPoint(times=tuple(times), coeffs=tuple(coeffs)),
                       qcfg)
    cf = math.exp(-value ** spec.alpha.alpha)
    print("PASS norm: scale_norm=%.12g exact_cf=%.12g" % (value, cf))
    if out:
        payload = {"config": cfg, "times": times, "coeffs": coeffs,
                   "scale_norm": value, "exact_cf": cf}
        files[os.path.join(out, "norm.json")] = sidecar_json(payload)
    return 0


def cmd_lnd(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    qcfg = build_quad_config(cfg)
    out = check_out_dir(args.out, args.force)
    spacings = parse_floats(args.spacings, "spacings")
    report = analysis.lnd_study(
        spec, args.center, spacings, args.n, cfg=qcfg,
        opt_cfg=OptimizerConfig(grad_tol=args.grad_tol), floor_value=args.floor)
    lines = ["kernel,spacing,ratio,hy_chain_bound"]
    for row in report.parameters["table"]:
        lines.append("%s,%.17g,%.17g,%s" % (
            row["kernel"], row["spacing"], row["ratio"],
            "%.17g" % row["hy_chain_bound"] if "hy_chain_bound" in row else ""))
    csv_path = os.path.join(out, "lnd_ratios.csv")
    files[csv_path] = "\n".join(lines) + "\n"
    add_report(files, report, out, "lnd_study", cfg, [csv_path])
    emit(report)
    return 0 if report.passed else 1


def cmd_localize(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    qcfg = build_quad_config(cfg)
    out = check_out_dir(args.out, args.force)
    deltas = parse_floats(args.deltas, "deltas")
    if not deltas:
        raise CliError("no delta to check")
    reports = [analysis.localizability_error(
        spec, args.t, delta, cfg=qcfg, threshold=args.threshold)
        for delta in deltas]
    for i, report in enumerate(reports):
        add_report(files, report, out, "localize_%d" % i, cfg)
        emit(report)
    return 0 if all(r.passed for r in reports) else 1


def _localtime_checks(spec: ProcessSpec, grid: np.ndarray, t: float, bins: int,
                      terms: int, seed: int, threshold: float, out: str,
                      provenance: Dict[str, str], files: Dict[str, str]):
    """Occupation histogram of one sampled path over [0, t], put in `files`
    under `out` as ``localtime.csv`` with its sidecar, and its mass-identity
    and occupation-residual reports, put there and returned."""
    localtime.check_histogram_window(grid, t, bins)
    ens = sample_paths(spec, grid, 1, LePageConfig(terms=terms, seed=seed))
    path = localtime.ensemble_path(ens, 0)
    est = localtime.occupation_histogram(path, t, bins)
    mass = float(np.sum(est.values) * est.bin_width)
    mass_report = analysis.CheckReport(
        "localtime_mass_identity", {"t": t, "bins": bins, "mass": mass},
        abs(mass - t), 1e-10 * t)
    centre = float(np.median(path.values[:-1]))
    spread = float(np.std(path.values[:-1])) or 1.0
    test = localtime.TestFunction.gaussian(centre, 0.5 * spread)
    residual = localtime.occupation_formula_check(path, est, test)
    occ_report = analysis.CheckReport(
        "localtime_occupation_residual",
        {"t": t, "bins": bins, "test_center": centre, "test_width": 0.5 * spread},
        residual, threshold)
    lines = ["x,L"]
    for x, v in zip(est.centers, est.values):
        lines.append("%.17g,%.17g" % (x, v))
    csv_path = os.path.join(out, "localtime.csv")
    files[csv_path] = "\n".join(lines) + "\n"
    files[os.path.join(out, "localtime.json")] = sidecar_json({
        "config": provenance,
        "window": [0.0, t], "bin_width": est.bin_width,
        "path_dt": est.path_dt, "source_path": 0,
    })
    add_report(files, mass_report, out, "mass_identity", provenance, [csv_path])
    add_report(files, occ_report, out, "occupation_residual", provenance,
               [csv_path])
    return mass_report, occ_report


def cmd_localtime(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    seed = resolve_seed(args, cfg)
    out = check_out_dir(args.out, args.force)
    grid = parse_grid(args.grid, spec.horizon)
    on_grid = np.flatnonzero(np.isclose(grid, args.t))
    if not on_grid.size:
        raise CliError("--t must lie on the grid")
    t = float(grid[on_grid[0]])   # the grid point itself, which the histogram needs
    hs = [] if args.m2 is None else parse_floats(args.m2, "m2 window")
    if args.m2 is not None and not hs:
        raise CliError("no m2 width to check")
    if not all(h > 0.0 and t + h <= spec.horizon for h in hs):
        raise CliError("--m2 widths need h > 0 and t + h <= horizon %g"
                       % spec.horizon)
    reports = _localtime_checks(spec, grid, t, args.bins, args.terms, seed,
                                args.residual_threshold, out,
                                {**cfg, "seed": str(seed)}, files)
    for report in reports:
        emit(report)
    ok = all(r.passed for r in reports)
    if hs:
        rows = ["h,m2"]
        for hwin in hs:
            m2 = localtime.local_time_second_moment(spec, t, hwin, args.x)
            rows.append("%.17g,%.17g" % (hwin, m2))
            print("PASS localtime_m2: h=%g m2=%.6g" % (hwin, m2))
        files[os.path.join(out, "m2.csv")] = "\n".join(rows) + "\n"
    return 0 if ok else 1


def cmd_ft_check(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    out = check_out_dir(args.out, args.force)
    u_grid = (parse_floats(args.u, "u grid") if args.u
              else list(analysis.DEFAULT_U_GRID))
    report = analysis.ft_check(args.h, args.t, u_grid, alpha=float(cfg["alpha"]))
    add_report(files, report, out, "ft_check", cfg)
    emit(report)
    return 0 if report.passed else 1


def cmd_holder(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    seed = resolve_seed(args, cfg)
    out = check_out_dir(args.out, args.force)
    grid = parse_grid(args.grid, spec.horizon)
    deltas = parse_floats(args.deltas, "deltas")
    analysis.holder_lags(grid, deltas)
    # tail compensation adds an independent normal per grid point; that white
    # noise is right for marginal laws but ruins path-regularity statistics
    ens = sample_paths(spec, grid, args.paths,
                       LePageConfig(terms=args.terms, seed=seed,
                                    tail_compensation=False))
    report = analysis.holder_slope(ens, deltas, threshold=args.threshold)
    lines = ["path,slope"]
    for j, s in enumerate(report.parameters["slopes"]):
        lines.append("%d,%.17g" % (j, s))
    csv_path = os.path.join(out, "slopes.csv")
    files[csv_path] = "\n".join(lines) + "\n"
    add_report(files, report, out, "holder_slope", {**cfg, "seed": str(seed)},
               [csv_path])
    emit(report)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify-all: the CI entry point, dependency-ordered
# ---------------------------------------------------------------------------

def cmd_verify_all(args, files: Dict[str, str]) -> int:
    cfg = resolve_config(args)
    spec = ProcessSpec.from_config(cfg)
    seed = resolve_seed(args, cfg)
    out = check_out_dir(args.out, args.force)
    qcfg = build_quad_config(cfg)
    provenance = {**cfg, "seed": str(seed)}
    reports: List[analysis.CheckReport] = []

    def record(report: analysis.CheckReport, sub_dir: str, name: str) -> None:
        add_report(files, report, os.path.join(out, sub_dir), name, provenance)
        reports.append(report)

    # 1. series constants against the reflection-formula identity
    c_alpha, sigma = derive_constants(spec.alpha)
    a = spec.alpha.alpha
    # Gamma(1-a) and cos(pi a/2) are both negative on (1,2): positive product
    ident = (math.gamma(1.0 - a) * math.cos(math.pi * a / 2.0)) ** (-1.0 / a)
    record(analysis.CheckReport(
        "constants_identity",
        {"c_alpha": c_alpha, "gauss_sigma": sigma, "identity": ident},
        abs(c_alpha / ident - 1.0), 1e-10), "constants", "constants")

    # 2. exact self-similarity of the norm engine (depends on quad+norms)
    h0 = float(spec.hurst(1.0)) if spec.hurst.form != "const" \
        else spec.hurst.params[0]
    flat = ProcessSpec(alpha=spec.alpha,
                       hurst=HurstFunction("const", (h0,), spec.horizon),
                       kernel=spec.kernel, horizon=spec.horizon)
    ratios = [scale_norm(flat, FddPoint((t,), (1.0,)), qcfg) / t ** h0
              for t in (0.25, 1.0, 4.0) if t <= spec.horizon]
    record(analysis.CheckReport(
        "selfsimilarity", {"h": h0, "ratios": ratios},
        max(ratios) / min(ratios), 1.0 + 10.0 * qcfg.rel_tol),
        "selfsim", "selfsimilarity")

    # 3. appendix FT identity (depends on quad only)
    record(analysis.ft_check(1.5, 1.0, alpha=a), "ft", "ft_check")

    # 4. localizability at one coarse delta (depends on norms)
    record(analysis.localizability_error(flat, 0.5, 0.1, cfg=qcfg,
                                         threshold=4.0 * qcfg.rel_tol),
           "localize", "localizability")

    # 5. LND sanity row (depends on norms + optimizer plumbing)
    record(analysis.lnd_study(flat, 0.5, [2.0 ** -4], 2, cfg=qcfg,
                              floor_value=1.0 - 10.0 * qcfg.rel_tol),
           "lnd", "lnd_study")

    # 6. simulation shape + determinism (depends on lepage)
    grid = np.linspace(0.0, 1.0, 129)
    ens = sample_paths(spec, grid, 100, LePageConfig(terms=400, seed=seed))
    sim_dir = os.path.join(out, "simulate")
    files[os.path.join(sim_dir, "paths.csv")] = lepage.ensemble_to_csv(ens)
    files[os.path.join(sim_dir, "paths.json")] = sidecar_json({
        "config": provenance, "paths": 100, "terms": 400,
        "grid": "0:1:128",
        "truncation_diagnostic": lepage.truncation_diagnostic(spec.alpha, 400),
    })

    # 7. empirical vs exact characteristic function (depends on 6 + norms)
    report, _ = _cf_check(spec, ens, _random_points(grid, 5, seed), qcfg)
    record(report, "cf", "cf_check")

    # 8. local-time mass identity + occupation residual (depends on 6)
    lt_grid = np.linspace(0.0, 1.0, 4097)
    reports.extend(_localtime_checks(spec, lt_grid, 1.0, 64, 400, seed, 0.05,
                                     os.path.join(out, "localtime"), provenance,
                                     files))

    # 9. Hölder slope on a fine uncompensated ensemble (depends on 6); the
    # tail-compensation white noise would flatten the modulus regression
    h_ens = sample_paths(spec, lt_grid, 8,
                         LePageConfig(terms=400, seed=seed,
                                      tail_compensation=False))
    record(analysis.holder_slope(h_ens, [2.0 ** -k for k in range(4, 10)],
                                 threshold=0.2), "holder", "holder_slope")

    for rep in reports:
        emit(rep)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parser and dispatch
# ---------------------------------------------------------------------------

def finite(text: str) -> float:
    """argparse type of a check's threshold or floor, of a level or of a
    tolerance: a finite float, since NaN fails every comparison and an
    infinite bound passes anything."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return value


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
    p.add_argument("--floor", type=finite, default=0.5)
    p.add_argument("--grad-tol", type=finite, default=1e-4)

    p = sub.add_parser("localize", help="localizability error schedule")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--deltas", default="0.1,0.01")
    p.add_argument("--threshold", type=finite, default=0.05)

    p = sub.add_parser("localtime", help="occupation histogram checks")
    _add_common(p)
    p.add_argument("--grid", default="0:1:4096")
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--x", type=finite, default=0.0)
    p.add_argument("--m2", default=None,
                   help="comma list of window widths for the m=2 moment")
    p.add_argument("--residual-threshold", type=finite, default=0.05)

    p = sub.add_parser("ft-check", help="appendix Fourier-transform identity")
    _add_common(p)
    p.add_argument("--h", type=finite, required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--u", default=None, help="comma-separated u grid")

    p = sub.add_parser("holder", help="Hölder slope of sampled paths")
    _add_common(p)
    p.add_argument("--grid", default="0:1:4096")
    p.add_argument("--paths", type=int, default=20)
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--deltas", default="0.0625,0.03125,0.015625,0.0078125,"
                                       "0.00390625,0.001953125")
    p.add_argument("--threshold", type=finite, default=0.1)

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
COMMANDS = tuple(_DISPATCH)


def run(argv: Sequence[str]) -> int:
    """Run one command; write its files only if it returned 0 or 1."""
    parser = build_parser()
    files: Dict[str, str] = {}
    try:
        args = parser.parse_args(list(argv))
        if not getattr(args, "command", None):
            raise CliError("expected one of: %s" % ", ".join(COMMANDS))
        code = _DISPATCH[args.command](args, files)
    except (CliError, QuadratureError, OptimizerError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path, text in files.items():
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
