import argparse
import json
import math
import os

import numpy as np
import pytest

from rhmsp import cli, norms
from rhmsp.cli import CliError, load_config, parse_floats, parse_grid, run
from rhmsp.lepage import LePageConfig, sample_paths
from rhmsp.norms import FddPoint
from rhmsp.quad import QuadratureConfig, QuadratureError

from conftest import make_spec


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_parse_grid():
    g = parse_grid("0:1:4", 4.0)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_grid("0:4:2", 4.0)[-1] == 4.0
    for bad in ("0:1", "0:1:4:2", "a:1:4", "1:0:4", "0:1:0", "0:4.5:3"):
        with pytest.raises(CliError):
            parse_grid(bad, 4.0)


def test_parse_floats():
    assert parse_floats("1,2.5,-3", "x") == [1.0, 2.5, -3.0]
    with pytest.raises(CliError):
        parse_floats("1,zap", "x")


def test_load_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("alpha = 1.8   # stability\n\n# comment only\nhurst=const:0.6\n")
    assert load_config(str(p)) == {"alpha": "1.8", "hurst": "const:0.6"}
    p.write_text("alpha 1.8\n")
    with pytest.raises(CliError) as err:
        load_config(str(p))
    assert ":1:" in str(err.value)        # line number in the message
    with pytest.raises(CliError):
        load_config(str(tmp_path / "missing.cfg"))


def test_seed_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("seed=7\n")

    class A:
        spec = str(cfgfile)
        set = None
        seed = None

    monkeypatch.setenv("RHMSP_SEED", "13")
    assert cli.resolve_seed(A(), cli.resolve_config(A())) == 7   # config wins env
    a = A()
    a.seed = 3
    assert cli.resolve_seed(a, cli.resolve_config(a)) == 3       # flag wins all
    b = A()
    b.spec = None
    assert cli.resolve_seed(b, cli.resolve_config(b)) == 13      # env fallback
    monkeypatch.delenv("RHMSP_SEED")
    assert cli.resolve_seed(b, cli.resolve_config(b)) == 42      # default


def test_set_overrides(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("alpha=1.8\n")

    class A:
        spec = str(cfgfile)
        set = ["alpha=1.2", "hurst=const:0.4"]

    cfg = cli.resolve_config(A())
    assert cfg["alpha"] == "1.2" and cfg["hurst"] == "const:0.4"
    A.set = ["nonsense"]
    with pytest.raises(CliError):
        cli.resolve_config(A())


# ---------------------------------------------------------------------------
# exit codes and artifact contracts
# ---------------------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_command_exits_2(capsys):
    assert run([]) == 2


def test_simulate_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["simulate", "--grid", "0:1:8", "--paths", "3",
                "--terms", "120", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,path_0,path_1,path_2"
    assert len(lines) == 10
    meta = json.loads((tmp_path / "p.json").read_text())
    assert meta["config"]["alpha"] == "1.5"
    assert meta["config"]["seed"] == "5"
    assert meta["per_path_seeds"] == [[5, 0], [5, 1], [5, 2]]


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--grid", "0:1:8", "--paths", "2", "--terms", "120",
            "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_overwrite_guard(tmp_path, capsys):
    out = tmp_path / "p.csv"
    out.write_text("precious\n")
    args = ["simulate", "--grid", "0:1:8", "--paths", "1", "--terms", "120",
            "--out", str(out)]
    assert run(args) == 2
    assert out.read_text() == "precious\n"         # no partial artifacts
    assert run(args + ["--force"]) == 0


def test_out_dir_guard(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    (out / "old.txt").write_text("x")
    args = ["ft-check", "--h", "1.5", "--t", "1", "--u", "0.25",
            "--out", str(out)]
    assert run(args) == 2
    assert run(args + ["--force"]) == 0


def test_ft_check_report(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["ft-check", "--h", "1.5", "--t", "1", "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    rep = json.loads((out / "ft_check.json").read_text())
    assert rep["pass"] is True
    assert rep["metric"] <= 1e-4
    assert rep["parameters"]["config"]["alpha"] == "1.5"


def test_norm_command(capsys):
    assert run(["norm", "--times", "1", "--coeffs", "1"]) == 0
    out = capsys.readouterr().out
    assert "scale_norm" in out
    val = float(out.split("scale_norm=")[1].split()[0])
    assert val == pytest.approx(3.74985, rel=1e-4)


def test_lnd_n2_command(tmp_path, capsys):
    out = tmp_path / "lnd"
    assert run(["lnd", "--n", "2", "--spacings", "0.0625", "--floor", "0.999",
                "--set", "rel_tol=1e-5", "--out", str(out)]) == 0
    rep = json.loads((out / "lnd_study.json").read_text())
    assert rep["metric"] == 1.0


def test_check_failure_exits_1(tmp_path, capsys):
    # an impossible floor makes the n=2 LND check fail cleanly
    out = tmp_path / "lnd"
    assert run(["lnd", "--n", "2", "--spacings", "0.0625", "--floor", "1.5",
                "--set", "rel_tol=1e-5", "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bad_config_value_exits_2(tmp_path, capsys):
    assert run(["norm", "--times", "1", "--coeffs", "1",
                "--set", "alpha=3.0"]) == 2


def test_lnd_bad_center_exits_2(tmp_path, capsys):
    assert run(["lnd", "--center", "-1", "--out", str(tmp_path / "lnd")]) == 2
    assert capsys.readouterr().err.startswith("error: center must be positive")


def test_simulate_grid_past_horizon_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["simulate", "--grid", "0:9:3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: grid leaves the horizon")
    assert not out.exists()


def test_localize_past_horizon_exits_2(tmp_path, capsys):
    assert run(["localize", "--t", "3.99", "--deltas", "0.1",
                "--out", str(tmp_path / "loc")]) == 2
    assert capsys.readouterr().err.startswith("error: t + delta")


def test_localtime_snaps_t_to_grid(tmp_path, capsys):
    out = tmp_path / "lt"
    assert run(["localtime", "--grid", "0:1:3", "--t", "0.3333333",
                "--terms", "120", "--out", str(out)]) == 0
    rep = json.loads((out / "mass_identity.json").read_text())
    assert rep["parameters"]["t"] == 1.0 / 3.0
    assert rep["pass"] is True


@pytest.mark.parametrize("argv, message", [
    (["lnd", "--center", "-1"], "error: center must be positive"),
    (["localize", "--t", "3.99", "--deltas", "0.1"], "error: t + delta"),
    (["localize", "--t", "0.5", "--deltas", "0.1,3.6"], "error: t + delta"),
    (["cf-check", "--grid", "0:9:3"], "error: grid leaves the horizon"),
    (["localtime", "--grid", "0:1:4", "--t", "0.6"], "error: --t must lie on the grid"),
    (["ft-check", "--h", "1.5", "--t", "-1"], "error: t must be positive"),
    (["holder", "--grid", "0:9:3"], "error: grid leaves the horizon"),
    (["norm", "--times", "5", "--coeffs", "1"], "error: time 5 outside horizon"),
    # the m2 widths are checked before the histogram writes anything
    (["localtime", "--grid", "0:1:4", "--m2", "0"], "error: --m2 widths need h > 0"),
    (["localtime", "--grid", "0:1:4", "--m2", "5"], "error: --m2 widths need h > 0"),
    (["localtime", "--grid", "0:1:4", "--m2", "abc"], "error: bad m2 window list: 'abc'"),
    # the grid-level checks of the path statistics reject these before sampling
    (["holder", "--deltas", "0.5"], "error: need at least 4 deltas"),
    # the default deltas reach 2^-9, finer than the grid step 1/64
    (["holder", "--grid", "0:1:64"], "error: delta 0.00195312 not a usable multiple"),
    (["localtime", "--bins", "5"], "error: binCount must be >= 10"),
    # one path has a NaN standard error, and no point checks nothing
    (["cf-check", "--paths", "1"], "error: --paths must be at least 2"),
    (["cf-check", "--points", "0"], "error: --points must be at least 1"),
    # u = t is skipped in the direct branch, so nothing would be checked
    (["ft-check", "--h", "1.5", "--t", "1", "--u", "1"], "error: no u to check"),
    (["ft-check", "--h", "0.8", "--t", "1", "--u", ","], "error: no u to check"),
    # NaN fails every comparison and an infinite bound passes anything
    (["localize", "--threshold", "nan"], "error: argument --threshold: must be finite"),
    (["holder", "--threshold", "inf"], "error: argument --threshold: must be finite"),
    (["lnd", "--floor=-inf"], "error: argument --floor: must be finite"),
    (["localtime", "--residual-threshold", "nan"],
     "error: argument --residual-threshold: must be finite"),
    (["localtime", "--m2", "0.05", "--x", "nan"], "error: argument --x: must be finite"),
    # an empty list would check nothing and pass
    (["localize", "--deltas", ""], "error: no delta to check"),
    (["lnd", "--spacings", ""], "error: need at least one spacing"),
    (["localtime", "--grid", "0:1:4", "--m2", ","], "error: no m2 width to check"),
    # the path CSV would be overwritten by its sidecar, results.json
    (["simulate"], "error: --out"),
    # an infinite t or u has no panel count, and a NaN u drops out of the max
    (["ft-check", "--h", "1.5", "--t", "inf"], "error: argument --t: must be finite"),
    (["ft-check", "--h", "1.5", "--t", "nan"], "error: argument --t: must be finite"),
    (["ft-check", "--h", "nan", "--t", "1"], "error: argument --h: must be finite"),
    (["ft-check", "--h", "1.5", "--t", "1", "--u", "inf"], "error: u must be finite"),
    (["ft-check", "--h", "0.8", "--t", "1", "--u", "nan"], "error: u must be finite"),
    # a grad_tol below the gradient's own quadrature error: BFGS ends above
    # it, and the optimizer raises
    (["lnd", "--n", "4", "--center", "0.5", "--spacings", "0.03125", "--grad-tol", "1e-12"],
     "error: LND minimization not stationary"),
    # an infinite grad_tol would stop BFGS at its start point and pass
    (["lnd", "--n", "3", "--grad-tol", "inf"], "error: argument --grad-tol: must be finite"),
])
def test_rejected_command_leaves_no_out_dir(tmp_path, capsys, monkeypatch,
                                           argv, message):
    # and samples no path: every rejection comes before sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_paths reached")

    monkeypatch.setattr(cli, "sample_paths", no_sampling)
    out = tmp_path / ("results.json" if argv[0] == "simulate" else "results")
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def _float_options():
    """(argv, option) for every option of `cli.build_parser` typed float or
    finite, the argv naming its command and "1" for each other required
    option but --out."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    cases = []
    for name, sub in commands.choices.items():
        required = [a.option_strings[0] for a in sub._actions
                    if a.required and a.dest != "out"]
        for action in sub._actions:
            if action.type in (float, cli.finite):
                option = action.option_strings[0]
                argv = [name] + [v for r in required if r != option for v in (r, "1")]
                cases.append(pytest.param(argv, option, id=name + option))
    return cases


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("argv, option", _float_options())
def test_non_finite_float_option_is_rejected(tmp_path, capsys, monkeypatch, argv,
                                             option, value):
    # before any quadrature or sampling, with one error line and no --out
    def no_computation(*args, **kwargs):
        raise AssertionError("computation reached")

    monkeypatch.setattr(cli, "sample_paths", no_computation)
    monkeypatch.setattr(norms, "integrate_even_singular", no_computation)
    out = tmp_path / ("results.json" if argv[0] == "simulate" else "results")
    assert run(argv + ["%s=%s" % (option, value), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, out_name, message", [
    # frequencies 1e9 apart would need 8e9 middle panels
    (["norm", "--times", "1,1.000000001", "--coeffs=-1,1.5"], "results",
     "error: scale_norm quadrature failed"),
    # the tail-variance profile cannot certify its tolerance at this t
    (["simulate", "--grid", "0:0.0058113256844610659:1",
      "--set", "hurst=sine:0.55,0.1,2,0.3", "--paths", "2", "--terms", "200"],
     os.path.join("results", "p.csv"), "error: quadrature did not converge"),
    # H = 0.001 overflows the tail substitution: the value is NaN
    (["norm", "--times", "1", "--coeffs", "1", "--set", "hurst=const:0.001"],
     "results", "error: scale_norm quadrature failed"),
    # H = 0.999 walks the singular head down to where x^{-p} overflows
    (["norm", "--times", "0.5,1", "--coeffs", "1,-1", "--set", "hurst=const:0.999"],
     "results", "error: scale_norm quadrature failed"),
    # a library ValueError after the first sections ran: none is written
    (["verify-all", "--set", "horizon=0.5"], "results",
     "error: t + delta*max(u) leaves the horizon"),
    (["verify-all", "--set", "hurst=const:0.1"], "results",
     "error: tail compensation needs 2*min H + 1 > 2/alpha"),
])
def test_uncertifiable_result_is_one_error_line(tmp_path, capsys, argv, out_name,
                                                message):
    assert run(argv + ["--out", str(tmp_path / out_name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def test_uncertifiable_m2_leaves_no_out_dir(tmp_path, capsys, monkeypatch):
    # the histogram checks ran and passed, but the command exits 2
    def uncertifiable(*args):
        raise QuadratureError("quadrature did not converge")

    monkeypatch.setattr(cli.localtime, "local_time_second_moment", uncertifiable)
    out = tmp_path / "results"
    assert run(["localtime", "--grid", "0:1:64", "--terms", "120", "--m2", "0.05",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: quadrature did not converge\n"
    assert not out.exists()


def test_cf_check_on_a_two_point_grid(tmp_path, capsys):
    # a point may not draw more distinct times than the grid has
    assert run(["cf-check", "--grid", "0:1:2", "--paths", "4", "--terms", "200",
                "--points", "3", "--out", str(tmp_path / "cf")]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_rejected_simulate_leaves_no_parent_dir(tmp_path, capsys):
    out = tmp_path / "results" / "p.csv"
    assert run(["simulate", "--grid", "0:9:3", "--out", str(out)]) == 2
    assert not (tmp_path / "results").exists()


def test_out_dir_created_with_first_artifact(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert run(["ft-check", "--h", "1.5", "--t", "1", "--u", "0.25",
                "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["ft_check.json"]


def test_singular_draw_is_one_error_line(tmp_path, capsys, monkeypatch):
    from rhmsp import lepage
    draw = lepage._draw_series

    def degenerate(*args):
        rng, xi, w = draw(*args)
        xi[1] = 0.0
        return rng, xi, w

    monkeypatch.setattr(lepage, "_draw_series", degenerate)
    out = tmp_path / "p.csv"
    assert run(["simulate", "--grid", "0:1:8", "--paths", "1", "--terms", "120",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: kernel is singular at x = 0\n"
    assert not out.exists()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_all_runs_the_single_command_checks(tmp_path, capsys):
    # verify-all's cf and local-time sections share their code with cf-check
    # and localtime, so the same arguments give the same reports; every
    # report carries the run's provenance
    va = tmp_path / "va"
    assert run(["verify-all", "--seed", "42", "--out", str(va)]) == 0
    assert run(["cf-check", "--grid", "0:1:128", "--paths", "100", "--terms",
                "400", "--points", "5", "--seed", "42",
                "--out", str(tmp_path / "cf")]) == 0
    assert run(["localtime", "--grid", "0:1:4096", "--terms", "400", "--t", "1",
                "--bins", "64", "--seed", "42", "--out", str(tmp_path / "lt")]) == 0
    pairs = [(va / "cf" / "cf_check.json", tmp_path / "cf" / "cf_check.json")]
    pairs += [(va / "localtime" / name, tmp_path / "lt" / name)
              for name in ("mass_identity.json", "occupation_residual.json")]
    for ours, single in pairs:
        a, b = _load(ours), _load(single)
        for key in ("metric", "threshold", "pass", "parameters"):
            assert a[key] == b[key], (ours, key)
    reports = 0
    for root, _, files in os.walk(va):
        for fn in files:
            data = _load(os.path.join(root, fn)) if fn.endswith(".json") else {}
            if "check" in data:
                assert data["parameters"]["config"]["seed"] == "42", fn
                reports += 1
    assert reports == 9


def test_nan_cf_ratio_fails_the_check(monkeypatch):
    # Python's max(0.0, nan) is 0.0: a NaN standard error used to pass
    spec = make_spec()
    grid = np.linspace(0.0, 1.0, 5)
    ens = sample_paths(spec, grid, 2, LePageConfig(terms=100, seed=1))
    points = [FddPoint((0.25,), (1.0,)), FddPoint((0.5,), (1.0,))]
    monkeypatch.setattr(cli.lepage, "empirical_cf",
                        lambda ens, pt: (0.5, math.nan if pt.times == (0.5,) else 0.1))
    report, _ = cli._cf_check(spec, ens, points, QuadratureConfig(rel_tol=1e-6))
    assert math.isnan(report.metric) and not report.passed
