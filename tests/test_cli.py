import json
import os

import numpy as np
import pytest

from rhmsp import cli
from rhmsp.cli import CliError, load_config, parse_floats, parse_grid, run


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_parse_grid():
    g = parse_grid("0:1:4")
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    for bad in ("0:1", "0:1:4:2", "a:1:4", "1:0:4", "0:1:0"):
        with pytest.raises(CliError):
            parse_grid(bad)


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
])
def test_rejected_command_leaves_no_out_dir(tmp_path, capsys, argv, message):
    out = tmp_path / "results"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
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
])
def test_uncertifiable_result_is_one_error_line(tmp_path, capsys, argv, out_name,
                                                message):
    assert run(argv + ["--out", str(tmp_path / out_name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


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
