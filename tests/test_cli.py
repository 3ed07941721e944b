import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktrade
from blocktrade import cli
from blocktrade.cli import main, read_trajectory_csv, write_paths_csv, write_trajectory_csv
from blocktrade.config import _SCHEMA, ConfigError, parse_config
from blocktrade.montecarlo import SimulationConfig
from blocktrade.objective import eval_I
from blocktrade.solver import Grid, SolveOptions, Trajectory, newton_solve
from conftest import REFERENCE_CONFIG


def set_keys(text, values):
    """``text`` with each key of ``values`` set to its value: its line dropped and a new one appended."""
    kept = [line for line in text.splitlines() if line.split(" = ")[0] not in values]
    return "\n".join(kept + [f"{key} = {value}" for key, value in values.items()]) + "\n"


with open(REFERENCE_CONFIG) as fh:  # the reference stock, with a small simulation and grid
    BASE_CONFIG = set_keys(fh.read(), {"mc.n_paths": 5000, "grid.n_t": 5, "grid.n_q": 5})


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def test_parse_reference_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.problem.q0 == 500000
    assert cfg.problem.market.gamma == 1e-6
    assert cfg.solve.n_steps == 1000
    assert cfg.q_list == (250000.0, 500000.0, 1000000.0)


def test_missing_sigma_names_the_field(tmp_path):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith("market.sigma"))
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(write_config(tmp_path, text))


def test_negative_inventory_rejected(tmp_path):
    text = BASE_CONFIG.replace("problem.q0 = 500000", "problem.q0 = -5")
    with pytest.raises(ConfigError, match="problem.q0"):
        parse_config(write_config(tmp_path, text))


def test_unknown_and_duplicate_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_config(tmp_path, BASE_CONFIG + "cost.etaa = 1\n"))
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(write_config(tmp_path, BASE_CONFIG + "cost.eta = 0.02\n"))


def test_parse_error_reports_line_number(tmp_path):
    with pytest.raises(ConfigError, match=":3:"):
        parse_config(write_config(tmp_path, "problem.q0 = 1\nproblem.horizon = 1\nnot a pair\n"))


def test_missing_file_is_an_error():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.cfg")


def test_volume_csv_config(tmp_path):
    (tmp_path / "vol.csv").write_text("time,volume\n0,4000000\n1.5,6000000\n")
    text = BASE_CONFIG.replace(
        "volume.type = constant\nvolume.rate = 5000000",
        "volume.type = csv\nvolume.path = vol.csv",
    )
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.problem.volume(0.75) == pytest.approx(5e6)


def test_solve_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    traj = read_trajectory_csv(str(out / "trajectory.csv"))
    problem = parse_config(cfg_path).problem
    rescored = eval_I(problem, traj, psi=problem.market.psi)
    assert rescored == pytest.approx(summary["objective"], rel=1e-9)
    assert eval_I(problem, traj, psi=0.0) == pytest.approx(
        summary["objective_linear_free"], rel=1e-9
    )
    assert summary["max_residual"] <= 1e-10 * problem.q0
    assert len(summary["history"]) == summary["iterations"]
    assert summary["history"][-1] == summary["max_residual"]
    assert summary["no_descent"] == 0
    assert summary["steps"] == [1.0] * summary["iterations"]  # no step was halved


def test_n_steps_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "solve", "--config", cfg_path, "--out-dir", str(out), "--n-steps", "250"
    )
    assert code == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["n_steps"] == 250


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG + "mc.dump_paths = true\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _ = run_cli(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out))
        assert code == 0
        outs.append([(out / file).read_bytes() for file in ("simulation.json", "paths.csv")])
    assert outs[0] == outs[1]
    solves = []
    for name in ("c", "d"):
        out = tmp_path / name
        run_cli(capsys, "solve", "--config", cfg_path, "--out-dir", str(out))
        solves.append((out / "trajectory.csv").read_bytes())
    assert solves[0] == solves[1]


def test_trading_curves_ordered_by_risk_aversion(tmp_path, capsys):
    curves = {}
    for gamma in ("5e-7", "1e-6", "2e-6"):
        text = BASE_CONFIG.replace("market.gamma = 1e-6", f"market.gamma = {gamma}")
        cfg_path = write_config(tmp_path, text, name=f"run_{gamma}.cfg")
        out = tmp_path / f"out_{gamma}"
        code, _ = run_cli(
            capsys, "solve", "--config", cfg_path, "--out-dir", str(out), "--n-steps", "400"
        )
        assert code == 0
        curves[gamma] = read_trajectory_csv(str(out / "trajectory.csv")).q
    # higher risk aversion liquidates faster: its curve lies below
    assert np.all(curves["2e-6"] <= curves["1e-6"] + 1e-6)
    assert np.all(curves["1e-6"] <= curves["5e-7"] + 1e-6)
    assert curves["2e-6"][200] < curves["5e-7"][200]


def test_decompose_table(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "decompose", "--config", cfg_path, "--out-dir", str(out), "--n-steps", "500"
    )
    assert code == 0
    with open(out / "decomposition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["q"]) for r in rows] == [250000.0, 500000.0, 1000000.0]
    table = {float(r["q"]): r for r in rows}
    assert float(table[250000.0]["pmi"]) == pytest.approx(7187.0, rel=0.01)
    assert float(table[250000.0]["necpr_inf"]) == pytest.approx(2003.0, rel=0.01)
    assert float(table[500000.0]["lec"]) == pytest.approx(2000.0, rel=1e-12)
    assert float(table[1000000.0]["pmi"]) == pytest.approx(81316.0, rel=0.01)
    assert float(table[1000000.0]["necpr_inf"]) == pytest.approx(23881.0, rel=0.01)
    for row in rows:
        assert float(row["necpr_T"]) >= float(row["necpr_inf"]) - 1e-9


def test_price_zero_block_exits_cleanly(tmp_path, capsys):
    text = BASE_CONFIG.replace("problem.q0 = 500000", "problem.q0 = 0")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "price", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    payload = json.loads((out / "price.json").read_text())
    assert payload["price_T"] == 0.0
    assert payload["mtm"] == 0.0


def test_price_with_horizon_sweep(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys,
        "price", "--config", cfg_path, "--out-dir", str(out),
        "--n-steps", "400", "--horizons", "0.5,1.0",
    )
    assert code == 0
    payload = json.loads((out / "price.json").read_text())
    sweep = payload["necpr_by_horizon"]
    assert [s["horizon"] for s in sweep] == [0.5, 1.0]
    assert sweep[0]["necpr"] >= sweep[1]["necpr"]


def test_implied_gamma_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "implied-gamma", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    payload = json.loads((out / "implied_gamma.json").read_text())
    assert payload["gamma"] == pytest.approx(1e-6, rel=0.02)


def test_grid_command_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "grid", "--config", cfg_path, "--out-dir", str(out), "--n-steps", "300"
    )
    assert code == 0
    with open(out / "value_grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) == 6  # header + 5 time nodes
    assert len(rows[0]) == 6  # t column + 5 inventory nodes
    assert float(rows[1][1]) == 0.0  # theta(0, 0) = 0
    report = json.loads((out / "hj_report.json").read_text())
    assert report["structure_ok"] is True
    assert report["hj_max_normalized"] > 0


def test_simulate_command_reports_both_moments(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    payload = json.loads((out / "simulation.json").read_text())
    z = abs(payload["empirical"]["mean"] - payload["analytic"]["mean"])
    assert z < 4.0 * payload["empirical"]["se_mean"]
    assert payload["n_paths"] == 5000


def test_dump_paths_flagged_in_config(tmp_path, capsys):
    text = BASE_CONFIG + "mc.dump_paths = true\nmc.n_paths = 50\n"
    text = text.replace("mc.n_paths = 5000\n", "")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    with open(out / "paths.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "wealth"]
    assert len(rows) == 51


def test_failure_emits_error_json(tmp_path, capsys):
    code, payload = run_cli(capsys, "price", "--config", str(tmp_path / "absent.cfg"))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    text = BASE_CONFIG + "bogus.key = 1\n"
    code, payload = run_cli(capsys, "solve", "--config", write_config(tmp_path, text, "bad.cfg"))
    assert code == 1
    assert "unknown key" in payload["error"]["message"]


def test_implied_gamma_needs_quote(tmp_path, capsys):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if "quoted_premium" not in l)
    code, payload = run_cli(capsys, "implied-gamma", "--config", write_config(tmp_path, text))
    assert code == 1
    assert "quoted_premium" in payload["error"]["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_a_non_finite_quoted_premium_fails_before_any_probe(tmp_path, capsys, monkeypatch, value):
    def no_probe(*args, **kwargs):
        raise AssertionError("a theta_infinity probe ran")

    monkeypatch.setattr("blocktrade.pricing.theta_infinity", no_probe)
    text = set_keys(BASE_CONFIG, {"price.quoted_premium": value})
    assert main(["implied-gamma", "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert "price.quoted_premium" in error["message"]


@pytest.mark.parametrize("key", ["problem.horizon", "market.sigma", "volume.rate", "solve.newton_tol"])
def test_non_finite_input_exits_with_config_error(tmp_path, capsys, key):
    named = {"volume.rate": "volume.positive", "solve.newton_tol": "newton_tol"}.get(key, key)
    text = set_keys(BASE_CONFIG, {key: "inf"})
    out_dir = tmp_path / "out"
    code, payload = run_cli(capsys, "solve", "--config", write_config(tmp_path, text), "--out-dir", str(out_dir))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert named in payload["error"]["message"]
    assert not out_dir.exists()


def test_json_artifacts_refuse_nan(tmp_path):
    from blocktrade.cli import _write_json

    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "bad.json"), {"objective": float("nan")})


def test_simulation_json_reports_its_verdict(tmp_path, capsys):
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path), "--out-dir", str(out))
    assert code == 0
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["seed_scheme"] == 4
    empirical, analytic, euler = payload["empirical"], payload["analytic"], payload["euler"]
    assert payload["z_mean"] == (empirical["mean"] - analytic["mean"]) / empirical["se_mean"]
    assert payload["variance_ratio"] == empirical["variance"] / analytic["variance"]
    assert abs(payload["z_mean"]) < 4.0
    assert abs(empirical["mean"] - euler["mean"]) < 4.0 * empirical["se_mean"]
    assert euler["variance"] > 0

    # one path has no standard error, so no z-score; the artifact stays strict JSON
    text = BASE_CONFIG.replace("mc.n_paths = 5000", "mc.n_paths = 1")
    code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text, "one.cfg"), "--out-dir", str(out))
    assert code == 0
    assert json.loads((out / "simulation.json").read_text())["z_mean"] is None


def test_simulation_json_reports_the_euler_gap_and_its_order(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path), "--out-dir", str(out))
    assert code == 0
    payload = json.loads((out / "simulation.json").read_text())
    gap = payload["euler_gap"]
    assert gap["n_substeps"] == [4, 8]
    for name in ("mean", "variance"):
        assert gap[name]["at_n_substeps"] == payload["euler"][name] - payload["analytic"][name]
        assert gap[name]["ratio"] == gap[name]["at_n_substeps"] / gap[name]["at_2n_substeps"]
        assert 1.9 <= gap[name]["ratio"] <= 2.1  # the scheme is first order

    # a finer scheme past the step bound is not built: no gap, and the simulation still runs
    monkeypatch.setattr(cli, "MAX_EULER_STEPS", 1000 * 4)
    code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path), "--out-dir", str(out))
    assert code == 0
    assert json.loads((out / "simulation.json").read_text())["euler_gap"] is None


def test_negative_seed_is_rejected_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("blocktrade.cli.newton_solve", no_solve)
    cfg_path = write_config(tmp_path)
    code, payload = run_cli(capsys, "simulate", "--config", cfg_path, "--seed", "-1")
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert "seed must be non-negative" in payload["error"]["message"]

    text = set_keys(BASE_CONFIG, {"mc.seed": -1})
    code, payload = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text, "neg.cfg"))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert "seed must be non-negative" in payload["error"]["message"]


@pytest.fixture
def no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    for target in ("blocktrade.cli.newton_solve", "blocktrade.pricing.newton_solve"):
        monkeypatch.setattr(target, no_solve)


@pytest.mark.parametrize(
    "flag, key",
    [
        ("--n-steps=abc", "solve.n_steps"),
        ("--n-steps=2.5", "solve.n_steps"),
        ("--q-list=,", "price.q_list"),
        ("--horizons=0.5,x", "price.horizons"),
    ],
)
def test_override_flags_are_parsed_like_config_keys(tmp_path, capsys, no_solve, flag, key):
    code, payload = run_cli(capsys, "decompose", "--config", write_config(tmp_path), flag)
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert f"bad value for {key!r}" in payload["error"]["message"]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("decompose", "price.q_list", "250000, -5e5"),
        ("decompose", "price.q_list", "nan"),
        ("price", "price.horizons", "0.5, inf"),
        ("price", "price.horizons", "0"),
    ],
)
def test_sweep_entries_are_checked_before_any_solve(tmp_path, capsys, no_solve, command, key, value):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(key + " "))
    in_file = ["--config", write_config(tmp_path, text + f"\n{key} = {value}\n", "sweep.cfg")]
    flag = "--" + key.split(".")[1].replace("_", "-")
    as_flag = ["--config", write_config(tmp_path), f"{flag}={value}"]
    for argv in (in_file, as_flag):
        code, payload = run_cli(capsys, command, *argv)
        assert code == 1
        assert payload["error"]["type"] == "ConfigError"
        assert key in payload["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "--config", REFERENCE_CONFIG, "--q-list", "-5e5"], "--q-list: expected one argument"),
        (["decompose"], "required: --config"),
        ([], "required: command"),
    ],
)
def test_argument_errors_answer_with_the_error_json(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ConfigError"
    assert message in error["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: blocktrade")


def test_overrides_replace_the_file_value_and_absent_knobs_keep_their_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path), [("mc.seed", "7"), ("price.q_list", "1e5, 2e5")])
    assert cfg.mc.seed == 7 and cfg.q_list == (1e5, 2e5)
    with pytest.raises(ConfigError, match="unknown key 'mc.sed'"):
        parse_config(write_config(tmp_path), [("mc.sed", "7")])
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(("solve.", "mc.")))
    cfg = parse_config(write_config(tmp_path, text, "bare.cfg"))
    assert cfg.solve == SolveOptions() and cfg.mc == SimulationConfig()


def test_readme_documents_exactly_the_schema_and_the_flags():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("### Config schema")[1].split("\n###")[0]
    first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
    assert sorted(re.findall(r"`([a-z]+\.[a-z0-9_]+)`", " ".join(first_cells))) == sorted(_SCHEMA)
    flags = readme.split("Flags (all commands):")[1].split("\n\n")[0]
    assert dict(re.findall(r"`(--[a-z-]+)`\s+\(overrides\s+`([a-z_.]+)`", flags)) == cli._FLAGS
    assert set(re.findall(r"`(--[a-z-]+)`", flags)) == {"--config", "--out-dir", *cli._FLAGS}


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(blocktrade.__file__))
    # no command runs on a thread pool, so starting the CLI loads none
    code = "import sys, blocktrade.cli; sys.exit(bool({'scipy.integrate', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_and_a_reference_solve_leave_scipy_linalg_unloaded():
    src = os.path.dirname(os.path.dirname(blocktrade.__file__))
    code = (
        "import sys, blocktrade.cli\n"
        "from blocktrade.config import parse_config\n"
        "from blocktrade.solver import newton_solve\n"
        f"cfg = parse_config({REFERENCE_CONFIG!r})\n"
        "newton_solve(cfg.problem, cfg.solve)\n"
        "sys.exit('scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_grid_on_the_reference_config_leaves_scipy_linalg_unloaded(tmp_path):
    # the blocks take dgtsv, loaded from scipy's LAPACK extension alone
    src = os.path.dirname(os.path.dirname(blocktrade.__file__))
    code = (
        "import sys, blocktrade.cli\n"
        f"code = blocktrade.cli.main(['grid', '--config', {REFERENCE_CONFIG!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "sys.exit(code or 'scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL).returncode == 0
    assert (tmp_path / "value_grid.csv").exists()


def test_grid_report_counts_iterations_and_failed_cells(tmp_path, capsys):
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "grid", "--config", write_config(tmp_path), "--out-dir", str(out), "--n-steps", "300")
    assert code == 0
    report = json.loads((out / "hj_report.json").read_text())
    assert report["failed_cells"] == 0
    iterations = report["newton_iterations"]
    assert 1 <= iterations["max"] <= 50 and iterations["max"] < iterations["total"] <= 20 * 50
    # each cell converged to its own tolerance, 1e-10 times its inventory
    assert 0.0 < report["newton_residual"]["max"] <= 1e-10 * 500000

    # one Newton step to 1e-6 shares is too few for every cell (from the matched start,
    # four cells converge within one at the default tolerance): the run writes both artifacts, then fails
    text = BASE_CONFIG + "solve.max_iter = 1\nsolve.newton_tol = 1e-6\n"
    out = tmp_path / "failed"
    code, payload = run_cli(capsys, "grid", "--config", write_config(tmp_path, text, "one.cfg"), "--out-dir", str(out), "--n-steps", "300")
    assert code == 1
    assert payload["error"]["type"] == "FailedCellsError"
    assert payload["error"]["message"].startswith("20 of 20 grid cells to solve did not converge")
    assert (out / "value_grid.csv").exists()
    report = json.loads((out / "hj_report.json").read_text())
    assert report["failed_cells"] == 20  # 5 x 5 nodes less the zero-inventory column
    assert report["newton_iterations"] == {"total": 20, "max": 1}
    assert report["newton_residual"] == {"max": None}  # no solved cell converged
    assert report["hj_max_normalized"] is None and report["structure_ok"] is None


def _fmt(x):
    return format(float(x), ".17g")


def _trajectory_table(path):
    traj = Trajectory(
        grid=Grid(n_steps=3, t_start=0.0, t_end=0.75),
        q=np.array([3e5, 2e5, 1e5 / 3, 0.0]),
        p=np.array([-1e-3, -2.5e-3, -1e-300, 0.1]),
        v=np.array([4e5, 4e5 / 3, 4e5 / 9]),
    )
    write_trajectory_csv(path, traj)
    t, q, v, p = traj.grid.times, traj.q, traj.v, traj.p
    rows = [[_fmt(t[j]), _fmt(q[j]), _fmt(v[j - 1]) if j else "", _fmt(p[j])] for j in range(4)]
    assert rows[0][2] == ""  # no cell ends at t = 0
    return ["t", "q", "v", "p"], rows


def _value_grid_table(path):
    header = ["t", *map(_fmt, [0.0, 2.5e5, 5e5])]
    values = {0.0: [0.0, 1234.5, np.nan], 0.45: [0.0, 2.0 / 3.0, 5e20]}
    rows = [[_fmt(t), *map(_fmt, row)] for t, row in values.items()]
    assert rows[0][3] == "nan"  # a failed cell
    cli._write_csv(path, header, iter(rows))
    return header, rows


def _decomposition_table(path):
    header = ["q", "pmi", "lec", "necpr_inf", "necpr_T", "premium_bp"]
    rows = [[_fmt(5e5), _fmt(7187.25), _fmt(2000.0), "", _fmt(6922.6), _fmt(80.5)]]  # a CSV volume has no necpr_inf
    cli._write_csv(path, header, iter(rows))
    return header, rows


PATH_SAMPLES = np.array([-1.5e7, 0.1, 1e-300, 2.0 / 3.0, -0.0, 123456789.125, 5e20, -7.0, 1.0, 3.3])


def _paths_table(path):
    write_paths_csv(path, PATH_SAMPLES)  # ten samples in blocks of 4 cross two block boundaries
    return ["path", "wealth"], [[i, _fmt(x)] for i, x in enumerate(PATH_SAMPLES)]


@pytest.mark.parametrize(
    "table",
    [_trajectory_table, _value_grid_table, _decomposition_table, _paths_table],
    ids=["trajectory", "value_grid", "decomposition", "paths"],
)
def test_csv_artifacts_are_the_csv_writer_output(tmp_path, monkeypatch, table):
    monkeypatch.setattr(cli, "PATHS_BLOCK", 4)
    written = tmp_path / "written.csv"
    header, rows = table(str(written))
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert written.read_bytes() == expected.read_bytes()


def test_grid_t_max_alone_sets_the_last_time_node(tmp_path, capsys, monkeypatch):
    with pytest.raises(ConfigError, match="unknown key 'grid.epsilon'"):
        parse_config(write_config(tmp_path, BASE_CONFIG + "grid.epsilon = 0.05\n"))
    # t_max alone sets the margin: 0.97 T lies past the default one of 0.05 T
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, {"grid.t_max": 0.97})
    code, _ = run_cli(capsys, "grid", "--config", write_config(tmp_path, text), "--out-dir", str(out), "--n-steps", "300")
    assert code == 0
    with open(out / "value_grid.csv", newline="") as fh:
        assert float(list(csv.reader(fh))[-1][0]) == 0.97

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("blocktrade.value_function._solve_batch", no_solve)
    text = set_keys(BASE_CONFIG, {"grid.t_max": 0.995})
    code, payload = run_cli(capsys, "grid", "--config", write_config(tmp_path, text, "late.cfg"), "--out-dir", str(out))
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "safety margin must be at least 1% of the horizon" in payload["error"]["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_grid_t_max_fails_before_any_solve(tmp_path, capsys, monkeypatch, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("blocktrade.value_function._solve_batch", no_solve)
    text = set_keys(BASE_CONFIG, {"grid.t_max": value})
    code, payload = run_cli(capsys, "grid", "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert "grid.t_max must be finite" in payload["error"]["message"]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "at least 3 data rows, got 0"),
        (["0,1,,0", "0.5,0.5,1,0.1"], "at least 3 data rows, got 2"),
        (["0,1,,0", "0.5,nan,1,0.1", "1,0,1,0.2"], "must be finite"),
        (["0,1,,0", "0.5,0.5,inf,0.1", "1,0,1,0.2"], "must be finite"),
        (["0,1,,0", "0.5,0.5,1,0.1", "1,0,1,-inf"], "must be finite"),
        (["0,1,,0", "nan,0.5,1,0.1", "1,0,1,0.2"], "must be finite"),
        (["0,1,,0", "0.5,0.5,7,0.1", "1,0,1,0.2"], "v on data row 1 is 7.0, but its q-step implies 1.0"),
    ],
    ids=["header_only", "two_rows", "nan_q", "inf_v", "inf_p", "nan_t", "v_not_q"],
)
def test_read_trajectory_csv_rejects_a_short_or_non_finite_table(tmp_path, rows, message):
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(["t,q,v,p", *rows]) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        read_trajectory_csv(str(path))
    assert str(path) in str(err.value)


def test_a_written_reference_trajectory_reads_back_bit_for_bit(tmp_path, reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=1000))
    write_trajectory_csv(str(tmp_path / "trajectory.csv"), traj)
    back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert back.grid == traj.grid
    for name in ("q", "v", "p"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))


def test_paths_csv_makes_python_floats_a_block_at_a_time(tmp_path):
    # four blocks: the writer peaks at 1.6 MB, but 6.4 MB if it makes every sample a Python float at once
    samples = np.linspace(-1e7, 1e7, 4 * cli.PATHS_BLOCK)
    tracemalloc.start()
    try:
        write_paths_csv(str(tmp_path / "paths.csv"), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize(
    "line, key",
    [("grid.n_t = 1001", "grid.n_t"), ("grid.n_q = 2", "grid.n_q"), ("solve.n_steps = 1000001", "n_steps")],
)
def test_size_bounds_are_config_errors(tmp_path, line, key):
    name = line.split(" =")[0]
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(name + " ")) + f"\n{line}\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(write_config(tmp_path, text))


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


CONFIG_KEYS = [line.split(" = ")[0] for line in BASE_CONFIG.splitlines() if " = " in line]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(list(cli._DISPATCH)),
    where=st.sampled_from(list(cli._FLAGS) + CONFIG_KEYS),
    text=st.one_of(
        st.text(),
        st.text().map(lambda s: "-" + s),  # argparse reads these as options
        st.floats().map(str),
        st.integers().map(str),
    ),
)
def test_any_flag_or_config_value_answers_in_one_json_line(command, where, text):
    # the commands return at once: this is about the input path alone
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for name in cli._DISPATCH:
            patch.setitem(cli._DISPATCH, name, lambda cfg, out_dir: {})
        argv = [command, "--out-dir", tmp]
        config = BASE_CONFIG
        if where in cli._FLAGS:
            argv += [where, text]
        else:
            config = "".join(
                f"{where} = {text}\n" if line.startswith(where + " = ") else line + "\n"
                for line in BASE_CONFIG.splitlines()
            )
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", path])
    assert code in (0, 1)
    lines = out.getvalue().split("\n")
    assert len(lines) == 2 and lines[1] == ""  # exactly one line
    payload = json.loads(lines[0], parse_constant=_reject_constant)
    assert list(payload) == (["artifacts"] if code == 0 else ["error"])
    assert "Traceback" not in err.getvalue()

