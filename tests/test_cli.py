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
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocktrade
from blocktrade import cli
from blocktrade.cli import main
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


def read_trajectory(path):
    """The trajectory.csv at ``path`` as a Trajectory, on the grid its t column spans; its v column is checked."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "q", "v", "p"] and rows[0][2] == ""
    t, q, p = (np.array([float(row[i]) for row in rows]) for i in (0, 1, 3))
    traj = Trajectory(grid=Grid(n_steps=len(rows) - 1, t_start=t[0], t_end=t[-1]), q=q, p=p)
    assert np.array_equal(traj.grid.times, t) and np.array_equal(traj.v, [float(row[2]) for row in rows[1:]])
    return traj


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


def test_a_config_path_naming_a_directory_is_a_config_error(tmp_path, capsys):
    # open() on a directory raised IsADirectoryError, which reached the error JSON as such
    code, payload = run_cli(capsys, "solve", "--config", str(tmp_path), "--out-dir", str(tmp_path / "out"))
    assert code == 1 and payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith(f"config file {tmp_path} cannot be read")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(BASE_CONFIG.encode() + b"# caf\xe9\n")
    code, payload = run_cli(capsys, "solve", "--config", str(path), "--out-dir", str(tmp_path / "out"))
    assert code == 1 and payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith(f"config file {path} cannot be read")
    assert "'utf-8' codec can't decode" in payload["error"]["message"]


def test_an_out_dir_that_is_a_file_is_a_config_error_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    code, payload = run_cli(capsys, "solve", "--config", write_config(tmp_path), "--out-dir", str(out))
    assert code == 1 and payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith(f"--out-dir {out} cannot be made a directory")
    assert out.read_text() == "kept\n"


def test_volume_csv_config(tmp_path):
    # past every horizon; a blank row is skipped
    (tmp_path / "vol.csv").write_text("time,volume\n0,4000000\n\n1.5,6000000\n2,6000000\n")
    text = BASE_CONFIG.replace(
        "volume.type = constant\nvolume.rate = 5000000",
        "volume.type = csv\nvolume.path = vol.csv",
    )
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.problem.volume.knots == ((0.0, 4e6), (1.5, 6e6), (2.0, 6e6))
    assert cfg.problem.volume(0.75) == pytest.approx(5e6)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,5000000\n", "need at least two knots"),
        ("0,5000000\n2,5000000,1\n", "vol.csv:3: expected two columns"),
        ("0,5000000\n2,many\n", "vol.csv:3: could not convert string to float: 'many'"),
    ],
    ids=["one_knot", "three_columns", "word"],
)
def test_a_malformed_volume_csv_is_a_config_error(tmp_path, rows, message):
    (tmp_path / "vol.csv").write_text("time,volume\n" + rows)
    text = set_keys(BASE_CONFIG, {"volume.type": "csv", "volume.path": "vol.csv"})
    with pytest.raises(ConfigError, match=f"run.cfg: volume csv: .*{message}"):
        parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "text, value",
    [("no", False), ("false", False), ("0", False), ("True", True), ("yes", True), ("1", True), ("maybe", None)],
)
def test_mc_dump_paths_takes_the_words_of_true_and_false_only(tmp_path, text, value):
    path = write_config(tmp_path, set_keys(BASE_CONFIG, {"mc.dump_paths": text}))
    if value is None:
        with pytest.raises(ConfigError, match="bad value for 'mc.dump_paths': expected a boolean, got 'maybe'"):
            parse_config(path)
    else:
        assert parse_config(path).dump_paths is value


def test_a_horizon_past_the_volume_csv_is_a_config_error(tmp_path, capsys):
    # each price.horizons entry is judged as problem.horizon is: the volume was once held flat past its last knot
    (tmp_path / "vol.csv").write_text("time,volume\n0,5000000\n1,4000000\n")
    text = set_keys(BASE_CONFIG, {"volume.type": "csv", "volume.path": "vol.csv", "price.horizons": "0.5, 2.0"})
    out = tmp_path / "out"
    code, payload = run_cli(capsys, "price", "--config", write_config(tmp_path, text), "--out-dir", str(out))
    assert code == 1 and payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].endswith("price.horizons entries: 2.0 failed checks: volume.covers_horizon")
    assert not (out / "price.json").exists()


def test_solve_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    traj = read_trajectory(out / "trajectory.csv")
    problem = parse_config(cfg_path).problem
    rescored = eval_I(problem, traj, psi=problem.market.psi)
    assert rescored == pytest.approx(summary["objective"], rel=1e-9)
    assert eval_I(problem, traj, psi=0.0) == pytest.approx(
        summary["objective_linear_free"], rel=1e-9
    )
    assert summary["max_residual"] <= 1e-10 * problem.q0
    assert len(summary["history"]) == summary["iterations"]
    assert summary["history"][-1] == summary["max_residual"]
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
        curves[gamma] = read_trajectory(out / "trajectory.csv").q
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


@pytest.mark.parametrize(
    "flags, values, key",
    [
        (["--n-steps", "inf"], {}, "solve.n_steps"),
        ([], {"solve.n_steps": "1e400"}, "solve.n_steps"),
        ([], {"grid.n_t": "inf"}, "grid.n_t"),
    ],
    ids=["flag", "overflowing_key", "infinite_key"],
)
def test_an_infinite_count_is_a_config_error_naming_its_key(tmp_path, capsys, flags, values, key):
    # int(inf) raised an OverflowError, which reached the error JSON as such
    text = set_keys(BASE_CONFIG, values)
    argv = ["solve", "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path), *flags]
    code, payload = run_cli(capsys, *argv)
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert f"bad value for {key!r}: expected an integer" in payload["error"]["message"]


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


def test_run_command_refuses_an_unknown_command_before_writing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="unknown command 'plot'"):
        cli.run_command("plot", parse_config(write_config(tmp_path)), str(out))
    assert not out.exists()


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


def test_the_cli_a_solve_and_grid_leave_scipy_integrate_linalg_and_thread_pools_unloaded(tmp_path):
    # no command runs on a thread pool, so starting the CLI loads none; both integrals take the package's own rule,
    # and a solve's fallback takes dgtsv and the grid's blocks take dptsv, both from scipy's LAPACK extension alone
    src = os.path.dirname(os.path.dirname(blocktrade.__file__))
    code = (
        "import math, sys, blocktrade.cli\n"
        "from dataclasses import replace\n"
        "from blocktrade import CustomCost, CustomImpact, theta_infinity\n"
        "from blocktrade.config import parse_config\n"
        "from blocktrade.solver import newton_solve\n"
        f"cfg = parse_config({REFERENCE_CONFIG!r})\n"
        "theta_infinity(replace(cfg.problem, cost=CustomCost(lambda r: 0.02 * abs(r) ** 1.65, 1e9), q0=1e5))\n"
        "CustomImpact(math.tanh).integral(7.5)\n"
        "newton_solve(cfg.problem, cfg.solve)\n"
        f"code = blocktrade.cli.main(['grid', '--config', {REFERENCE_CONFIG!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print('loaded:', *sorted({'scipy.integrate', 'concurrent.futures', 'scipy.linalg'} & set(sys.modules)))\n"
        "sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "loaded:", "")
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
    )
    cli._write_csv(path, *cli._trajectory_table(traj))
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
    cli._write_csv(path, *cli._paths_table(PATH_SAMPLES))  # ten samples in blocks of 4 cross two block boundaries
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
    assert payload["error"]["type"] == "ConfigError"
    assert "grid.t_max must lie in (0, 0.99 * problem.horizon], got 0.995" in payload["error"]["message"]


@pytest.mark.parametrize(
    "values, message",
    [
        ({"grid.t_max": 1.5}, "grid.t_max must lie in (0, 0.99 * problem.horizon], got 1.5"),
        ({"grid.t_max": 0}, "grid.t_max must lie in (0, 0.99 * problem.horizon], got 0.0"),
        ({"problem.q0": 0}, "grid needs problem.q0 > 0"),
    ],
    ids=["past_horizon", "zero_t_max", "zero_q0"],
)
def test_a_grid_outside_its_range_is_a_config_error_naming_its_key(tmp_path, capsys, monkeypatch, values, message):
    # each reached build_grid and answered a plain ValueError
    monkeypatch.setattr("blocktrade.value_function._solve_batch", lambda *args, **kwargs: pytest.fail("a solve ran"))
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, values)
    code, payload = run_cli(capsys, "grid", "--config", write_config(tmp_path, text), "--out-dir", str(out))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert message in payload["error"]["message"]
    assert not (out / "value_grid.csv").exists()


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("simulate", {"mc.n_substeps": 1001}, "simulate needs solve.n_steps * mc.n_substeps at most 1000000"),
        ("grid", {"problem.q0": "5e-324"}, "grid needs problem.q0 > 0 with distinct q-nodes in [0, problem.q0]"),
    ],
    ids=["simulate_substeps", "grid_subnormal_q0"],
)
def test_a_config_one_command_cannot_run_is_refused_before_its_solve_and_solve_runs_it(
    tmp_path, capsys, monkeypatch, command, values, message
):
    # simulate solved, then answered a plain ValueError from euler_law; grid's q-nodes collapsed on 5e-324, and
    # build_grid answered a plain ValueError
    cfg_path = write_config(tmp_path, set_keys(BASE_CONFIG, values))
    code, _ = run_cli(capsys, "solve", "--config", cfg_path, "--out-dir", str(tmp_path / "solved"))
    assert code == 0
    monkeypatch.setattr(cli, "newton_solve", lambda *args: pytest.fail("a solve ran"))
    monkeypatch.setattr("blocktrade.value_function._solve_batch", lambda *args, **kwargs: pytest.fail("a solve ran"))
    out = tmp_path / "out"
    code = main([command, "--config", cfg_path, "--out-dir", str(out)])
    stdout, stderr = capsys.readouterr()
    error = json.loads(stdout.strip().splitlines()[-1])["error"]
    assert (code, error["type"], stderr) == (1, "ConfigError", "")
    assert error["message"].startswith(message)
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["solve", "price", "decompose", "grid"])
def test_a_cost_whose_transform_overflows_is_a_config_error_naming_cost_eta(tmp_path, capsys, command):
    # eta ** (-1 / phi) in the transform's coefficient overflowed: an OverflowError reached the error JSON
    text = set_keys(BASE_CONFIG, {"cost.eta": "1e-300"})
    code, payload = run_cli(capsys, command, "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert "failed checks: cost.eta" in payload["error"]["message"]


# q0 * s0 or 1e4 * psi * q0 overflows: price answered a plain ValueError from json, decompose wrote inf in lec
# and premium_bp, and simulate warned of an overflow first
_VALUE_OVERFLOWS = [
    (key, value, command)
    for key, value in (("market.s0", "1e305"), ("market.s0", "1e303"), ("market.psi", "1e305"), ("market.psi", "1e300"))
    for command in ("price", "decompose", "simulate")
]
# q0 * s0 fits, and the sum of v_i s_i in the Euler wealth does not: simulate warned of an overflow in matmul, then
# answered a plain ValueError from json (at 6e298 only the law at twice mc.n_substeps overflowed)
_EULER_OVERFLOWS = [(command, s0) for s0 in ("6e298", "1e299", "1e300") for command in ("price", "simulate")]
# q0 * s0 * 2 * n_steps * n_substeps fits, and only the division by the horizon 1e-300 overflows: the horizon fails.
# At the volume 1e300: at the config's own volume the cost at the mean rate overflows first, and the volume fails
_TINY_HORIZON = ("solve", "grid", "simulate")


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("implied-gamma", {"problem.q0": "1e200"}, "problem.q0"),  # OverflowError from q ** (1 + beta)
        ("grid", {"problem.q0": "1e200"}, "problem.q0"),  # overflow in the objective's q**2, then FailedCellsError
        ("grid", {"problem.q0": "1e160"}, "problem.q0"),
        ("price", {"impact.k": "1e300"}, "impact.k"),  # inf in the payload: a plain ValueError from json
        ("decompose", {"impact.k": "1e300"}, "impact.k"),  # exit 0 with inf in pmi and premium_bp
        ("implied-gamma", {"impact.k": "1e300"}, "impact.k"),  # PremiumFloorError against the floor inf
        ("price", {"impact.k": "1.5e298"}, "impact.k"),  # the PMI at q0 is finite, 1e4 times it is not
        ("decompose", {"impact.k": "1.5e298"}, "impact.k"),
        ("decompose", {"impact.k": "3e294"}, "price.q_list"),  # fits at q0, and 1e4 times the PMI at 1e6 overflows
        ("decompose", {"price.q_list": "250000, 1e200"}, "price.q_list"),  # OverflowError from q ** (1 + beta)
        ("decompose", {"market.s0": "3e302"}, "price.q_list"),  # q0 * s0 fits, and 1e6 * s0 overflows
        ("decompose", {"market.psi": "3e298"}, "price.q_list"),  # the LEC in basis points fits at q0, not at 1e6
    ]
    + [(command, {key: value}, key) for key, value, command in _VALUE_OVERFLOWS]
    + [(command, {"market.s0": s0}, "market.s0") for command, s0 in _EULER_OVERFLOWS]
    + [(command, {"problem.horizon": "1e-300", "volume.rate": "1e300"}, "problem.horizon") for command in _TINY_HORIZON]
    + [(command, {"problem.horizon": "1e-300"}, "volume.mean_rate") for command in _TINY_HORIZON],
    ids=["q0_implied_gamma", "q0_grid", "q0_1e160_grid", "k_price", "k_decompose", "k_implied_gamma",
         "k_bp_price", "k_bp_decompose", "q_list_bp", "q_list_square", "q_list_s0", "q_list_psi"]
    + [f"{key[7:]}_{value}_{command}" for key, value, command in _VALUE_OVERFLOWS]
    + [f"euler_s0_{s0}_{command}" for command, s0 in _EULER_OVERFLOWS]
    + [f"euler_horizon_{command}" for command in _TINY_HORIZON]
    + [f"mean_rate_horizon_{command}" for command in _TINY_HORIZON],
)
def test_a_block_too_large_for_a_double_is_a_config_error_naming_its_key(tmp_path, capsys, command, values, key):
    text = set_keys(BASE_CONFIG, values)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = main([command, "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    error = json.loads(out.strip().splitlines()[-1])["error"]
    assert (code, error["type"], shown, err) == (1, "ConfigError", [], "")
    assert re.search(rf"failed checks: {re.escape(key)}$|: {re.escape(key)} entries", error["message"])


# each answered a typed error after numpy's warnings on stderr: shooting's chains overflowed (gamma, sigma and
# the horizon), the transform's coefficient underflowed (eta), the cost at the mean rate overflowed (the small
# volumes), the sum of the cell volumes did (1e308); at the horizon 1e16 grid.t_max = 0.9 failed its own rule,
# as T - 0.9 rounds to T; and at 2e-181 only the grid's last t-node, with 0.1 days left, overflows the cost
_EXTREMES = [
    ("solve", {"market.gamma": "1e12"}, "NonConvergenceError"),
    ("price", {"market.sigma": "1e12"}, "NonConvergenceError"),
    ("decompose", {"problem.horizon": "1e12"}, "NonConvergenceError"),
    ("simulate", {"problem.horizon": "1e15", "solve.n_steps": 200}, "NonConvergenceError"),
    ("price", {"cost.eta": "1e201"}, "ConfigError"),
    ("grid", {"cost.eta": "1e300"}, "ConfigError"),
    ("price", {"volume.rate": "1e-185"}, "ConfigError"),
    ("grid", {"volume.rate": "1e-300"}, "ConfigError"),
    ("solve", {"volume.rate": "1e308", "solve.n_steps": 200}, "NonConvergenceError"),
    ("price", {"problem.horizon": "1e16"}, "NonConvergenceError"),
    ("grid", {"volume.rate": "2e-181", "price.q_list": "500000", "price.horizons": "1.0"}, "ConfigError"),
]


@pytest.mark.parametrize(
    "command, values, answer",
    _EXTREMES,
    ids=["gamma", "sigma", "horizon", "horizon_1e15", "eta_1e201", "eta_1e300", "volume_1e-185", "volume_1e-300",
         "volume_1e308", "horizon_1e16", "volume_last_t_node"],
)
def test_an_extreme_input_answers_a_typed_error_without_a_warning(tmp_path, capsys, command, values, answer):
    text = set_keys(BASE_CONFIG, values)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = main([command, "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    (line,) = out.strip().splitlines()
    assert (code, json.loads(line)["error"]["type"], [str(w.message) for w in shown], err) == (1, answer, [], "")
    if values.get("volume.rate") == "2e-181":  # the problem itself passes
        assert json.loads(line)["error"]["message"].endswith("the grid's last t-node 0.9 failed checks: volume.mean_rate")


@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_a_sigma_whose_square_overflows_is_a_config_error_for_every_command(tmp_path, capsys, command):
    # validate passed sigma = 1.4e154, and every command answered an OverflowError from sigma**2
    text = set_keys(BASE_CONFIG, {"market.sigma": "1.4e154"})
    code = main([command, "--config", write_config(tmp_path, text), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    error = json.loads(out.strip().splitlines()[-1])["error"]
    assert (code, error["type"], err) == (1, "ConfigError", "")
    assert error["message"].endswith("invalid problem, failed checks: market.sigma")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, artifact", [("price", "price.json"), ("decompose", "decomposition.csv")])
def test_a_premium_whose_basis_points_overflow_is_a_config_error_naming_market_s0(tmp_path, capsys, command, artifact):
    # at s0 = 1e-310, 1e4 * premium / (q0 * s0) is inf: price answered a plain ValueError from the JSON writer,
    # and decompose wrote inf in every premium_bp cell and exited 0
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, {"market.s0": "1e-310"})
    code = main([command, "--config", write_config(tmp_path, text), "--out-dir", str(out), "--n-steps", "200"])
    stdout, stderr = capsys.readouterr()
    error = json.loads(stdout.strip().splitlines()[-1])["error"]
    assert (code, error["type"], stderr) == (1, "ConfigError", "")
    assert error["message"].endswith("overflows, failed checks: market.s0")
    assert not (out / artifact).exists()


def test_the_largest_price_whose_euler_wealth_fits_simulates_without_a_warning(tmp_path, capsys):
    # q0 * s0 * 2 * n_steps * n_substeps / horizon is 1.6e308 at s0 = 4e298; every warning is an error here
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, {"market.s0": "4e298"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text), "--out-dir", str(out))
    assert code == 0
    assert json.loads((out / "simulation.json").read_text())["euler_gap"]["n_substeps"] == [4, 8]


def test_grid_with_no_risk_writes_the_straight_lines(tmp_path, capsys):
    # gamma * sigma**2 underflows to 0: every matched curve was 0 / 0, and every cell failed
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, {"market.sigma": "1e-300"})
    code, _ = run_cli(capsys, "grid", "--config", write_config(tmp_path, text), "--out-dir", str(out), "--n-steps", "300")
    assert code == 0
    report = json.loads((out / "hj_report.json").read_text())
    assert report["failed_cells"] == 0
    # with no risk the straight line is the optimum, and every matched curve is one already
    assert report["newton_iterations"]["total"] == 0
    assert report["structure_ok"] is True


@pytest.mark.parametrize("key", ["market.sigma", "market.gamma"])
@pytest.mark.parametrize("command", ["solve", "price", "decompose", "simulate"])
def test_a_single_solve_with_no_risk_writes_its_artifacts_without_a_warning(tmp_path, capsys, command, key):
    # shooting fails here: a degenerate linearization at sigma = 1e-300, where gamma * sigma**2 underflows
    # to 0, and a stall at residual 6.5e199 at gamma = 1e-300; the retry from the matched curve converges
    out = tmp_path / "out"
    text = set_keys(BASE_CONFIG, {key: "1e-300"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, text), "--out-dir", str(out)])
    stdout, stderr = capsys.readouterr()
    assert (code, stderr) == (0, "")
    artifacts = json.loads(stdout.strip().splitlines()[-1])["artifacts"]
    assert artifacts and all(os.path.isfile(path) for path in artifacts.values())


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


def test_a_written_reference_trajectory_reads_back_bit_for_bit(tmp_path, reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=1000))
    cli._write_csv(str(tmp_path / "trajectory.csv"), *cli._trajectory_table(traj))
    back = read_trajectory(tmp_path / "trajectory.csv")
    assert back.grid == traj.grid
    for name in ("q", "v", "p"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))


def test_paths_csv_makes_python_floats_a_block_at_a_time(tmp_path, monkeypatch):
    # four blocks of 5000: the writer peaks at 0.20 MB, but 0.68 MB if it makes every sample a Python float at once
    monkeypatch.setattr(cli, "PATHS_BLOCK", 5_000)
    samples = np.linspace(-1e7, 1e7, 4 * cli.PATHS_BLOCK)
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "paths.csv"), *cli._paths_table(samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * cli.PATHS_BLOCK


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


ANY_INPUT = dict(  # a command, a flag or config key, and the text put there
    command=st.sampled_from(list(cli._DISPATCH)),
    where=st.sampled_from(list(cli._FLAGS) + CONFIG_KEYS),
    text=st.one_of(
        st.text(),
        st.text().map(lambda s: "-" + s),  # argparse reads these as options
        st.floats().map(str),
        st.integers().map(str),
    ),
)


def answer(command, where, text):
    """``main``'s exit code, stdout and stderr with ``text`` at ``where``; the commands return at once."""
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
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(**ANY_INPUT)
def test_any_flag_or_config_value_answers_in_one_json_line(command, where, text):
    # the commands return at once: this is about the input path alone
    code, out, err = answer(command, where, text)
    assert code in (0, 1)
    lines = out.split("\n")
    assert len(lines) == 2 and lines[1] == ""  # exactly one line
    payload = json.loads(lines[0], parse_constant=_reject_constant)
    assert list(payload) == (["artifacts"] if code == 0 else ["error"])
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(**ANY_INPUT)
@example(command="solve", where="cost.phi", text="902")  # power laws whose samples overflow
@example(command="solve", where="cost.eta", text="1.797e308")
@example(command="solve", where="impact.k", text="1.2e305")
def test_any_flag_or_config_value_is_taken_or_a_config_error_without_a_warning(command, where, text):
    # every warning is recorded, not raised, so the answer is the one a user sees, and there is none
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = answer(command, where, text)
    payload = json.loads(out)
    assert code == 0 or payload["error"]["type"] == "ConfigError", payload
    assert [str(w.message) for w in caught] == [] and err == ""

