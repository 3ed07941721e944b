import csv
import json

import numpy as np
import pytest

from blocktrade.cli import main, read_trajectory_csv
from blocktrade.config import ConfigError, parse_config
from blocktrade.objective import eval_I

BASE_CONFIG = """\
# reference liquid-stock configuration
problem.q0 = 500000
problem.horizon = 1.0
market.s0 = 40.0
market.sigma = 0.5
market.gamma = 1e-6
market.psi = 0.004
cost.type = power_law
cost.eta = 0.02
cost.phi = 0.65
impact.type = power_law
impact.k = 4.5e-6
impact.beta = 0.75
volume.type = constant
volume.rate = 5000000
solve.n_steps = 1000
mc.n_paths = 5000
mc.seed = 42
price.q_list = 250000, 500000, 1000000
price.quoted_premium = 33090
grid.n_t = 5
grid.n_q = 5
"""


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
    cfg_path = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _ = run_cli(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out))
        assert code == 0
        outs.append((out / "simulation.json").read_bytes())
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


@pytest.mark.parametrize("key", ["problem.horizon", "market.sigma"])
def test_non_finite_input_exits_with_config_error(tmp_path, capsys, key):
    text = "\n".join(f"{key} = inf" if l.startswith(key + " ") else l for l in BASE_CONFIG.splitlines())
    out_dir = tmp_path / "out"
    code, payload = run_cli(capsys, "solve", "--config", write_config(tmp_path, text), "--out-dir", str(out_dir))
    assert code == 1
    assert payload["error"]["type"] == "ConfigError"
    assert key in payload["error"]["message"]
    assert not out_dir.exists()


def test_json_artifacts_refuse_nan(tmp_path):
    from blocktrade.cli import _write_json

    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "bad.json"), {"objective": float("nan")})
