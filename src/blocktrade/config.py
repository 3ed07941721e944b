"""Strict key-value configuration for the command-line tools.

Format: one ``dotted.key = value`` per line; ``#`` starts a full-line comment;
blank lines are ignored. Unknown or duplicate keys are hard errors so a typo
cannot silently fall back to a default in a financially sensitive run. The
full schema is documented in the README.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional

from .market_model import (
    ConstantVolume,
    LiquidationProblem,
    MarketParams,
    PiecewiseLinearVolume,
    PowerLawCost,
    PowerLawImpact,
    validate,
)
from .montecarlo import SimulationConfig
from .solver import SolveOptions
from .value_function import MARGIN, MAX_GRID_NODES

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One run's config file, parsed: the problem, the solve and Monte Carlo settings, and each command's inputs."""
    problem: LiquidationProblem
    solve: SolveOptions
    mc: SimulationConfig
    q_list: tuple[float, ...]
    horizons: Optional[tuple[float, ...]]
    quoted_premium: Optional[float]
    grid_n_t: int
    grid_n_q: int
    grid_t_max: float
    dump_paths: bool


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    value = float(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(s) for s in items)


def _parse_str(text: str) -> str:
    return text.strip()


# key -> (parser, required)
_SCHEMA = {
    "problem.q0": (_parse_float, True),
    "problem.horizon": (_parse_float, True),
    "market.s0": (_parse_float, True),
    "market.sigma": (_parse_float, True),
    "market.gamma": (_parse_float, True),
    "market.psi": (_parse_float, False),
    "cost.type": (_parse_str, True),
    "cost.eta": (_parse_float, False),
    "cost.phi": (_parse_float, False),
    "impact.type": (_parse_str, True),
    "impact.k": (_parse_float, False),
    "impact.beta": (_parse_float, False),
    "volume.type": (_parse_str, True),
    "volume.rate": (_parse_float, False),
    "volume.path": (_parse_str, False),
    "solve.n_steps": (_parse_int, False),
    "solve.newton_tol": (_parse_float, False),
    "solve.max_iter": (_parse_int, False),
    "mc.n_paths": (_parse_int, False),
    "mc.n_substeps": (_parse_int, False),
    "mc.seed": (_parse_int, False),
    "mc.dump_paths": (_parse_bool, False),
    "price.q_list": (_parse_float_list, False),
    "price.quoted_premium": (_parse_float, False),
    "price.horizons": (_parse_float_list, False),
    "grid.n_t": (_parse_int, False),
    "grid.n_q": (_parse_int, False),
    "grid.t_max": (_parse_float, False),
}


def _read_pairs(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = _parse_value(key, value, f"{path}:{lineno}")
    return pairs


def _parse_value(key: str, text: str, where: str):
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    parser, _ = _SCHEMA[key]
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def _require(pairs: dict, key: str, path: str):
    if key not in pairs:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return pairs[key]


def _csv_volume(pairs: dict, path: str) -> PiecewiseLinearVolume:
    csv_path = _require(pairs, "volume.path", path)
    if not os.path.isabs(csv_path):
        csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), csv_path)
    try:
        return PiecewiseLinearVolume.from_csv(csv_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: volume csv: {exc}") from None


# section -> {section.type -> model}: a dataclass takes the section's keys named
# after its fields, all required; any other model is a function of (pairs, path)
_MODELS = {
    "cost": {"power_law": PowerLawCost},
    "impact": {"power_law": PowerLawImpact},
    "volume": {"constant": ConstantVolume, "csv": _csv_volume},
}


def _model(section: str, pairs: dict, path: str):
    kind = pairs[f"{section}.type"]
    if kind not in _MODELS[section]:
        raise ConfigError(f"{path}: unsupported {section}.type {kind!r}")
    make = _MODELS[section][kind]
    if not is_dataclass(make):
        return make(pairs, path)
    return make(**{f.name: _require(pairs, f"{section}.{f.name}", path) for f in fields(make)})


def _options(cls, pairs: dict, section: str):
    """``cls`` built from the ``section.*`` keys present; its own defaults fill the rest."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(cls)}
    return cls(**{name: pairs[key] for name, key in keys.items() if key in pairs})


def _judge(problem: LiquidationProblem, where: str) -> None:
    """Raise a ConfigError naming ``where`` and each failed check, unless ``validate`` passes ``problem``."""
    failed = ", ".join(c.name for c in validate(problem).failures())
    if failed:
        raise ConfigError(f"{where} failed checks: {failed}")


def parse_config(path: str, overrides=()) -> RunConfig:
    """Parse and validate a run configuration; see the README for the schema.

    ``overrides`` holds (key, text) pairs, each parsed as a file line would be
    and put in place of the file's value before any check runs.
    """
    pairs = _read_pairs(path)
    for key, text in overrides:
        pairs[key] = _parse_value(key, text, f"{path}: override")
    for key, (_, required) in _SCHEMA.items():
        if required:
            _require(pairs, key, path)

    cost, impact, volume = (_model(section, pairs, path) for section in ("cost", "impact", "volume"))
    problem = LiquidationProblem(
        q0=pairs["problem.q0"],
        horizon=pairs["problem.horizon"],
        market=MarketParams(
            s0=pairs["market.s0"],
            sigma=pairs["market.sigma"],
            gamma=pairs["market.gamma"],
            psi=pairs.get("market.psi", 0.0),
        ),
        volume=volume,
        cost=cost,
        impact=impact,
    )
    _judge(problem, f"{path}: invalid problem,")

    try:
        solve = _options(SolveOptions, pairs, "solve")
        mc = _options(SimulationConfig, pairs, "mc")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for key in ("grid.n_t", "grid.n_q"):
        if not 3 <= pairs.get(key, 3) <= MAX_GRID_NODES:
            raise ConfigError(f"{path}: {key} must lie in [3, {MAX_GRID_NODES}], got {pairs[key]}")

    # each swept entry is judged as the whole problem a command will solve with it
    q_list, horizons = pairs.get("price.q_list", (problem.q0,)), pairs.get("price.horizons")
    for key, field, entries in (("price.q_list", "q0", q_list), ("price.horizons", "horizon", horizons or ())):
        for entry in entries:
            _judge(replace(problem, **{field: entry}), f"{path}: {key} entries: {entry}")
    # bounds simulate's sum v_i s_i at twice mc.n_substeps (the speeds sum to q0 / tau, and no price exceeds s0)
    wealth = problem.q0 * problem.market.s0 * 2 * solve.n_steps * mc.n_substeps
    if not wealth / problem.horizon < math.inf:  # the horizon fails where only the division by it overflows
        key = "market.s0" if wealth == math.inf else "problem.horizon"
        raise ConfigError(f"{path}: q0 * s0 * 2 * n_steps * n_substeps / horizon overflows, failed checks: {key}")
    for key in ("price.quoted_premium", "grid.t_max"):
        if not math.isfinite(pairs.get(key, 0.0)):
            raise ConfigError(f"{path}: {key} must be finite, got {pairs[key]}")
    if "grid.t_max" in pairs and not 0.01 * problem.horizon <= problem.horizon - pairs["grid.t_max"] < problem.horizon:
        raise ConfigError(f"{path}: grid.t_max must lie in (0, 0.99 * problem.horizon], got {pairs['grid.t_max']}")

    return RunConfig(
        problem=problem,
        solve=solve,
        mc=mc,
        q_list=q_list,
        horizons=horizons,
        quoted_premium=pairs.get("price.quoted_premium"),
        grid_n_t=pairs.get("grid.n_t", 21),
        grid_n_q=pairs.get("grid.n_q", 21),
        grid_t_max=pairs.get("grid.t_max", problem.horizon - MARGIN * problem.horizon),
        dump_paths=pairs.get("mc.dump_paths", False),
    )
