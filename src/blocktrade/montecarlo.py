"""Euler simulation of the price and cash dynamics under a fixed schedule.

Validates the Gaussian law of the terminal wealth empirically: for a
deterministic selling schedule the simulated mark-to-market wealth
X_T + q_T * S_T must match the analytic mean and variance, with zero excess
kurtosis. The permanent-impact drift of the price is integrated exactly over
every substep (it is the increment of the impact antiderivative along the
schedule), which removes the integrable singularity of the per-share impact
at the first trade; the cash integral is left-endpoint Euler, with substeps
controlling its bias.

Paths are simulated in fixed blocks of ``BLOCK_PATHS``. Block ``b`` draws from
its own stream, child ``b`` of ``SeedSequence(seed).spawn``, so the blocks run
on parallel threads and the samples depend only on the seed, the path count
and the substep count, never on the number of CPUs (seed scheme 2; scheme 1
was a single ``default_rng(seed)`` stream over all paths).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .market_model import LiquidationProblem
from .solver import Trajectory

__all__ = [
    "BLOCK_PATHS",
    "MAX_EULER_STEPS",
    "MAX_PATHS",
    "SEED_SCHEME",
    "SimulationConfig",
    "SimulationResult",
    "simulate_cash",
]

BLOCK_PATHS = 50_000  # paths per random stream and per unit of thread work
MAX_PATHS = 10_000_000  # 80 MB of terminal wealth; guards against a typo
MAX_EULER_STEPS = 1_000_000  # _schedule holds three lists of this many Python floats, ~100 MB
SEED_SCHEME = 2


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int = 100_000
    n_substeps: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must be in [1, {MAX_PATHS}], got {self.n_paths}")
        if self.n_substeps < 1:
            raise ValueError("n_substeps must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Sample statistics of the terminal wealth across paths."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    excess_kurtosis: float
    n_paths: int
    samples: Optional[np.ndarray] = None


def _schedule(problem: LiquidationProblem, traj: Trajectory, n_sub: int):
    """Per-substep speed, cost rate and exact impact drift of the price."""
    tau_sub = traj.grid.tau / n_sub
    offsets = np.tile(np.arange(n_sub) * tau_sub, traj.grid.n_steps)
    v = np.repeat(traj.v, n_sub)
    t_left = np.repeat(traj.grid.times[:-1], n_sub) + offsets
    q_left = np.repeat(traj.q[:-1], n_sub) - v * offsets
    q_right = q_left - v * tau_sub
    vol = problem.volume(t_left)
    cost_rate = vol * problem.cost(v / vol) + problem.market.psi * np.abs(v)
    impact = problem.impact(float(traj.q[0]) - np.stack((q_right, q_left)))
    drift = -(impact[0] - impact[1])
    return v.tolist(), cost_rate.tolist(), drift.tolist()


def _simulate_block(schedule, s0, sigma, tau_sub, q_end, seed_seq, out):
    """Euler paths of one block; writes their terminal wealth into ``out``."""
    rng = np.random.default_rng(seed_seq)
    n = len(out)
    prices = np.full(n, s0)
    cash = np.zeros(n)
    flow = np.empty(n)
    z = np.empty(n)
    noise = sigma * math.sqrt(tau_sub)
    for v, cost_rate, drift in zip(*schedule):
        np.multiply(prices, v, out=flow)
        flow -= cost_rate
        flow *= tau_sub
        cash += flow
        rng.standard_normal(out=z)
        z *= noise
        z += drift
        prices += z
    np.multiply(prices, q_end, out=out)
    out += cash


def simulate_cash(
    problem: LiquidationProblem,
    traj: Trajectory,
    cfg: SimulationConfig,
    keep_samples: bool = False,
) -> SimulationResult:
    """Simulate terminal wealth X_T + q_T * S_T along the trajectory grid.

    Each trajectory cell is split into ``n_substeps`` Euler steps with
    Gaussian increments; statistics are reproducible for a fixed seed. For a
    liquidating trajectory the terminal inventory is zero and the wealth is
    just the cash. Blocks of ``BLOCK_PATHS`` paths run on up to
    ``os.cpu_count()`` worker threads. More than
    ``MAX_EULER_STEPS`` Euler steps per path raise ``ValueError``.
    """
    n_euler = traj.grid.n_steps * cfg.n_substeps
    if n_euler > MAX_EULER_STEPS:
        raise ValueError(f"n_steps * n_substeps must be at most {MAX_EULER_STEPS}, got {n_euler}")
    m = problem.market
    schedule = _schedule(problem, traj, cfg.n_substeps)
    tau_sub = traj.grid.tau / cfg.n_substeps
    q_end = float(traj.q[-1])
    n_blocks = -(-cfg.n_paths // BLOCK_PATHS)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    wealth = np.empty(cfg.n_paths)
    n_threads = min(os.cpu_count() or 1, n_blocks)

    def run_block(b):
        block = wealth[b * BLOCK_PATHS : (b + 1) * BLOCK_PATHS]
        _simulate_block(schedule, m.s0, m.sigma, tau_sub, q_end, streams[b], block)

    from concurrent.futures import ThreadPoolExecutor  # lazy: kept out of `import blocktrade.cli`

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(run_block, range(n_blocks)))  # re-raises a block's exception

    mean = float(np.mean(wealth))
    variance = float(np.var(wealth, ddof=1)) if cfg.n_paths > 1 else 0.0
    se_mean = math.sqrt(variance / cfg.n_paths)
    se_variance = variance * math.sqrt(2.0 / max(cfg.n_paths - 1, 1))
    centered = wealth - mean
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    excess_kurtosis = m4 / (m2 * m2) - 3.0 if m2 > 0 else 0.0
    return SimulationResult(
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        excess_kurtosis=excess_kurtosis,
        n_paths=cfg.n_paths,
        samples=wealth if keep_samples else None,
    )
