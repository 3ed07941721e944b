"""Euler simulation of the price and cash dynamics under a fixed schedule.

Validates the Gaussian law of the terminal wealth empirically: for a
deterministic selling schedule the simulated mark-to-market wealth
X_T + q_T * S_T must match the analytic mean and variance, with zero excess
kurtosis. The permanent-impact drift of the price is integrated exactly over
every substep (it is the increment of the impact antiderivative along the
schedule), which removes the integrable singularity of the per-share impact
at the first trade; the cash integral is left-endpoint Euler, with substeps
controlling its bias.

Under a fixed schedule this Euler wealth is affine in the increments z_i,
c + sigma * sqrt(tau_s) * sum_i Q_i z_i with Q_i the inventory held after
substep i, so every increment is drawn but costs one multiply-add; c and the
sum of the squared weights are the scheme's exact mean and variance.

Paths are simulated in fixed blocks of ``BLOCK_PATHS``. Block ``b`` draws from
its own SFC64 stream, seeded by child ``b`` of ``SeedSequence(seed).spawn``, so
the blocks run on parallel threads and the samples depend only on the seed,
the path count and the substep count, never on the number of CPUs (seed
scheme 3; scheme 2 gave each block a PCG64 child, and scheme 1 was a single
``default_rng(seed)`` stream over all paths).
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
MAX_EULER_STEPS = 1_000_000  # the schedule's arrays and the list of weights, ~100 MB at this bound
SEED_SCHEME = 3


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
    """Sample statistics of the terminal wealth, and the Euler scheme's exact law."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    excess_kurtosis: float
    n_paths: int
    euler_mean: float
    euler_variance: float
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
    return v, cost_rate, drift


def _affine_form(problem: LiquidationProblem, traj: Trajectory, n_sub: int):
    """The constant c and the weight of each increment in the Euler wealth."""
    v, cost_rate, drift = _schedule(problem, traj, n_sub)
    tau_sub = traj.grid.tau / n_sub
    q_end = float(traj.q[-1])
    s_bar = problem.market.s0 + np.concatenate(([0.0], np.cumsum(drift)))
    c = tau_sub * float(v @ s_bar[:-1]) - tau_sub * float(cost_rate.sum()) + q_end * float(s_bar[-1])
    held = tau_sub * np.append(np.cumsum(v[::-1])[::-1][1:], 0.0) + q_end  # after each substep
    return c, (problem.market.sigma * math.sqrt(tau_sub) * held).tolist()


def _simulate_block(weights, seed_seq, out):
    """Writes each path's noise sum_i w_i z_i of one block into ``out``."""
    rng = np.random.Generator(np.random.SFC64(seed_seq))
    out.fill(0.0)
    z = np.empty(len(out))
    for w in weights:
        rng.standard_normal(out=z)
        z *= w
        out += z


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
    c, weights = _affine_form(problem, traj, cfg.n_substeps)
    n_blocks = -(-cfg.n_paths // BLOCK_PATHS)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    noise = np.empty(cfg.n_paths)  # the wealth less c
    n_threads = min(os.cpu_count() or 1, n_blocks)

    def run_block(b):
        block = noise[b * BLOCK_PATHS : (b + 1) * BLOCK_PATHS]
        _simulate_block(weights, streams[b], block)

    from concurrent.futures import ThreadPoolExecutor  # lazy: kept out of `import blocktrade.cli`

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(run_block, range(n_blocks)))  # re-raises a block's exception

    # moments of the noise, so a riskless schedule has variance exactly 0
    noise_mean = float(np.mean(noise))
    variance = float(np.var(noise, ddof=1)) if cfg.n_paths > 1 else 0.0
    se_mean = math.sqrt(variance / cfg.n_paths)
    se_variance = variance * math.sqrt(2.0 / max(cfg.n_paths - 1, 1))
    centered = noise - noise_mean
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    excess_kurtosis = m4 / (m2 * m2) - 3.0 if m2 > 0 else 0.0
    return SimulationResult(
        mean=noise_mean + c,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        excess_kurtosis=excess_kurtosis,
        n_paths=cfg.n_paths,
        euler_mean=c,
        euler_variance=math.fsum(w * w for w in weights),
        samples=np.add(noise, c, out=noise) if keep_samples else None,
    )
