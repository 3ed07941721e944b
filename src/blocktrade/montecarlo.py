"""The Euler scheme of the price and cash dynamics under a fixed schedule, sampled by its exact law.

For a deterministic selling schedule the mark-to-market wealth
X_T + q_T * S_T is Gaussian, with an analytic mean and variance. The scheme
integrates the permanent-impact drift of the price exactly over every
substep (it is the increment of the impact antiderivative along the
schedule), which removes the integrable singularity of the per-share impact
at the first trade; the cash integral is left-endpoint Euler, with substeps
controlling its bias.

Under a fixed schedule the Euler wealth is affine in the Brownian increments
z_i, c + sigma * sqrt(tau_s) * sum_i Q_i z_i with Q_i the inventory held
after substep i, so its law is exactly N(c, sum of the squared weights)
(``euler_law``). Those moments carry no sampling error: against the analytic
law they show the scheme's bias alone. ``simulate_cash`` draws each path's
wealth from that law, c + sqrt(sum w_i^2) * z, with one standard normal per
path, in path order, from a single SFC64 stream seeded by
``SeedSequence(seed)`` (seed scheme 4); its sample moments therefore check
the generator and the moment code, not the scheme. Earlier schemes drew
every increment (README, ``simulation.json``): the samples keep their law
across schemes, not their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .market_model import LiquidationProblem
from .solver import Trajectory, _check_counts, _is_count

__all__ = [
    "MAX_EULER_STEPS",
    "MAX_PATHS",
    "SEED_SCHEME",
    "SimulationConfig",
    "SimulationResult",
    "euler_law",
    "simulate_cash",
]

MAX_PATHS = 10_000_000  # 80 MB of terminal wealth; guards against a typo
MAX_EULER_STEPS = 1_000_000  # the schedule's arrays, ~100 MB at this bound
SEED_SCHEME = 4


@dataclass(frozen=True)
class SimulationConfig:
    """Monte Carlo settings: the number of paths, Euler substeps per solver cell and the seed."""
    n_paths: int = 100_000
    n_substeps: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, "n_paths", "n_substeps", "seed")
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
    return c, problem.market.sigma * math.sqrt(tau_sub) * held


def euler_law(problem: LiquidationProblem, traj: Trajectory, n_substeps: int) -> tuple[float, float]:
    """Exact mean and variance of the Euler wealth: c and the sum of the squared weights.

    The sum is ``math.fsum``'s, correctly rounded. An ``n_substeps`` that is
    not an integer (or is a bool) or is below 1, and more than
    ``MAX_EULER_STEPS`` Euler steps per path, raise ``ValueError``.
    """
    if not _is_count(n_substeps) or n_substeps < 1:
        raise ValueError(f"n_substeps must be an integer of at least 1, got {n_substeps!r}")
    n_euler = traj.grid.n_steps * n_substeps
    if n_euler > MAX_EULER_STEPS:
        raise ValueError(f"n_steps * n_substeps must be at most {MAX_EULER_STEPS}, got {n_euler}")
    c, weights = _affine_form(problem, traj, n_substeps)
    return c, math.fsum((weights * weights).tolist())


def simulate_cash(
    problem: LiquidationProblem,
    traj: Trajectory,
    cfg: SimulationConfig,
    keep_samples: bool = False,
) -> SimulationResult:
    """Sample terminal wealth X_T + q_T * S_T from the Euler scheme's exact law.

    Each trajectory cell is split into ``n_substeps`` Euler steps; the wealth
    of every path is drawn as c + sqrt(sum w_i^2) * z, one standard normal per
    path, so the samples follow the scheme's law exactly and are reproducible
    for a fixed seed. For a liquidating trajectory the terminal inventory is
    zero and the wealth is just the cash. More than ``MAX_EULER_STEPS`` Euler
    steps per path raise ``ValueError``.

    The moments come from one centred pass over the draws, done in place: the
    squared deviations from the sample mean are summed once, and that sum
    gives both the unbiased variance and the second moment of the kurtosis.
    This is the arithmetic of ``np.var(ddof=1)``, so the variance has its
    bits. The kept ``samples`` are taken before the centring.
    """
    c, euler_variance = euler_law(problem, traj, cfg.n_substeps)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed)))
    noise = rng.standard_normal(cfg.n_paths)  # the wealth less c
    noise *= math.sqrt(euler_variance)

    # moments of the noise, so a riskless schedule has variance exactly 0
    noise_mean = float(np.mean(noise))
    samples = noise + c if keep_samples else None
    squares = np.square(np.subtract(noise, noise_mean, out=noise), out=noise)
    sum_sq = float(np.add.reduce(squares))
    variance = sum_sq / (cfg.n_paths - 1) if cfg.n_paths > 1 else 0.0
    se_mean = math.sqrt(variance / cfg.n_paths)
    se_variance = variance * math.sqrt(2.0 / max(cfg.n_paths - 1, 1))
    m2 = sum_sq / cfg.n_paths
    m4 = float(np.dot(squares, squares)) / cfg.n_paths
    excess_kurtosis = m4 / (m2 * m2) - 3.0 if m2 > 0 else 0.0
    return SimulationResult(
        mean=noise_mean + c,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        excess_kurtosis=excess_kurtosis,
        n_paths=cfg.n_paths,
        euler_mean=c,
        euler_variance=euler_variance,
        samples=samples,
    )
