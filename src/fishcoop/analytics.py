"""Closed-form theory of the fishery under all-out harvesting.

Two stock equilibria organize the difficulty landscape when every agent
exerts maximum effort forever:

* the sustainable-harvesting limit ``s_lsh = e^r N E_max / (2 (e^r - 1))``,
  above which the stock survives indefinitely, and
* the immediate-depletion limit ``s_lid = N E_max / 2``, at or below which
  the whole stock is wiped out in a single step.

Scarcity is parameterized as ``s_eq = m_s * K * N`` with
``K = e^r E_max / (2 (e^r - 1))``, so ``m_s = 1`` sits exactly at the
sustainable limit. The admissible growth-rate interval comes from bounding
the Ricker map's peak at ``2 s_eq``, whose endpoints are Lambert-W values
of ``-1/(2e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import env


def growth_rate_bounds() -> tuple[float, float]:
    """Stable growth-rate interval (-W0(-1/(2e)), -W_{-1}(-1/(2e))) ~ (0.232, 2.678),
    the one ``EnvParams`` enforces."""
    return env.GROWTH_RATE_MIN, env.GROWTH_RATE_MAX


def limit_sustainable_harvesting(n: int, r: float, e_max: float) -> float:
    """Smallest s_eq above which all-max harvesting never depletes the stock."""
    if r == 0:
        raise ValueError("growth rate must be nonzero")
    er = math.exp(r)
    return er * n * e_max / (2.0 * (er - 1.0))


def limit_immediate_depletion(n: int, e_max: float) -> float:
    """Largest s_eq at which all-max harvesting empties the stock in one step."""
    return n * e_max / 2.0


def k_constant(r: float, e_max: float = 1.0) -> float:
    """Per-agent sustainable-limit constant K = e^r E_max / (2 (e^r - 1))."""
    return limit_sustainable_harvesting(1, r, e_max)


def ms_of_lid(r: float) -> float:
    """Scarcity multiplier of the immediate-depletion limit: s_lid / s_lsh = 1 - e^-r."""
    if r == 0:
        raise ValueError("growth rate must be nonzero")
    return 1.0 - math.exp(-r)


def seq_from_multiplier(m_s: float, n: int, r: float, e_max: float) -> float:
    """Equilibrium stock for scarcity multiplier m_s: s_eq = m_s * K * N."""
    if m_s < 0:
        raise ValueError(f"m_s must be nonnegative, got {m_s}")
    return m_s * k_constant(r, e_max) * n


@dataclass(frozen=True)
class TheoryLimits:
    s_lsh: float
    s_lid: float
    k_const: float
    ms_lid: float


def theory_limits(n: int, r: float, e_max: float) -> TheoryLimits:
    return TheoryLimits(
        s_lsh=limit_sustainable_harvesting(n, r, e_max),
        s_lid=limit_immediate_depletion(n, e_max),
        k_const=k_constant(r, e_max),
        ms_lid=ms_of_lid(r),
    )


@dataclass(frozen=True)
class BaselineResult:
    length: int
    social_welfare: float
    done_reason: env.DoneReason


def max_effort_episodes(params: env.EnvParams, s_eqs, horizon: int) -> tuple[np.ndarray, ...]:
    """All-max-effort episodes at each stock of the monotone grid ``s_eqs``, stepped
    together through ``env.advance``: each row's length, social welfare and depleted
    flag, bit for bit as ``env.step`` gives them. ``EnvParams`` checks the grid's ends."""
    s_eqs = np.asarray(s_eqs, dtype=float)
    for s_eq in (s_eqs[0], s_eqs[-1]):
        replace(params, s_eq=float(s_eq))  # EnvParams' checks
    total_effort = float(np.full(params.n_agents, params.e_max).sum())
    rewards = np.empty((len(s_eqs), params.n_agents))  # a row sums as env.step's rewards do
    stock, welfare, lengths = s_eqs, np.zeros(len(s_eqs)), np.zeros(len(s_eqs), dtype=int)
    alive = np.ones(len(s_eqs), dtype=bool)
    for _ in range(min(horizon, params.max_steps)):
        harvest, stock = env.advance(stock, total_effort, s_eqs, params.growth_rate)
        rewards[:] = (params.price * (params.e_max / total_effort * harvest) - params.cost)[:, None]
        welfare += np.where(alive, rewards.sum(axis=-1), 0.0)
        lengths += alive
        alive &= ~(stock < params.depletion_threshold)
        if not alive.any():
            break
    return lengths, welfare, ~alive


def max_effort_baseline(params: env.EnvParams, horizon: int) -> BaselineResult:
    """The one-row ``max_effort_episodes`` at ``params.s_eq``."""
    columns = max_effort_episodes(params, [params.s_eq], horizon)
    (length,), (welfare,), (depleted,) = (column.tolist() for column in columns)
    reason = env.DoneReason.RUNNING if length < params.max_steps else env.DoneReason.HORIZON_REACHED
    return BaselineResult(length, welfare, env.DoneReason.DEPLETED if depleted else reason)


def empirical_lsh(
    n: int,
    r: float,
    e_max: float,
    horizon: int,
    s_grid: np.ndarray,
    depletion_threshold: float = 1e-4,
) -> float | None:
    """Smallest grid s_eq whose all-max-effort episode survives the full horizon.

    Returns None when no grid point is sustainable. The grid must be ascending.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0:
        raise ValueError("s_grid must be nonempty")
    if not np.all(np.diff(s_grid) > 0):  # a NaN fails the comparison too
        raise ValueError("s_grid must be strictly ascending")
    params = env.EnvParams(
        n_agents=n, s_eq=float(s_grid[0]), growth_rate=r, e_max=e_max,
        depletion_threshold=depletion_threshold, max_steps=horizon,
    )
    survivors = s_grid[~max_effort_episodes(params, s_grid, horizon)[2]]
    return float(survivors[0]) if survivors.size else None
