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
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from . import env

_INV_E = math.exp(-1.0)


def lambert_w(branch: int, x: float) -> float:
    """Real Lambert W on branch 0 or -1, the solution w of w * e^w = x.

    Branch 0 needs x >= -1/e; branch -1 needs -1/e <= x < 0.
    """
    if branch not in (0, -1):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    if x < -_INV_E:
        raise ValueError(f"x={x} below the branch point -1/e")
    if branch == -1 and x >= 0:
        raise ValueError(f"branch -1 requires x < 0, got {x}")
    if math.e * x + 1.0 <= 0.0:
        # the branch point itself (up to rounding), where SciPy returns nan
        return -1.0
    return float(lambertw(x, branch).real)


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
    stocks: np.ndarray  # stock before each executed step, plus the final stock
    done_reason: env.DoneReason


def max_effort_baseline(params: env.EnvParams, horizon: int) -> BaselineResult:
    """Simulate every agent at maximum effort until depletion or the horizon.

    Social welfare is the summed revenue of all agents over the episode.
    """
    efforts = np.full(params.n_agents, params.e_max)
    state = env.reset(params)
    stocks = [state.stock]
    welfare = 0.0
    reason = env.DoneReason.RUNNING
    steps = 0
    for _ in range(horizon):
        state, outcome = env.step(state, efforts, params)
        welfare += float(outcome.rewards.sum())
        stocks.append(state.stock)
        steps += 1
        if outcome.done:
            reason = outcome.done_reason
            break
    return BaselineResult(
        length=steps, social_welfare=welfare, stocks=np.array(stocks), done_reason=reason
    )


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
    if np.any(np.diff(s_grid) <= 0):
        raise ValueError("s_grid must be strictly ascending")
    for s_eq in s_grid:
        params = env.EnvParams(
            n_agents=n,
            s_eq=float(s_eq),
            growth_rate=r,
            e_max=e_max,
            depletion_threshold=depletion_threshold,
            max_steps=horizon,
        )
        result = max_effort_baseline(params, horizon)
        if result.length == horizon and result.done_reason != env.DoneReason.DEPLETED:
            return float(s_eq)
    return None
