"""Bio-economic fishery dynamics.

The resource is a single renewable stock harvested by N agents. Total
harvest is capped at the available stock, the catchability coefficient
scales linearly with stock up to twice the equilibrium level, and the
surviving stock regrows through a Ricker-type spawner-recruit map.
Revenue is private (price times individual harvest minus cost) while the
stock loss is shared, which is what makes the setting a commons dilemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Stability interval for the growth rate: inside it, an unharvested stock
# started at or below 2*s_eq never exceeds 2*s_eq. The Ricker map peaks at
# 2*s_eq exactly when e^r = 2 e r, whose roots are -W(-1/(2e)) on Lambert W's
# branches 0 and -1, as scipy.special.lambertw gives them.
GROWTH_RATE_MIN = 0.23196095298653444
GROWTH_RATE_MAX = 2.6783469900166605


class DoneReason(str, Enum):
    RUNNING = "running"
    DEPLETED = "depleted"
    HORIZON_REACHED = "horizon_reached"


@dataclass(frozen=True)
class EnvParams:
    """Constants of one fishery instance.

    ``price`` and ``cost`` are held constant during simulation; the
    optimal-control module accepts per-step sequences separately.
    """

    n_agents: int
    s_eq: float
    growth_rate: float = 1.0
    e_max: float = 1.0
    price: float = 1.0
    cost: float = 0.0
    depletion_threshold: float = 1e-4
    max_steps: int = 500

    def __post_init__(self):
        for name in ("s_eq", "growth_rate", "e_max", "price", "cost", "depletion_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.s_eq <= 0:
            raise ValueError(f"s_eq must be positive, got {self.s_eq}")
        if self.e_max <= 0:
            raise ValueError(f"e_max must be positive, got {self.e_max}")
        if self.depletion_threshold <= 0:
            raise ValueError("depletion_threshold must be positive")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not GROWTH_RATE_MIN <= self.growth_rate <= GROWTH_RATE_MAX:
            raise ValueError(
                f"growth_rate {self.growth_rate} outside stable interval "
                f"[{GROWTH_RATE_MIN}, {GROWTH_RATE_MAX}]"
            )


@dataclass(frozen=True)
class EnvState:
    """Snapshot of the fishery between steps. Treat as immutable."""

    stock: float
    t: int
    last_efforts: np.ndarray
    last_rewards: np.ndarray


@dataclass(frozen=True)
class StepOutcome:
    rewards: np.ndarray
    harvests: np.ndarray
    done: bool
    done_reason: DoneReason


def catchability(stock: float, s_eq: float) -> float:
    """Harvest efficiency q(x) = x / (2 s_eq), saturating at 1 for x > 2 s_eq."""
    if s_eq <= 0:
        raise ValueError(f"s_eq must be positive, got {s_eq}")
    if stock < 0:
        raise ValueError(f"stock must be nonnegative, got {stock}")
    if stock <= 2.0 * s_eq:
        return stock / (2.0 * s_eq)
    return 1.0


def spawner_recruit(x: float, s_eq: float, r: float) -> float:
    """Ricker growth map F(x) = x * exp(r * (1 - x / s_eq)).

    s_eq is the unique positive fixed point: an unharvested stock settles there.
    """
    if x < 0:
        raise ValueError(f"post-harvest stock must be nonnegative, got {x}")
    if s_eq <= 0:
        raise ValueError(f"s_eq must be positive, got {s_eq}")
    return x * np.exp(r * (1.0 - x / s_eq))


def advance(stock, total_effort, s_eq, r):
    """One unchecked stage on floats or arrays: the harvest H = min(q(s) E, s)
    and the next stock F(s - H), bit for bit as catchability and spawner_recruit."""
    # min(ratio, 1) is catchability: s <= 2 s_eq iff the rounded ratio <= 1
    harvest = np.minimum(np.minimum(stock / (2.0 * s_eq), 1.0) * total_effort, stock)
    x = stock - harvest
    return harvest, x * np.exp(r * (1.0 - x / s_eq))


def reset(params: EnvParams) -> EnvState:
    """Fresh episode: stock at the equilibrium, zeroed effort/reward memory."""
    zeros = np.zeros(params.n_agents)
    return EnvState(stock=params.s_eq, t=0, last_efforts=zeros, last_rewards=zeros.copy())


def episode_over(state: EnvState, params: EnvParams) -> bool:
    return state.stock < params.depletion_threshold or state.t >= params.max_steps


def step(
    state: EnvState, efforts: np.ndarray, params: EnvParams
) -> tuple[EnvState, StepOutcome]:
    """Advance the fishery by one step under the given per-agent efforts.

    Individual harvest is the effort-proportional share of the total harvest
    (zero for everyone when total effort is zero), reward is
    ``price * harvest - cost``, and the surviving stock regrows through the
    spawner-recruit map. The episode ends when the new stock falls below the
    depletion threshold or the horizon is reached.
    """
    if episode_over(state, params):
        raise RuntimeError(
            f"cannot step a finished episode (stock={state.stock}, t={state.t})"
        )
    efforts = np.asarray(efforts, dtype=float)
    if efforts.shape != (params.n_agents,):
        raise ValueError(
            f"expected {params.n_agents} efforts, got shape {efforts.shape}"
        )
    # min and max are NaN when any effort is, and NaN fails both comparisons
    if not (efforts.min() >= 0 and efforts.max() <= params.e_max):
        raise ValueError(f"efforts must lie in [0, {params.e_max}]: {efforts}")

    total_effort = float(efforts.sum())
    harvest, next_stock = advance(state.stock, total_effort, params.s_eq, params.growth_rate)
    if total_effort > 0:
        harvests = (efforts / total_effort) * harvest
    else:
        harvests = np.zeros(params.n_agents)
    rewards = params.price * harvests - params.cost

    t_next = state.t + 1
    if next_stock < params.depletion_threshold:
        done, reason = True, DoneReason.DEPLETED
    elif t_next >= params.max_steps:
        done, reason = True, DoneReason.HORIZON_REACHED
    else:
        done, reason = False, DoneReason.RUNNING

    next_state = EnvState(
        stock=next_stock, t=t_next, last_efforts=efforts.copy(), last_rewards=rewards.copy()
    )
    return next_state, StepOutcome(rewards=rewards, harvests=harvests, done=done, done_reason=reason)
