"""Bang-bang optimal harvesting for a single controller of the whole fleet.

The control problem maximizes total revenue over a finite horizon for one
entity wielding the combined effort ``N * e_max``. In post-harvest
coordinates w (stock left after harvesting), the stage Hamiltonian

    H_k = (p_k - lam_{k+1}) q(F(w_k)) E_k - c_k + lam_{k+1} F(w_k)

is linear in the effort, so the maximizer switches between 0 and full
effort on the sign of ``(p_k - lam_{k+1}) q(F(w_k))``. The adjoint sequence
has no closed form; it is found by alternating forward state sweeps with
backward adjoint sweeps, blending successive adjoint iterates. The maximum
principle gives necessary conditions only, so the sweep can settle on a
schedule that is not optimal; an exhaustive search over all bang-bang
schedules serves as the ground-truth check for short horizons.

Within this module the harvest is ``q(F(w)) * E`` with no clamp at the
available stock; a nonnegativity guard on w keeps the recursion sane if a
schedule overharvests. For total efforts up to ``2 * s_eq`` the guard
never binds and this harvest coincides with the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvParams, catchability, spawner_recruit

# Longest horizon brute_force_optimal searches: its arrays hold 2^T values.
BRUTE_FORCE_MAX_HORIZON = 20


@dataclass(frozen=True)
class AdjointSchedule:
    """Result of the forward-backward sweep.

    ``lambdas`` has length T+1 with the transversality value lambdas[T] = 0.
    ``post_harvest_stock`` has length T+1: entry 0 is the initial stock,
    entry k+1 the stock left after step k. Efforts are exactly 0 or the
    total maximum. ``converged`` means the iteration settled, not that the
    schedule is optimal: compare with ``brute_force_optimal`` for that.
    """

    lambdas: np.ndarray
    efforts: np.ndarray
    post_harvest_stock: np.ndarray
    objective: float
    converged: bool
    iterations: int


def hamiltonian(
    w: float,
    effort_next: float,
    lambda_next: float,
    price: float,
    cost: float,
    s_eq: float,
    growth_rate: float,
) -> float:
    """Stage Hamiltonian (p - lam) q(F(w)) E - c + lam F(w)."""
    grown = spawner_recruit(w, s_eq, growth_rate)
    return (
        (price - lambda_next) * catchability(grown, s_eq) * effort_next
        - cost
        + lambda_next * grown
    )


def bang_bang_action(coefficient: float, e_total_max: float) -> float:
    """Full effort when the Hamiltonian's effort coefficient is >= 0, else none."""
    return e_total_max if coefficient >= 0 else 0.0


def _growth_derivative(w: float, s_eq: float, r: float) -> float:
    return np.exp(r * (1.0 - w / s_eq)) * (1.0 - r * w / s_eq)


def _hamiltonian_dw(
    w: float, effort: float, lambda_next: float, price: float, s_eq: float, r: float
) -> float:
    """d/dw of the stage Hamiltonian (left derivative of q at its kink)."""
    grown = w * np.exp(r * (1.0 - w / s_eq))
    f_prime = _growth_derivative(w, s_eq, r)
    q_prime = 1.0 / (2.0 * s_eq) if grown <= 2.0 * s_eq else 0.0
    return (price - lambda_next) * q_prime * f_prime * effort + lambda_next * f_prime


def _per_step(value, horizon: int) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(value, dtype=float), (horizon,))
    return np.array(arr)


def evaluate_schedule(
    efforts: np.ndarray,
    s_eq: float,
    growth_rate: float,
    price: np.ndarray,
    cost: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Objective and post-harvest trajectory of a schedule (unclamped harvest)."""
    horizon = len(efforts)
    stocks = np.zeros(horizon + 1)
    stocks[0] = s_eq
    objective = 0.0
    for k in range(horizon):
        grown = spawner_recruit(stocks[k], s_eq, growth_rate)
        harvest = catchability(grown, s_eq) * efforts[k]
        objective += price[k] * harvest - cost[k]
        stocks[k + 1] = max(grown - harvest, 0.0)
    return objective, stocks


def forward_backward_sweep(
    params: EnvParams,
    horizon: int,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    damping: float = 0.5,
    price=None,
    cost=None,
) -> AdjointSchedule:
    """Iterate forward state / backward adjoint passes until the bang-bang
    schedule and the adjoints stop changing.

    Because the dynamics are nonlinear in the state, the first-order bang
    rule evaluated along a schedule can demand flips that a forward
    evaluation shows to be strictly worse (flipping a bang control is a
    large move, not an infinitesimal one). Adopting such flips makes the
    plain iteration cycle without settling, so schedule updates are damped
    conservatively: each iteration adopts the single bang-rule proposal
    that most improves the objective and rejects proposals that lower it.
    Convergence means the adjoints have settled and no proposed change
    survives the forward check; the best schedule found is returned either
    way.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    e_total = params.n_agents * params.e_max
    s_eq, r = params.s_eq, params.growth_rate
    prices = _per_step(params.price if price is None else price, horizon)
    costs = _per_step(params.cost if cost is None else cost, horizon)

    efforts = np.full(horizon, e_total)
    lambdas = np.zeros(horizon + 1)
    best_obj, best_efforts = -np.inf, efforts.copy()
    converged = False
    iterations = 0

    for iteration in range(1, max_iter + 1):
        iterations = iteration
        objective, stocks = evaluate_schedule(efforts, s_eq, r, prices, costs)
        if objective > best_obj:
            best_obj, best_efforts = objective, efforts.copy()

        lam_new = np.zeros(horizon + 1)
        for k in range(horizon - 1, -1, -1):
            lam_new[k] = _hamiltonian_dw(
                stocks[k], efforts[k], lam_new[k + 1], prices[k], s_eq, r
            )
        lam_change = float(np.max(np.abs(lam_new - lambdas)))
        lambdas = damping * lam_new + (1.0 - damping) * lambdas

        proposals = [
            k
            for k in range(horizon)
            if bang_bang_action(
                (prices[k] - lambdas[k + 1])
                * catchability(spawner_recruit(stocks[k], s_eq, r), s_eq),
                e_total,
            )
            != efforts[k]
        ]
        best_gain, best_k = 0.0, None
        for k in proposals:
            trial = efforts.copy()
            trial[k] = e_total - trial[k]
            trial_obj, _ = evaluate_schedule(trial, s_eq, r, prices, costs)
            if trial_obj - objective > best_gain:
                best_gain, best_k = trial_obj - objective, k

        if best_k is not None:
            efforts[best_k] = e_total - efforts[best_k]
            continue
        if lam_change < tol:
            converged = True
            break

    final_efforts = efforts if converged else best_efforts
    objective, stocks = evaluate_schedule(final_efforts, s_eq, r, prices, costs)
    lambdas[horizon] = 0.0
    return AdjointSchedule(
        lambdas=lambdas,
        efforts=final_efforts,
        post_harvest_stock=stocks,
        objective=objective,
        converged=converged,
        iterations=iterations,
    )


def brute_force_optimal(
    params: EnvParams,
    horizon: int,
    price=None,
    cost=None,
) -> tuple[np.ndarray, float]:
    """Exhaustive maximum over all 2^T bang-bang schedules
    (T <= BRUTE_FORCE_MAX_HORIZON).

    The stock after step k depends only on the first k choices, so all 2^k
    schedule prefixes advance together, each splitting into its harvest and
    rest children in that order. Each step repeats ``evaluate_schedule``'s
    float operations, so the objective equals the returned schedule's
    ``evaluate_schedule`` objective bit for bit. Ties go to the schedule
    that harvests earliest.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > BRUTE_FORCE_MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} too large for enumeration (max {BRUTE_FORCE_MAX_HORIZON})"
        )
    e_total = params.n_agents * params.e_max
    s_eq, r = params.s_eq, params.growth_rate
    prices = _per_step(params.price if price is None else price, horizon)
    costs = _per_step(params.cost if cost is None else cost, horizon)

    choices = np.array([e_total, 0.0])
    stock = np.array([s_eq])
    objective = np.zeros(1)
    for k in range(horizon):
        grown = stock * np.exp(r * (1.0 - stock / s_eq))
        q = np.where(grown <= 2.0 * s_eq, grown / (2.0 * s_eq), 1.0)
        harvest = q[:, None] * choices
        # row i holds the children of prefix i, so ravel keeps
        # itertools.product((e_total, 0.0), repeat=k+1) order; adding the
        # objective in place (IEEE addition commutes) saves a 2^k-wide array
        gain = prices[k] * harvest - costs[k]
        gain += objective[:, None]
        objective = gain.ravel()
        if k + 1 < horizon:
            stock = np.maximum(grown[:, None] - harvest, 0.0).ravel()
    # argmax takes the first maximum: the earliest-harvesting schedule
    best = int(np.argmax(objective))
    rests = (best >> np.arange(horizon - 1, -1, -1)) & 1
    return choices[rests], objective[best]
