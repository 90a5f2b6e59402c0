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

# catchability and spawner_recruit stay names of this module only because
# the benchmark's tracer (perfbench/tracing.py) wraps them here; control
# steps through _stage and never calls them, so those counters read 0.
from .env import EnvParams, catchability, spawner_recruit  # noqa: F401

# Longest horizon brute_force_optimal searches: its arrays hold 2^T values.
BRUTE_FORCE_MAX_HORIZON = 20
# The sweep settles when no adjoint moves by ADJOINT_TOL or more, or when the
# blend leaves them bit for bit unchanged; each iteration blends the new
# adjoints into the old with weight ADJOINT_DAMPING.
ADJOINT_TOL = 1e-9
ADJOINT_DAMPING = 0.5
# Most floats in one block of the sweep's flip proposals: a block holds
# max(1, PROPOSAL_BLOCK_FLOATS // T) trial schedules of T steps.
PROPOSAL_BLOCK_FLOATS = 2**18


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


def _stage(stock, effort, s_eq: float, r: float):
    """One step elementwise: the grown stock F(w), its catchability q(F(w))
    and the unclamped harvest q(F(w)) * E, in that float-operation order."""
    grown = stock * np.exp(r * (1.0 - stock / s_eq))
    # equals env.catchability's branch: grown <= 2 s_eq iff the rounded ratio <= 1
    q = np.minimum(grown / (2.0 * s_eq), 1.0)
    return grown, q, q * effort


def _per_step(value, horizon: int) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(value, dtype=float), (horizon,))
    return np.array(arr)


def evaluate_schedule(
    efforts: np.ndarray,
    s_eq: float,
    growth_rate: float,
    price: np.ndarray,
    cost: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Objective and post-harvest trajectory of a schedule (unclamped harvest).

    ``efforts`` is one (T,) schedule, giving a scalar objective and (T+1,)
    stocks, or a (P, T) stack of independent schedules, giving (P,)
    objectives and (P, T+1) stocks; each row equals its own 1-D call.
    """
    efforts = np.asarray(efforts, dtype=float)
    steps = np.atleast_2d(efforts).T  # (T, P): column k of every schedule
    stocks = np.empty((len(steps) + 1, steps.shape[1]))
    stocks[0] = s_eq
    objective = np.zeros(steps.shape[1])
    for k, effort in enumerate(steps):
        grown, _, harvest = _stage(stocks[k], effort, s_eq, growth_rate)
        objective += price[k] * harvest - cost[k]
        np.maximum(grown - harvest, 0.0, out=stocks[k + 1])
    if efforts.ndim == 1:
        return objective[0], stocks[:, 0]
    return objective, stocks.T


def forward_backward_sweep(
    params: EnvParams,
    horizon: int,
    max_iter: int = 10_000,
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
    that most improves the objective (the earliest step on ties) and
    rejects proposals that lower it. Convergence means the adjoints have
    settled and no proposed change survives the forward check. Settled
    means no adjoint moves by ``ADJOINT_TOL``, or the blend leaves them bit
    for bit unchanged: adjoints near 1e17 stall one ulp apart, above any
    absolute tolerance. Without convergence the best schedule adopted so
    far is returned.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    e_total = params.n_agents * params.e_max
    s_eq, r = params.s_eq, params.growth_rate
    prices = _per_step(params.price if price is None else price, horizon)
    costs = _per_step(params.cost if cost is None else cost, horizon)
    block_rows = max(1, PROPOSAL_BLOCK_FLOATS // horizon)

    efforts = np.full(horizon, e_total)
    objective, stocks = evaluate_schedule(efforts, s_eq, r, prices, costs)
    adopted = efforts, objective, stocks
    lambdas = np.zeros(horizon + 1)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        efforts, objective, stocks = adopted
        w = stocks[:-1]
        grown, q, _ = _stage(w, efforts, s_eq, r)

        # lambda_k = dH_k/dw: F'(w) and q'(F(w)) (its left derivative at the kink)
        f_prime = np.exp(r * (1.0 - w / s_eq)) * (1.0 - r * w / s_eq)
        q_prime = np.where(grown <= 2.0 * s_eq, 1.0 / (2.0 * s_eq), 0.0)
        terms = zip(prices.tolist(), q_prime.tolist(), f_prime.tolist(), efforts.tolist())
        lam = [0.0]
        for p, qp, fp, e in reversed(list(terms)):
            lam.append((p - lam[-1]) * qp * fp * e + lam[-1] * fp)
        lam_new = np.array(lam[::-1])
        lam_change = float(np.max(np.abs(lam_new - lambdas)))
        blended = ADJOINT_DAMPING * lam_new + (1.0 - ADJOINT_DAMPING) * lambdas
        settled = lam_change < ADJOINT_TOL or np.array_equal(blended, lambdas)
        lambdas = blended

        # the Hamiltonian is linear in E: full effort when (p - lambda) q >= 0
        bang = np.where((prices - lambdas[1:]) * q >= 0, e_total, 0.0)
        proposals = np.flatnonzero(bang != efforts)
        best_gain = 0.0
        for start in range(0, len(proposals), block_rows):
            block = proposals[start : start + block_rows]
            trials = np.tile(efforts, (len(block), 1))
            trials[np.arange(len(block)), block] = e_total - efforts[block]
            trial_objs, trial_stocks = evaluate_schedule(trials, s_eq, r, prices, costs)
            gains = trial_objs - objective
            i = int(np.argmax(gains))
            if gains[i] > best_gain:
                best_gain = gains[i]
                adopted = trials[i].copy(), trial_objs[i], trial_stocks[i].copy()

        if best_gain == 0.0 and settled:
            converged = True
            break

    efforts, objective, stocks = adopted
    return AdjointSchedule(
        lambdas=lambdas,
        efforts=efforts,
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
    rest children in that order. Each step is ``evaluate_schedule``'s stage
    and objective update, so the objective equals the returned schedule's
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
        grown, _, harvest = _stage(stock[:, None], choices, s_eq, r)
        # row i holds the children of prefix i, so ravel keeps
        # itertools.product((e_total, 0.0), repeat=k+1) order; adding the
        # objective in place (IEEE addition commutes) saves a 2^k-wide array
        gain = prices[k] * harvest - costs[k]
        gain += objective[:, None]
        objective = gain.ravel()
        if k + 1 < horizon:
            stock = np.maximum(grown - harvest, 0.0).ravel()
    # argmax takes the first maximum: the earliest-harvesting schedule
    best = int(np.argmax(objective))
    rests = (best >> np.arange(horizon - 1, -1, -1)) & 1
    return choices[rests], objective[best]
