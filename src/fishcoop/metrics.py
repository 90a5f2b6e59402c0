"""Evaluation metrics: welfare, fairness, signal influence, convergence.

The signal-influence score is the mutual information between the signal
value and a discretized action sampled from the policy, estimated over
random signal-free partial states (uniform signal prior, per-signal action
sampling, natural logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import DoneReason


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    length: int
    social_welfare: float
    per_agent_returns: np.ndarray
    done_reason: DoneReason


@dataclass(frozen=True)
class CicConfig:
    n_states: int = 100
    n_samples: int = 100
    n_bins: int = 10

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.n_states < 1 or self.n_samples < 1:
            raise ValueError("n_states and n_samples must be positive")


def jain_index(x: np.ndarray) -> float:
    """Jain fairness (sum x)^2 / (N sum x^2); 1 iff the allocation is equal."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("allocations must be nonnegative")
    sq_sum = float(np.sum(x**2))
    if sq_sum == 0:
        raise ValueError("Jain index undefined for the all-zero allocation")
    return float(np.sum(x)) ** 2 / (len(x) * sq_sum)


def gini_coefficient(x: np.ndarray) -> float:
    """Gini inequality: mean absolute pairwise gap over twice the mean."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("allocations must be nonnegative")
    total = float(np.sum(x))
    if total == 0:
        raise ValueError("Gini coefficient undefined for zero total allocation")
    pairwise = np.abs(x[:, None] - x[None, :]).sum()
    return float(pairwise) / (2.0 * len(x) * total)


def uniform_partial_state(e_max: float, price: float = 1.0):
    """Default sampler of signal-free observation pieces: previous effort
    uniform on [0, e_max], previous reward uniform on [0, price * e_max]."""

    def sample(rng: np.random.Generator) -> tuple[float, float]:
        return float(rng.uniform(0.0, e_max)), float(rng.uniform(0.0, price * e_max))

    return sample


def cic(
    policy,
    sample_partial_state,
    config: CicConfig,
    g: int,
    e_max: float,
    rng: np.random.Generator,
) -> float:
    """Signal-action mutual information, in nats, averaged over random states.

    ``policy`` is either a Gaussian policy, an object with ``forward(obs)``
    returning (means, values) for a (rows, 2 + g) observation batch and a
    scalar ``std`` (a ``PpoAgent``), or a callable ``sample_efforts(obs, n,
    rng)`` returning n sampled actions for one observation ``[prev_effort,
    prev_reward, one_hot(signal)]``. A Gaussian policy is scored in one
    forward over all ``n_states * g`` observations; its actions are
    ``clip(mean + std * z, 0, e_max)`` with z drawn, per state, after that
    state's ``sample_partial_state(rng)``, as ``rng.normal(mean, std, n)``
    would draw them. Actions are discretized into ``n_bins`` equal intervals
    over [0, e_max].
    """
    if g < 1:
        raise ValueError(f"signal cardinality must be >= 1, got {g}")
    n_states, n_samples = config.n_states, config.n_samples
    gaussian = hasattr(policy, "forward")
    # rows [prev_effort, prev_reward, one_hot(signal)] per (state, signal)
    obs = np.empty((n_states, g, 2 + g))
    obs[:, :, 2:] = np.eye(g)
    actions = np.empty((n_states, g, n_samples))
    for k in range(n_states):
        obs[k, :, :2] = sample_partial_state(rng)
        if gaussian:
            rng.standard_normal(out=actions[k])
        else:
            for j in range(g):
                actions[k, j] = policy(obs[k, j], n_samples, rng)
    if gaussian:
        means, _ = policy.forward(obs.reshape(n_states * g, 2 + g))
        # in place, the float operations of rng.normal and np.clip
        actions *= policy.std
        actions += means.reshape(n_states, g, 1)
        np.clip(actions, 0.0, e_max, out=actions)
    return _signal_action_mi(actions, config.n_bins, e_max)


def _signal_action_mi(actions: np.ndarray, n_bins: int, e_max: float) -> float:
    """Mean over states of I(signal; action bin) for (n_states, g, n_samples)
    actions, a uniform signal prior, and bins of [0, e_max]; overwrites
    ``actions``. The terms of each state, in (signal, bin) order, and then
    the states are summed sequentially: NumPy's pairwise ``sum`` would round
    differently."""
    n_states, g, n_samples = actions.shape
    actions /= e_max
    actions *= n_bins
    bins = actions.astype(int)
    np.minimum(bins, n_bins - 1, out=bins)
    if (bins < 0).any():
        raise ValueError("actions must be nonnegative")
    # one bincount over all (state, signal) rows: row i counts into bins i * n_bins + b
    bins += np.arange(n_states * g).reshape(n_states, g, 1) * n_bins
    counts = np.bincount(bins.ravel(), minlength=n_states * g * n_bins)
    p_signal = 1.0 / g
    # rows: states, then signal values; cols: action bins; joint p(a, g)
    joint = counts.reshape(n_states, g, n_bins) / n_samples * p_signal
    p_action = joint.sum(axis=1, keepdims=True)
    seen = joint > 0
    p_seen = joint[seen]
    ratios = p_seen / np.broadcast_to(p_action * p_signal, joint.shape)[seen]
    # math.log, not np.log: NumPy's vectorized log differs from libm's in the
    # last bit for about 1 in 2500 arguments
    terms = np.zeros_like(joint)
    terms[seen] = p_seen * np.array([math.log(x) for x in ratios.tolist()])
    mi = np.cumsum(terms.reshape(n_states, -1), axis=1)[:, -1]
    return float(np.cumsum(mi / n_states)[-1])


def access_bins(mean_efforts: np.ndarray, e_max: float) -> tuple[int, int, int]:
    """Counts of (idle, moderate, active) agents at thresholds 0.33 and 0.66
    of the maximum effort; intervals [0, .33), [.33, .66), [.66, 1]."""
    fractions = np.asarray(mean_efforts, dtype=float) / e_max
    idle = int(np.sum(fractions < 0.33))
    moderate = int(np.sum((fractions >= 0.33) & (fractions < 0.66)))
    active = int(np.sum(fractions >= 0.66))
    return idle, moderate, active


# The early-stopping criterion of convergence_check.
CONVERGENCE_WINDOW = 200
CONVERGENCE_SMOOTH = CONVERGENCE_WINDOW // 10
CONVERGENCE_MIN_LENGTH_FRAC = 0.95


def convergence_check(history: list[EpisodeRecord], t_max: int, sw_tol: float = 0.05) -> bool:
    """Early-stopping test over the last ``CONVERGENCE_WINDOW`` episodes:
    every episode ran at least ``CONVERGENCE_MIN_LENGTH_FRAC`` of the horizon,
    and the social welfare's rolling mean over ``CONVERGENCE_SMOOTH`` episodes
    drifts by at most ``sw_tol`` of the window mean (max-min spread)."""
    if len(history) < CONVERGENCE_WINDOW:
        return False
    recent = history[-CONVERGENCE_WINDOW:]
    if any(rec.length < CONVERGENCE_MIN_LENGTH_FRAC * t_max for rec in recent):
        return False
    sw = np.array([rec.social_welfare for rec in recent])
    kernel = np.ones(CONVERGENCE_SMOOTH) / CONVERGENCE_SMOOTH
    rolling = np.convolve(sw, kernel, mode="valid")
    window_mean = float(np.mean(sw))
    if window_mean == 0.0:
        return bool(np.max(rolling) == np.min(rolling))
    spread = float(np.max(rolling) - np.min(rolling))
    return spread / abs(window_mean) <= sw_tol


BETA_CF_MAX_ITER = 10_000
BETA_CF_EPS = math.ulp(1.0)  # float64 machine epsilon
_BETA_CF_TINY = 1e-300  # keeps the Lentz denominators away from zero


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _BETA_CF_TINY else _BETA_CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= BETA_CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge: a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0: NaN for a NaN x, 0.0 at x <= 0, 1.0 at x >= 1.

    Continued fraction by the modified Lentz method, taken for I_{1-x}(b, a)
    past x = (a+1)/(a+b+2), where it converges faster (Press et al.,
    Numerical Recipes, 3rd ed., section 6.4).
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    prefactor = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return prefactor * _beta_continued_fraction(a, b, x) / a
    return 1.0 - prefactor * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Equal-variance two-sample t statistic and two-sided p-value.

    The p-value comes from the Student-t CDF via the regularized incomplete
    beta identity p = I_{df/(df+t^2)}(df/2, 1/2), evaluated by
    ``regularized_incomplete_beta`` (a Lentz continued fraction). A sample
    holding NaN gives a NaN statistic and p-value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("both samples need at least two observations")
    mean_gap = float(np.mean(a) - np.mean(b))
    df = na + nb - 2
    pooled_var = ((na - 1) * np.var(a, ddof=1) + (nb - 1) * np.var(b, ddof=1)) / df
    if pooled_var == 0.0:
        if mean_gap == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean_gap), 0.0
    t = mean_gap / math.sqrt(pooled_var * (1.0 / na + 1.0 / nb))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return t, p


def relative_difference(with_signal: float, without: float) -> float:
    """(a - b) / b, the signed change relative to the no-signal baseline."""
    if without == 0:
        raise ValueError("relative difference undefined for zero baseline")
    return (with_signal - without) / without


def per_signal_effort_profile(
    actions: np.ndarray, signal_indices: np.ndarray, g: int
) -> np.ndarray:
    """G x N matrix of each agent's mean effort at each signal value.

    ``actions`` is (steps, agents); rows for signal values never seen in the
    episode are NaN.
    """
    actions = np.asarray(actions, dtype=float)
    signal_indices = np.asarray(signal_indices, dtype=int)
    if len(actions) != len(signal_indices):
        raise ValueError("actions and signal indices must align")
    n_agents = actions.shape[1] if actions.ndim == 2 else 0
    profile = np.full((g, n_agents), np.nan)
    for j in range(g):
        mask = signal_indices == j
        if np.any(mask):
            profile[j] = actions[mask].mean(axis=0)
    return profile
