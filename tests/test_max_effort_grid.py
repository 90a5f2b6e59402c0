"""The all-max-effort grid pass against env.step episodes, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from fishcoop import analytics, env


def step_episode(params, horizon):
    """One all-max-effort env.step episode: its length, welfare and done reason."""
    efforts = np.full(params.n_agents, params.e_max)
    state = env.reset(params)
    welfare = 0.0
    reason = env.DoneReason.RUNNING
    for _ in range(horizon):
        state, outcome = env.step(state, efforts, params)
        welfare += float(outcome.rewards.sum())
        if outcome.done:
            reason = outcome.done_reason
            break
    return state.t, welfare, reason


def random_problem(rng):
    n = int(rng.integers(1, 20))
    r = float(rng.choice([env.GROWTH_RATE_MIN, env.GROWTH_RATE_MAX, rng.uniform(0.3, 2.6)]))
    e_max = float(rng.uniform(0.2, 2.0))
    params = env.EnvParams(
        n_agents=n,
        s_eq=1.0,
        growth_rate=r,
        e_max=e_max,
        price=float(rng.uniform(0.5, 2.0)),
        cost=float(rng.choice([0.0, rng.uniform(0.0, 0.3)])),
        max_steps=int(rng.integers(1, 120)),
    )
    lsh = analytics.limit_sustainable_harvesting(n, r, e_max)
    s_eqs = np.sort(lsh * rng.uniform(0.3, 1.5, int(rng.integers(1, 30))))
    horizon = int(rng.choice([1, params.max_steps, rng.integers(1, 2 * params.max_steps + 1)]))
    return params, s_eqs, horizon


def assert_rows_equal_step_episodes(params, s_eqs, horizon):
    lengths, welfare, depleted = analytics.max_effort_episodes(params, s_eqs, horizon)
    for i, s_eq in enumerate(s_eqs.tolist()):
        length, want, reason = step_episode(dataclasses.replace(params, s_eq=s_eq), horizon)
        assert lengths[i] == length
        assert welfare[i].tobytes() == np.float64(want).tobytes()
        assert depleted[i] == (reason is env.DoneReason.DEPLETED)
        got = analytics.max_effort_baseline(dataclasses.replace(params, s_eq=s_eq), horizon)
        assert (got.length, got.done_reason) == (length, reason)
        assert np.float64(got.social_welfare).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_grid_pass_equals_step_episodes(seed):
    assert_rows_equal_step_episodes(*random_problem(np.random.default_rng(seed)))


@pytest.mark.parametrize("n", range(1, 20))
def test_every_population_size_at_the_stability_bounds(n):
    for r in (env.GROWTH_RATE_MIN, env.GROWTH_RATE_MAX):
        params = env.EnvParams(n_agents=n, s_eq=1.0, growth_rate=r, cost=0.05, max_steps=60)
        lsh = analytics.limit_sustainable_harvesting(n, r, 1.0)
        s_eqs = lsh * np.linspace(0.4, 1.3, 19)
        for horizon in (1, 30, 60, 90):
            assert_rows_equal_step_episodes(params, s_eqs, horizon)


def test_grid_with_no_survivor():
    params = env.EnvParams(n_agents=4, s_eq=1.0, cost=0.1, max_steps=200)
    s_eqs = analytics.limit_immediate_depletion(4, 1.0) * np.linspace(0.1, 1.5, 15)
    _, _, depleted = analytics.max_effort_episodes(params, s_eqs, 200)
    assert depleted.all()
    assert_rows_equal_step_episodes(params, s_eqs, 200)
    assert analytics.empirical_lsh(4, 1.0, 1.0, 200, s_eqs) is None


def test_grid_points_are_checked_at_both_ends():
    params = env.EnvParams(n_agents=2, s_eq=1.0)
    with pytest.raises(ValueError, match="s_eq must be positive"):
        analytics.max_effort_episodes(params, [0.0, 1.0], 10)
    with pytest.raises(ValueError, match="s_eq must be finite"):
        analytics.max_effort_episodes(params, [1.0, math.inf], 10)


class TestEmpiricalLshGrid:
    def test_rejects_nan_in_grid(self):
        lsh = analytics.limit_sustainable_harvesting(2, 1.0, 1.0)
        grid = np.array([1.05 * lsh, np.nan, 1.2 * lsh])
        with pytest.raises(ValueError, match="strictly ascending"):
            analytics.empirical_lsh(2, 1.0, 1.0, 100, grid)

    @pytest.mark.parametrize("seed", range(20))
    def test_first_survivor_of_step_episodes(self, seed):
        params, s_eqs, horizon = random_problem(np.random.default_rng(seed))
        # odd seeds halve the grid, so that often no point survives
        s_eqs = np.unique(s_eqs) / (1 + seed % 2)
        want = None
        for s_eq in s_eqs.tolist():
            single = dataclasses.replace(params, s_eq=s_eq, max_steps=horizon)
            if step_episode(single, horizon)[2] is not env.DoneReason.DEPLETED:
                want = s_eq
                break
        got = analytics.empirical_lsh(
            params.n_agents, params.growth_rate, params.e_max, horizon, s_eqs
        )
        assert got == want
