import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishcoop import control, env
from fishcoop.env import GROWTH_RATE_MAX, GROWTH_RATE_MIN, catchability, spawner_recruit


def single_owner_params(s_eq=1.0, r=1.0, e_total=1.0, price=1.0, cost=0.0):
    return env.EnvParams(
        n_agents=1, s_eq=s_eq, growth_rate=r, e_max=e_total, price=price, cost=cost
    )


class TestBruteForce:
    def test_single_step(self):
        params = single_owner_params(s_eq=1.0, e_total=1.0)
        schedule, objective = control.brute_force_optimal(params, 1)
        # q(s_eq) = 0.5 so one harvest step earns price * E / 2
        assert objective == pytest.approx(0.5)
        assert schedule[0] == 1.0

    def test_all_zero_objective_is_minus_costs(self):
        params = single_owner_params(cost=0.3)
        T = 4
        obj, _ = control.evaluate_schedule(
            np.zeros(T), 1.0, 1.0, np.ones(T), np.full(T, 0.3)
        )
        assert obj == pytest.approx(-T * 0.3)

    def test_longer_horizon_dominates(self):
        params = single_owner_params()
        _, obj1 = control.brute_force_optimal(params, 1)
        _, obj2 = control.brute_force_optimal(params, 2)
        assert obj2 >= obj1

    def test_dominance_over_enumeration(self):
        params = single_owner_params(s_eq=0.8, r=1.3)
        T = 8
        _, best = control.brute_force_optimal(params, T)
        prices, costs = np.ones(T), np.zeros(T)
        for schedule in itertools.product((1.0, 0.0), repeat=T):
            obj, _ = control.evaluate_schedule(
                np.array(schedule), 0.8, 1.3, prices, costs
            )
            assert obj <= best + 1e-12

    def test_horizon_cap(self):
        with pytest.raises(ValueError):
            control.brute_force_optimal(
                single_owner_params(), control.BRUTE_FORCE_MAX_HORIZON + 1
            )

    def test_zero_price_tie_breaks_early(self):
        params = single_owner_params(price=0.0)
        schedule, objective = control.brute_force_optimal(params, 3)
        assert objective == 0.0
        # every schedule ties at 0; earliest-harvesting wins
        assert np.array_equal(schedule, [1.0, 1.0, 1.0])


def enumerated_optimum(params, horizon, price, cost):
    """Schedule-by-schedule search, keeping strict improvements in
    itertools.product order so ties go to the earliest harvest."""
    e_total = params.n_agents * params.e_max
    best_obj, best = -np.inf, None
    for schedule in itertools.product((e_total, 0.0), repeat=horizon):
        obj, _ = control.evaluate_schedule(
            np.array(schedule), params.s_eq, params.growth_rate, price, cost
        )
        if obj > best_obj:
            best_obj, best = obj, np.array(schedule)
    return best, best_obj


def random_problem(seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(1, 11))
    params = env.EnvParams(
        n_agents=int(rng.integers(1, 5)),
        s_eq=float(rng.uniform(0.3, 3.0)),
        growth_rate=float(rng.uniform(0.3, 2.6)),
        e_max=float(rng.uniform(0.2, 1.5)),
    )
    price = rng.uniform(0.0, 2.0, horizon)
    cost = rng.uniform(0.0, 0.3, horizon)
    return params, horizon, price, cost


class TestBruteForceMatchesEnumeration:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems(self, seed):
        params, horizon, price, cost = random_problem(seed)
        schedule, objective = control.brute_force_optimal(params, horizon, price, cost)
        expected, expected_obj = enumerated_optimum(params, horizon, price, cost)
        assert np.array_equal(schedule, expected)
        assert objective == expected_obj

    def test_zero_price_ties_everywhere(self):
        params, horizon, _, cost = random_problem(99)
        price = np.zeros(horizon)
        schedule, objective = control.brute_force_optimal(params, horizon, price, cost)
        expected, expected_obj = enumerated_optimum(params, horizon, price, cost)
        assert np.array_equal(schedule, expected)
        assert np.all(schedule == params.n_agents * params.e_max)
        assert objective == expected_obj

    @pytest.mark.parametrize("horizon", range(17, control.BRUTE_FORCE_MAX_HORIZON + 1))
    def test_objective_is_the_schedules_past_old_cap(self, horizon):
        params = single_owner_params(s_eq=0.8, r=1.3)
        price = np.random.default_rng(horizon).uniform(0.5, 1.5, horizon)
        cost = np.full(horizon, 0.05)
        schedule, objective = control.brute_force_optimal(params, horizon, price, cost)
        evaluated, _ = control.evaluate_schedule(schedule, 0.8, 1.3, price, cost)
        assert objective == evaluated


class TestSimulatorAgreement:
    """The module docstring's claim: for total effort up to 2 s_eq a
    schedule's objective is the simulator's welfare under the same efforts.
    Cost is 0 because the simulator charges it per agent, not per fleet."""

    @given(
        n=st.integers(1, 4),
        e_max=st.floats(0.1, 2.0),
        headroom=st.floats(1.0, 4.0),
        r=st.floats(GROWTH_RATE_MIN, GROWTH_RATE_MAX),
        price=st.floats(0.1, 3.0),
        harvests=st.lists(st.booleans(), min_size=1, max_size=15),
    )
    @settings(max_examples=100)
    def test_schedule_matches_env_rollout(self, n, e_max, headroom, r, price, harvests):
        s_eq = headroom * n * e_max / 2.0
        horizon = len(harvests)
        params = env.EnvParams(
            n_agents=n, s_eq=s_eq, growth_rate=r, e_max=e_max, price=price,
            max_steps=horizon,
        )
        state = env.reset(params)
        stocks, welfare = [state.stock], 0.0
        for harvest in harvests:
            state, outcome = env.step(state, np.full(n, e_max if harvest else 0.0), params)
            stocks.append(state.stock)
            welfare += outcome.rewards.sum()
            if outcome.done:  # compare only the steps the simulator ran
                break
        steps = state.t
        efforts = np.where(harvests[:steps], n * e_max, 0.0)
        objective, post_harvest = control.evaluate_schedule(
            efforts, s_eq, r, np.full(steps, price), np.zeros(steps)
        )
        assert objective == pytest.approx(welfare, rel=1e-9, abs=1e-12)
        # the simulator's stock is the regrown post-harvest stock
        regrown = [spawner_recruit(w, s_eq, r) for w in post_harvest]
        assert regrown == pytest.approx(stocks, rel=1e-9, abs=1e-12)


class TestSweep:
    def test_single_step_transversality(self):
        sweep = control.forward_backward_sweep(single_owner_params(), 1)
        assert sweep.converged
        assert sweep.efforts[0] == 1.0
        assert sweep.lambdas[-1] == 0.0

    def test_matches_oracle_at_t10(self):
        params = single_owner_params()
        sweep = control.forward_backward_sweep(params, 10)
        _, oracle = control.brute_force_optimal(params, 10)
        assert sweep.converged
        assert abs(sweep.objective - oracle) <= 1e-9

    @pytest.mark.parametrize("horizon", range(1, 13))
    def test_soundness_up_to_t12(self, horizon):
        params = single_owner_params(s_eq=1.0, r=1.0)
        sweep = control.forward_backward_sweep(params, horizon)
        _, oracle = control.brute_force_optimal(params, horizon)
        if sweep.converged:
            assert sweep.objective >= (1.0 - 1e-6) * oracle

    def test_soundness_other_instances(self):
        for s_eq, r in [(0.7, 1.5), (1.4, 0.8), (2.0, 2.0)]:
            params = single_owner_params(s_eq=s_eq, r=r)
            sweep = control.forward_backward_sweep(params, 9)
            _, oracle = control.brute_force_optimal(params, 9)
            if sweep.converged:
                assert sweep.objective >= (1.0 - 1e-6) * oracle

    def test_transversality_always(self):
        for horizon in (1, 5, 12):
            sweep = control.forward_backward_sweep(single_owner_params(), horizon)
            assert sweep.lambdas[horizon] == 0.0
            assert len(sweep.lambdas) == horizon + 1
            assert len(sweep.efforts) == horizon

    def test_efforts_exactly_bang_bang(self):
        sweep = control.forward_backward_sweep(single_owner_params(), 12)
        e_total = 1.0
        assert all(e in (0.0, e_total) for e in sweep.efforts)

    def test_final_step_always_harvests(self):
        # lambda_T = 0 makes the last coefficient price * q >= 0
        for horizon in (1, 4, 10):
            sweep = control.forward_backward_sweep(single_owner_params(), horizon)
            assert sweep.efforts[-1] == 1.0

    def test_no_bang_suggested_flip_improves_after_convergence(self):
        # stationarity of converged schedules: each bang-rule proposal was
        # checked by a forward evaluation and rejected
        params = single_owner_params()
        sweep = control.forward_backward_sweep(params, 10)
        assert sweep.converged
        base, _ = control.evaluate_schedule(
            sweep.efforts, 1.0, 1.0, np.ones(10), np.zeros(10)
        )
        for k in range(10):
            trial = sweep.efforts.copy()
            trial[k] = 1.0 - trial[k]
            obj, _ = control.evaluate_schedule(trial, 1.0, 1.0, np.ones(10), np.zeros(10))
            assert obj <= base + 1e-12

    def test_short_horizon_full_consistency(self):
        # for short horizons the realized coefficients match the schedule
        params = single_owner_params()
        for horizon in (1, 2, 3, 4):
            sweep = control.forward_backward_sweep(params, horizon)
            assert sweep.converged
            for k in range(horizon):
                grown = spawner_recruit(sweep.post_harvest_stock[k], 1.0, 1.0)
                coeff = (1.0 - sweep.lambdas[k + 1]) * catchability(grown, 1.0)
                # bang rule: full effort when the coefficient is >= 0 (a tie harvests)
                assert sweep.efforts[k] == (1.0 if coeff >= 0 else 0.0)

    def test_zero_price(self):
        params = single_owner_params(price=0.0)
        sweep = control.forward_backward_sweep(params, 5)
        assert sweep.objective == pytest.approx(0.0)

    def test_per_step_price(self):
        # price zero except at the final step: harvesting early is wasted
        params = single_owner_params()
        T = 4
        price = np.array([0.0, 0.0, 0.0, 1.0])
        sweep = control.forward_backward_sweep(params, T, price=price)
        _, oracle = control.brute_force_optimal(params, T, price=price)
        assert sweep.objective == pytest.approx(oracle, abs=1e-9)
        # resting preserves the stock at s_eq, so the final harvest earns q * E = 0.5
        assert oracle == pytest.approx(0.5)

    def test_non_convergence_is_reported(self):
        params = single_owner_params()
        sweep = control.forward_backward_sweep(params, 10, max_iter=2)
        assert not sweep.converged
        assert sweep.iterations == 2
        assert sweep.objective > 0  # best-found schedule still returned

    def test_unconverged_sweep_returns_the_flip_it_adopted(self):
        # the first iteration adopts a better schedule than the all-harvest
        # one it started from; that adopted schedule is the result
        params = env.EnvParams(n_agents=1, s_eq=1.0)
        one = control.forward_backward_sweep(params, 19, max_iter=1)
        start, _ = control.evaluate_schedule(
            np.full(19, params.e_max), params.s_eq, params.growth_rate,
            np.ones(19), np.zeros(19),
        )
        assert not one.converged
        assert one.objective == pytest.approx(6.3789, abs=1e-4)
        assert one.objective > start
        assert one.objective == control.evaluate_schedule(
            one.efforts, params.s_eq, params.growth_rate, np.ones(19), np.zeros(19)
        )[0]

    def test_long_horizon_proposals_stay_in_blocks(self):
        # an unblocked (T, T) proposal array peaked at 122 MB at T = 2000
        params = env.EnvParams(n_agents=1, s_eq=1.0)
        tracemalloc.start()
        try:
            control.forward_backward_sweep(params, 2000, max_iter=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
