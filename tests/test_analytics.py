import math

import numpy as np
import pytest

from fishcoop import analytics, env


class TestLimits:
    def test_lsh_single_agent_r1(self):
        # e / (2 (e - 1)) = 0.791, the per-agent constant at unit growth
        assert analytics.limit_sustainable_harvesting(1, 1.0, 1.0) == pytest.approx(
            0.7910, abs=1e-4
        )

    def test_lsh_linear_in_population(self):
        single = analytics.limit_sustainable_harvesting(1, 1.0, 1.0)
        assert analytics.limit_sustainable_harvesting(2, 1.0, 1.0) == pytest.approx(
            2 * single
        )
        assert analytics.limit_sustainable_harvesting(2, 1.0, 1.0) == pytest.approx(
            1.5820, abs=1e-4
        )

    def test_lsh_r2(self):
        # e^2 / (2 (e^2 - 1)), commonly quoted rounded to 0.58
        expected = math.exp(2) / (2 * (math.exp(2) - 1))
        value = analytics.limit_sustainable_harvesting(1, 2.0, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.5783, abs=1e-4)

    def test_lsh_zero_rate(self):
        with pytest.raises(ValueError):
            analytics.limit_sustainable_harvesting(1, 0.0, 1.0)

    def test_lid(self):
        assert analytics.limit_immediate_depletion(2, 1.0) == 1.0
        assert analytics.limit_immediate_depletion(64, 1.0) == 32.0
        assert analytics.limit_immediate_depletion(1, 0.0) == 0.0

    def test_ms_of_lid(self):
        assert analytics.ms_of_lid(1.0) == pytest.approx(0.6321, abs=1e-4)
        assert analytics.ms_of_lid(2.0) == pytest.approx(0.8647, abs=1e-4)
        assert analytics.ms_of_lid(50.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            analytics.ms_of_lid(0.0)

    def test_ms_of_lid_is_ratio_of_limits(self):
        for n, r in [(2, 1.0), (8, 2.0), (16, 0.5)]:
            ratio = analytics.limit_immediate_depletion(
                n, 1.0
            ) / analytics.limit_sustainable_harvesting(n, r, 1.0)
            assert analytics.ms_of_lid(r) == pytest.approx(ratio)

    def test_depletion_limit_below_sustainable_limit(self):
        lo, hi = analytics.growth_rate_bounds()
        for r in np.linspace(lo, hi, 25):
            limits = analytics.theory_limits(8, float(r), 1.0)
            assert limits.s_lid < limits.s_lsh

    def test_seq_from_multiplier(self):
        lsh8 = analytics.limit_sustainable_harvesting(8, 1.0, 1.0)
        assert analytics.seq_from_multiplier(1.0, 8, 1.0, 1.0) == pytest.approx(lsh8)
        assert analytics.seq_from_multiplier(0.5, 2, 1.0, 1.0) == pytest.approx(
            0.7910, abs=1e-4
        )
        assert analytics.seq_from_multiplier(0.0, 5, 1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            analytics.seq_from_multiplier(-0.1, 5, 1.0, 1.0)


class TestGrowthRateBounds:
    def test_values(self):
        lo, hi = analytics.growth_rate_bounds()
        assert lo == pytest.approx(0.2320, abs=1e-4)
        assert hi == pytest.approx(2.6783, abs=1e-4)

    def test_defining_equation(self):
        # both endpoints solve e^r = 2 e r
        for r in analytics.growth_rate_bounds():
            assert abs(math.exp(r) - 2.0 * math.e * r) < 1e-9

    def test_lambert_w_roots(self):
        # -r is W_0(-1/(2e)) at the low end and W_{-1}(-1/(2e)) at the high end
        lo, hi = analytics.growth_rate_bounds()
        for w in (-lo, -hi):
            assert abs(w * math.exp(w) + 1.0 / (2.0 * math.e)) < 1e-15
        assert -lo > -1.0 > -hi


class TestSignFlipAtLsh:
    def test_difference_equation_sign_condition(self):
        # beta e^r - 1 changes sign exactly at s_eq = s_lsh,
        # with beta = 1 - N e_max / (2 s_eq)
        n, r, e_max = 4, 1.0, 1.0
        lsh = analytics.limit_sustainable_harvesting(n, r, e_max)

        def condition(s_eq):
            beta = 1.0 - n * e_max / (2.0 * s_eq)
            return beta * math.exp(r) - 1.0

        eps = 1e-9
        assert condition(lsh * (1 + 1e-6)) > 0
        assert condition(lsh * (1 - 1e-6)) < 0
        assert abs(condition(lsh)) < eps


class TestMaxEffortBaseline:
    def test_one_shot_depletion_below_lid(self):
        for n, m in [(2, 0.5), (4, 0.3), (8, 0.6)]:
            s_eq = m * analytics.limit_immediate_depletion(n, 1.0)
            params = env.EnvParams(n_agents=n, s_eq=s_eq, growth_rate=1.0, e_max=1.0)
            result = analytics.max_effort_baseline(params, 500)
            assert result.done_reason is env.DoneReason.DEPLETED
            assert result.length <= 2
            assert result.social_welfare == pytest.approx(s_eq, abs=1e-9)

    def test_survives_above_lsh(self):
        n = 2
        s_eq = 1.05 * analytics.limit_sustainable_harvesting(n, 1.0, 1.0)
        params = env.EnvParams(n_agents=n, s_eq=s_eq, max_steps=500)
        result = analytics.max_effort_baseline(params, 500)
        assert result.length == 500
        assert result.done_reason is not env.DoneReason.DEPLETED

    def test_zero_effort_variant(self):
        params = env.EnvParams(n_agents=2, s_eq=1.0, e_max=1.0)
        state = env.reset(params)
        welfare = 0.0
        for _ in range(100):
            state, out = env.step(state, np.zeros(2), params)
            welfare += out.rewards.sum()
            if out.done:
                break
        assert welfare == 0.0
        assert state.t == 100


class TestEmpiricalLsh:
    def grid(self, n, r=1.0, e_max=1.0):
        k = analytics.k_constant(r, e_max)
        return np.array([0.01 * k * n * i for i in range(80, 111)])

    def test_close_to_theory(self):
        for n in (2, 16):
            found = analytics.empirical_lsh(n, 1.0, 1.0, 500, self.grid(n))
            theory = analytics.limit_sustainable_harvesting(n, 1.0, 1.0)
            assert found is not None
            assert abs(found - theory) / theory < 0.05

    def test_absent_when_grid_below_lid(self):
        lid = analytics.limit_immediate_depletion(4, 1.0)
        grid = np.linspace(0.1 * lid, 0.9 * lid, 9)
        assert analytics.empirical_lsh(4, 1.0, 1.0, 200, grid) is None

    def test_monotone_in_population(self):
        values = []
        for n in (2, 4, 8):
            found = analytics.empirical_lsh(n, 1.0, 1.0, 300, self.grid(n))
            values.append(found)
        assert values[0] < values[1] < values[2]

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            analytics.empirical_lsh(2, 1.0, 1.0, 100, np.array([]))
