import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishcoop import analytics, env


def params(n=2, s_eq=10.0, r=1.0, e_max=1.0, **kw):
    return env.EnvParams(n_agents=n, s_eq=s_eq, growth_rate=r, e_max=e_max, **kw)


class TestGrowthRateConstants:
    def test_equal_lambert_w_bit_for_bit(self):
        from scipy.special import lambertw

        z = -1.0 / (2.0 * math.e)
        assert env.GROWTH_RATE_MIN == float(-lambertw(z, 0).real)
        assert env.GROWTH_RATE_MAX == float(-lambertw(z, -1).real)

    def test_rejects_one_ulp_outside(self):
        # each bound itself is accepted: test_params_accept_the_whole_stable_interval
        for r in (
            math.nextafter(env.GROWTH_RATE_MIN, 0.0),
            math.nextafter(env.GROWTH_RATE_MAX, math.inf),
        ):
            with pytest.raises(ValueError, match="outside stable interval"):
                params(r=r)

    def test_import_loads_no_scipy(self):
        # the package runs on NumPy alone
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import fishcoop, fishcoop.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_run_and_replay_load_no_scipy(self, tmp_path):
        # summary.csv's p-values come from metrics.regularized_incomplete_beta
        src = str(Path(__file__).resolve().parents[1] / "src")
        first, second = tmp_path / "first", tmp_path / "second"
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from fishcoop import cli; "
            f"assert cli.main(['run', '--agents', '2', '--ms', '0.8', '--signal', '1,4', "
            f"'--trials', '2', '--seed', '3', '--episodes', '4', '--tmax', '10', "
            f"'--out', {str(first)!r}]) == 0; "
            f"assert cli.main(['replay', '--manifest', {str(first / 'manifest.json')!r}, "
            f"'--out', {str(second)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
        for run_dir in (first, second):
            with open(run_dir / "summary.csv", newline="") as f:
                rows = {row["cell"]: row for row in csv.DictReader(f)}
            assert 0.0 < float(rows["n2_g4_ms0.8"]["sw_p_value"]) < 1.0


class TestCatchability:
    def test_zero_stock(self):
        assert env.catchability(0.0, 10.0) == 0.0

    def test_saturation_boundary(self):
        assert env.catchability(20.0, 10.0) == 1.0
        assert env.catchability(25.0, 10.0) == 1.0

    def test_at_equilibrium(self):
        assert env.catchability(10.0, 10.0) == 0.5

    def test_bad_s_eq(self):
        with pytest.raises(ValueError):
            env.catchability(1.0, 0.0)
        with pytest.raises(ValueError):
            env.catchability(1.0, -1.0)


def harvest(total_effort, stock, s_eq):
    """env.advance's total harvest; the growth rate does not enter it."""
    return env.advance(stock, total_effort, s_eq, 1.0)[0]


class TestTotalHarvest:
    def test_no_effort(self):
        assert harvest(0.0, 10.0, 10.0) == 0.0

    def test_proportional_branch(self):
        # q = 0.5, q * E = 1 <= stock
        assert harvest(2.0, 10.0, 10.0) == pytest.approx(1.0)

    def test_clamped_at_stock(self):
        assert harvest(100.0, 10.0, 10.0) == 10.0

    @given(
        effort=st.floats(0, 1e3),
        stock=st.floats(0, 1e3),
        s_eq=st.floats(0.01, 1e3),
    )
    def test_never_exceeds_stock(self, effort, stock, s_eq):
        assert harvest(effort, stock, s_eq) <= stock

    @given(
        e1=st.floats(0, 100),
        e2=st.floats(0, 100),
        stock=st.floats(0, 100),
    )
    def test_monotone_in_effort(self, e1, e2, stock):
        lo, hi = sorted((e1, e2))
        assert harvest(lo, stock, 5.0) <= harvest(hi, stock, 5.0)


class TestAdvance:
    @staticmethod
    def states(seed, size=2000):
        rng = np.random.default_rng(seed)
        s_eq = rng.uniform(0.01, 50.0, size)
        r = rng.uniform(env.GROWTH_RATE_MIN, env.GROWTH_RATE_MAX, size)
        # stocks up to 3 s_eq (saturated catchability) and efforts up to
        # 4 s_eq (harvest clamped at the stock), with exact zeros and the kink
        stock = s_eq * rng.uniform(0.0, 3.0, size)
        stock[:20] = 0.0
        stock[20:40] = 2.0 * s_eq[20:40]
        effort = s_eq * rng.uniform(0.0, 4.0, size)
        effort[40:60] = 0.0
        return stock, effort, s_eq, r

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_scalar_references_bit_for_bit(self, seed):
        stock, effort, s_eq, r = self.states(seed)
        assert np.any(stock > 2.0 * s_eq)
        assert np.any(np.minimum(stock / (2.0 * s_eq), 1.0) * effort > stock)
        got_h, got_s = env.advance(stock, effort, s_eq, r)
        for i in range(len(stock)):
            want_h = min(env.catchability(stock[i], s_eq[i]) * effort[i], stock[i])
            want_s = env.spawner_recruit(stock[i] - want_h, s_eq[i], r[i])
            assert got_h[i] == want_h, i
            assert got_s[i] == want_s, i
            # a float call is the same stage
            h, s = env.advance(float(stock[i]), float(effort[i]), float(s_eq[i]), float(r[i]))
            assert (h, s) == (want_h, want_s), i


class TestSpawnerRecruit:
    def test_fixed_point(self):
        for s_eq in (0.5, 1.0, 7.3):
            assert env.spawner_recruit(s_eq, s_eq, 1.4) == pytest.approx(s_eq)

    def test_zero(self):
        assert env.spawner_recruit(0.0, 5.0, 1.0) == 0.0

    def test_peak_value(self):
        # the map peaks at x = s_eq / r with value (s_eq / r) e^(r-1)
        s_eq, r = 3.0, 2.0
        x = s_eq / r
        assert env.spawner_recruit(x, s_eq, r) == pytest.approx(x * np.exp(r - 1))

    def test_negative_input(self):
        with pytest.raises(ValueError):
            env.spawner_recruit(-0.1, 5.0, 1.0)


class TestReset:
    def test_initial_stock(self):
        state = env.reset(params(s_eq=5.0))
        assert state.stock == 5.0

    def test_deterministic(self):
        a, b = env.reset(params()), env.reset(params())
        assert a.stock == b.stock and a.t == b.t
        assert np.array_equal(a.last_efforts, b.last_efforts)

    def test_clock_and_memory_zeroed(self):
        state = env.reset(params(n=3))
        assert state.t == 0
        assert np.all(state.last_efforts == 0)
        assert np.all(state.last_rewards == 0)


class TestStep:
    def test_zero_effort_grows_and_charges_cost(self):
        p = params(n=2, s_eq=10.0, cost=0.25)
        state = env.reset(p)
        state = env.EnvState(stock=4.0, t=0, last_efforts=state.last_efforts,
                             last_rewards=state.last_rewards)
        nxt, out = env.step(state, np.zeros(2), p)
        assert nxt.stock == pytest.approx(env.spawner_recruit(4.0, 10.0, 1.0))
        assert np.allclose(out.rewards, -0.25)
        assert np.all(out.harvests == 0)

    def test_immediate_depletion_at_lid_boundary(self):
        # s_eq = N e_max / 2: full effort harvests the whole stock in one step
        p = params(n=2, s_eq=1.0, e_max=1.0)
        state = env.reset(p)
        nxt, out = env.step(state, np.ones(2), p)
        assert out.done and out.done_reason is env.DoneReason.DEPLETED
        assert out.harvests.sum() == pytest.approx(1.0)
        assert nxt.stock == 0.0

    def test_proportional_shares(self):
        p = params(n=2, s_eq=10.0)
        state = env.reset(p)
        _, out = env.step(state, np.array([1.0, 0.0]), p)
        assert out.harvests == pytest.approx([0.5, 0.0])
        assert out.rewards == pytest.approx([0.5, 0.0])

    def test_out_of_range_effort(self):
        p = params()
        state = env.reset(p)
        with pytest.raises(ValueError):
            env.step(state, np.array([2.0, 0.0]), p)
        with pytest.raises(ValueError):
            env.step(state, np.array([-0.1, 0.0]), p)

    def test_nan_effort_rejected(self):
        p = params()
        with pytest.raises(ValueError):
            env.step(env.reset(p), np.array([np.nan, 0.5]), p)

    @pytest.mark.parametrize("e_max", [1.0, 0.7])
    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "-tiny", "e_max+ulp"])
    def test_rejects_each_effort_just_outside_the_range(self, e_max, position, kind):
        bad = {
            "nan": np.nan,
            "inf": np.inf,
            "-inf": -np.inf,
            "-tiny": -1e-300,
            "e_max+ulp": np.nextafter(e_max, np.inf),
        }[kind]
        p = params(n=3, e_max=e_max)
        efforts = np.array([0.0, 0.5 * e_max, e_max])
        env.step(env.reset(p), efforts, p)  # both ends of the range are allowed
        efforts[position] = bad
        with pytest.raises(ValueError, match="efforts must lie in"):
            env.step(env.reset(p), efforts, p)

    def test_step_finished_episode(self):
        p = params(n=2, s_eq=1.0)
        state = env.reset(p)
        state, out = env.step(state, np.ones(2), p)
        assert out.done
        with pytest.raises(RuntimeError):
            env.step(state, np.zeros(2), p)

    def test_horizon_reached(self):
        p = params(max_steps=3)
        state = env.reset(p)
        for expected_done in (False, False, True):
            state, out = env.step(state, np.zeros(2), p)
            assert out.done == expected_done
        assert out.done_reason is env.DoneReason.HORIZON_REACHED

    @given(data=st.data())
    @settings(max_examples=50)
    def test_conservation_per_step(self, data):
        n = data.draw(st.integers(2, 6))
        efforts = np.array([data.draw(st.floats(0, 1)) for _ in range(n)])
        stock = data.draw(st.floats(0.01, 20))
        p = params(n=n, s_eq=10.0, cost=0.1)
        state = env.EnvState(stock=stock, t=0, last_efforts=np.zeros(n),
                             last_rewards=np.zeros(n))
        _, out = env.step(state, efforts, p)
        total = harvest(float(efforts.sum()), stock, 10.0)
        assert out.harvests.sum() == pytest.approx(total, rel=1e-12, abs=1e-300)
        assert out.rewards.sum() == pytest.approx(p.price * total - n * p.cost, rel=1e-12, abs=1e-12)


class TestDynamicsProperties:
    def test_equilibrium_is_stationary(self):
        p = params(n=2, s_eq=3.7)
        state = env.reset(p)
        p_long = params(n=2, s_eq=3.7, max_steps=1001)
        for _ in range(1000):
            state, _ = env.step(state, np.zeros(2), p_long)
            assert abs(state.stock - 3.7) < 1e-10

    @given(
        r=st.floats(0.232, 2.678),
        s0_frac=st.floats(0.001, 2.0),
    )
    @settings(max_examples=100)
    def test_bounded_growth_inside_rate_interval(self, r, s0_frac):
        s_eq = 1.0
        stock = s0_frac * s_eq
        for _ in range(50):
            stock = env.spawner_recruit(stock, s_eq, r)
            assert stock <= 2.0 * s_eq

    def test_growth_bound_violated_outside_interval(self):
        # r = 4 is outside the stable interval: the peak exceeds 2 s_eq
        s_eq = 1.0
        stock = env.spawner_recruit(s_eq / 4.0, s_eq, 4.0)
        assert stock > 2.0 * s_eq

    def test_params_reject_unstable_growth(self):
        with pytest.raises(ValueError):
            params(r=4.0)

    def test_params_accept_the_whole_stable_interval(self):
        # the enforced interval is the Lambert-W one, not a 3-decimal rounding of it
        assert (env.GROWTH_RATE_MIN, env.GROWTH_RATE_MAX) == analytics.growth_rate_bounds()
        assert env.EnvParams(n_agents=1, s_eq=1.0, growth_rate=2.6783).growth_rate == 2.6783
        assert env.EnvParams(n_agents=1, s_eq=1.0, growth_rate=0.23197).growth_rate == 0.23197
        for r in analytics.growth_rate_bounds():
            assert abs(math.exp(r) - 2.0 * math.e * r) < 1e-9
            assert env.EnvParams(n_agents=1, s_eq=1.0, growth_rate=r).growth_rate == r

    @pytest.mark.parametrize(
        "field", ["s_eq", "growth_rate", "e_max", "price", "cost", "depletion_threshold"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_params_reject_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            env.EnvParams(**{"n_agents": 1, "s_eq": 1.0, field: value})
