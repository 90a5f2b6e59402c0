import math
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from fishcoop import metrics
from fishcoop.env import DoneReason


class TestJain:
    def test_equal_allocation(self):
        assert metrics.jain_index(np.full(7, 3.2)) == pytest.approx(1.0)

    def test_single_nonzero(self):
        assert metrics.jain_index([0, 0, 5, 0]) == pytest.approx(0.25)

    def test_direct_formula(self):
        assert metrics.jain_index([1.0, 3.0]) == pytest.approx(16 / 20)

    def test_all_zero_signaled(self):
        with pytest.raises(ValueError):
            metrics.jain_index(np.zeros(3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metrics.jain_index([1.0, -0.1])


class TestGini:
    def test_equal_allocation(self):
        assert metrics.gini_coefficient(np.full(5, 2.0)) == 0.0

    def test_max_concentration_two_agents(self):
        assert metrics.gini_coefficient([1.0, 0.0]) == pytest.approx(0.5)

    def test_duality_with_jain(self):
        x = [1.0, 0.0]
        assert metrics.jain_index(x) == pytest.approx(0.5)
        assert metrics.gini_coefficient(x) == pytest.approx(0.5)

    def test_zero_total_signaled(self):
        with pytest.raises(ValueError):
            metrics.gini_coefficient(np.zeros(4))

    def test_scale_invariance_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0.01, 10.0, rng.integers(2, 9))
            c = rng.uniform(0.1, 50.0)
            assert metrics.gini_coefficient(c * x) == pytest.approx(
                metrics.gini_coefficient(x), rel=1e-9
            )

    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8),
        scale=st.floats(0.01, 100.0),
    )
    def test_scale_invariance_property(self, values, scale):
        x = np.array(values)
        assert metrics.gini_coefficient(scale * x) == pytest.approx(
            metrics.gini_coefficient(x), rel=1e-6
        )


class TestCic:
    def test_unit_signal_is_zero(self):
        rng = np.random.default_rng(0)
        noisy = lambda obs, n, rng: np.clip(rng.normal(0.5, 0.2, n), 0, 1)
        value = metrics.cic(
            noisy, metrics.uniform_partial_state(1.0), metrics.CicConfig(), 1, 1.0, rng
        )
        assert value == 0.0

    def test_signal_ignoring_policy_near_zero(self):
        rng = np.random.default_rng(1)
        ignoring = lambda obs, n, rng: np.clip(rng.normal(0.5, 0.1, n), 0, 1)
        value = metrics.cic(
            ignoring, metrics.uniform_partial_state(1.0), metrics.CicConfig(), 2, 1.0, rng
        )
        assert value < 0.02

    def test_deterministic_signal_follower_scores_ln2(self):
        # two signals mapped to two distinct bins carry exactly ln 2 nats;
        # the plug-in estimate is exact because sampling is deterministic
        rng = np.random.default_rng(2)
        follower = lambda obs, n, rng: np.full(n, 0.05 if obs[2] == 1.0 else 0.95)
        value = metrics.cic(
            follower,
            metrics.uniform_partial_state(1.0),
            metrics.CicConfig(n_bins=2),
            2,
            1.0,
            rng,
        )
        assert value == pytest.approx(math.log(2), abs=0.02)

    def test_information_cap(self):
        rng = np.random.default_rng(3)
        for g, bins in [(2, 10), (4, 3), (3, 3)]:
            follower = lambda obs, n, rng: np.clip(
                np.argmax(obs[2:]) / g + rng.normal(0, 0.05, n), 0, 1
            )
            value = metrics.cic(
                follower,
                metrics.uniform_partial_state(1.0),
                metrics.CicConfig(n_bins=bins),
                g,
                1.0,
                rng,
            )
            assert value <= math.log(min(g, bins)) + 0.05

    def test_bad_config(self):
        with pytest.raises(ValueError):
            metrics.CicConfig(n_bins=1)


class TestAccessBins:
    def test_all_idle(self):
        assert metrics.access_bins(np.zeros(6), 1.0) == (6, 0, 0)

    def test_one_of_each(self):
        assert metrics.access_bins([0.1, 0.5, 0.9], 1.0) == (1, 1, 1)

    def test_boundaries(self):
        assert metrics.access_bins([0.33], 1.0) == (0, 1, 0)
        assert metrics.access_bins([0.66], 1.0) == (0, 0, 1)
        assert metrics.access_bins([1.0], 1.0) == (0, 0, 1)

    def test_scales_with_e_max(self):
        assert metrics.access_bins([0.5, 2.5, 4.5], 5.0) == (1, 1, 1)


def record(episode, length, sw, n=2, reason=DoneReason.HORIZON_REACHED):
    return metrics.EpisodeRecord(
        episode=episode,
        length=length,
        social_welfare=sw,
        per_agent_returns=np.full(n, sw / n),
        done_reason=reason,
    )


class TestConvergenceCheck:
    def test_constant_welfare_full_lengths(self):
        history = [record(i, 500, 100.0) for i in range(200)]
        assert metrics.convergence_check(history, t_max=500)

    def test_depletion_in_window_fails(self):
        history = [record(i, 500, 100.0) for i in range(200)]
        history[150] = record(150, 42, 100.0, reason=DoneReason.DEPLETED)
        assert not metrics.convergence_check(history, t_max=500)

    def test_drifting_welfare_fails(self):
        history = [record(i, 500, 100.0 * (1 + 0.1 * i / 199)) for i in range(200)]
        assert not metrics.convergence_check(history, t_max=500)

    def test_short_history(self):
        history = [record(i, 500, 100.0) for i in range(199)]
        assert not metrics.convergence_check(history, t_max=500)

    def test_monotone_in_tolerance(self):
        history = [record(i, 500, 100.0 * (1 + 0.04 * i / 199)) for i in range(200)]
        results = [
            metrics.convergence_check(history, t_max=500, sw_tol=tol)
            for tol in (0.001, 0.01, 0.05, 0.2)
        ]
        # once true, stays true as the tolerance loosens
        assert results == sorted(results)
        assert results[-1] is True

    def test_length_tolerance(self):
        # 95% of the horizon counts as full length
        history = [record(i, 475, 100.0) for i in range(200)]
        assert metrics.convergence_check(history, t_max=500)
        history = [record(i, 474, 100.0) for i in range(200)]
        assert not metrics.convergence_check(history, t_max=500)


class TestStudentT:
    def test_identical_samples(self):
        t, p = metrics.student_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == 1.0

    def test_canonical_case_matches_reference(self):
        # frozen reference computed independently with scipy.stats.ttest_ind
        a = [2.1, 2.5, 2.3, 1.9]
        b = [1.8, 2.0, 1.7, 2.2]
        t, p = metrics.student_t_test(a, b)
        assert t == pytest.approx(1.616016952685, abs=1e-9)
        assert p == pytest.approx(0.157217953193, abs=1e-9)

    def test_against_scipy_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(0, 1, rng.integers(2, 12))
            b = rng.normal(0.4, 1.3, rng.integers(2, 12))
            t, p = metrics.student_t_test(a, b)
            ref_t, ref_p = scipy.stats.ttest_ind(a, b, equal_var=True)
            assert t == pytest.approx(ref_t, rel=1e-10)
            assert p == pytest.approx(ref_p, rel=1e-8)

    def test_well_separated_samples(self):
        _, p = metrics.student_t_test([0.0, 1.0], [10.0, 11.0])
        assert p < 0.01

    def test_symmetry(self):
        a, b = [1.0, 2.0, 4.0], [2.0, 5.0, 6.0]
        assert metrics.student_t_test(a, b)[1] == pytest.approx(
            metrics.student_t_test(b, a)[1]
        )

    def test_gap_monotonicity(self):
        base = np.array([0.0, 1.0, 2.0])
        last_p = 1.1
        for shift in (0.0, 1.0, 2.0, 4.0):
            _, p = metrics.student_t_test(base + shift, base)
            assert 0.0 <= p <= 1.0
            assert p <= last_p
            last_p = p

    def test_zero_pooled_variance(self):
        assert metrics.student_t_test([1.0, 1.0], [1.0, 1.0]) == (0.0, 1.0)
        t, p = metrics.student_t_test([2.0, 2.0], [1.0, 1.0])
        assert p == 0.0 and t == math.inf

    def test_too_small_sample(self):
        with pytest.raises(ValueError):
            metrics.student_t_test([1.0], [1.0, 2.0])

    def test_nan_sample_gives_nan(self):
        t, p = metrics.student_t_test([1.0, math.nan, 3.0], [1.0, 2.0, 4.0])
        assert math.isnan(t) and math.isnan(p)


class TestIncompleteBeta:
    def test_matches_scipy_betainc(self):
        rng = np.random.default_rng(32)
        a_values = [0.5, 1.0, 2.0, 7.0, 50.0, 100.0, *rng.uniform(0.5, 100.0, 6)]
        for a in a_values:
            for b in (0.5, 1.0, 3.7):
                switch = (a + 1.0) / (a + b + 2.0)
                xs = [
                    1e-12, *rng.uniform(0.0, 1e-12, 3),
                    1.0 - 1e-12, *(1.0 - rng.uniform(0.0, 1e-12, 3)),
                    math.nextafter(switch, 0.0), switch,  # both sides of the symmetry switch
                    *rng.uniform(0.0, 1.0, 8),
                ]
                for x in map(float, xs):
                    if a == b == 0.5 and x > 0.5:
                        # SciPy's arcsine form loses up to ~7e-11 within 1e-12 of
                        # x = 1; the complement of the closed form is exact there
                        ref = 1.0 - 2.0 / math.pi * math.asin(math.sqrt(1.0 - x))
                    else:
                        ref = float(scipy.special.betainc(a, b, x))
                    # SciPy flushes subnormal results to zero: below the smallest
                    # normal float the comparison is absolute
                    assert metrics.regularized_incomplete_beta(a, b, x) == pytest.approx(
                        ref, rel=1e-11, abs=sys.float_info.min
                    ), (a, b, x)

    def test_edges(self):
        assert math.isnan(metrics.regularized_incomplete_beta(2.0, 0.5, math.nan))
        for x in (-1.0, -0.0, 0.0):
            assert metrics.regularized_incomplete_beta(2.0, 0.5, x) == 0.0
        for x in (1.0, 2.0, math.inf):
            assert metrics.regularized_incomplete_beta(2.0, 0.5, x) == 1.0
        for a, b in ((0.0, 0.5), (2.0, -1.0), (math.nan, 0.5)):
            with pytest.raises(ValueError):
                metrics.regularized_incomplete_beta(a, b, 0.5)


class TestRelativeDifference:
    def test_examples(self):
        assert metrics.relative_difference(2.0, 1.0) == 1.0
        assert metrics.relative_difference(1.0, 1.0) == 0.0
        assert metrics.relative_difference(0.5, 1.0) == -0.5

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            metrics.relative_difference(1.0, 0.0)


class TestPerSignalProfile:
    def test_constant_efforts(self):
        actions = np.full((8, 3), 0.4)
        signal = np.tile([0, 1], 4)
        profile = metrics.per_signal_effort_profile(actions, signal, 2)
        assert np.allclose(profile, 0.4)

    def test_turn_taking_pattern(self):
        # two agents alternate on a two-valued signal
        actions = np.array([[1.0, 0.0], [0.0, 1.0]] * 5)
        signal = np.tile([0, 1], 5)
        profile = metrics.per_signal_effort_profile(actions, signal, 2)
        assert np.allclose(profile, [[1.0, 0.0], [0.0, 1.0]])

    def test_absent_signals_flagged(self):
        actions = np.array([[0.5, 0.5]])
        profile = metrics.per_signal_effort_profile(actions, np.array([0]), 3)
        assert np.all(np.isfinite(profile[0]))
        assert np.all(np.isnan(profile[1:]))

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            metrics.per_signal_effort_profile(np.zeros((3, 2)), np.zeros(2, int), 2)
