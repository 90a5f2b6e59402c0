"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 11 trains real PPO agents at desk scale and is the slow one
(minutes, not hours); everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from fishcoop import analytics, control, env, harness, learner, metrics
from fishcoop.learner import DESK_HYPER

E = math.e


def report(name, detail=""):
    print(f"ACCEPTANCE PASS {name} {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_01_theory_limits_closed_forms():
    with Timer() as t:
        for r in (1.0, 2.0):
            for n in (1, 2, 8, 16, 64):
                limits = analytics.theory_limits(n, r, 1.0)
                assert limits.s_lsh == pytest.approx(
                    E**r * n / (2 * (E**r - 1)), rel=1e-12
                )
                assert limits.s_lid == pytest.approx(n / 2, rel=1e-12)
        # K(r=2): the closed form e^2/(2(e^2-1)) evaluates to 0.57826
        assert analytics.k_constant(1.0) == pytest.approx(0.7910, abs=1e-4)
        assert analytics.k_constant(2.0) == pytest.approx(0.5783, abs=1e-4)
    assert t.elapsed < 1.0
    report("01 theory limits", f"K(1)={analytics.k_constant(1.0):.4f} "
           f"K(2)={analytics.k_constant(2.0):.4f} ({t.elapsed:.3f}s)")


def test_02_growth_rate_bounds():
    with Timer() as t:
        lo, hi = analytics.growth_rate_bounds()
        assert lo == pytest.approx(0.2320, abs=1e-4)
        assert hi == pytest.approx(2.6783, abs=1e-4)
        for r in (lo, hi):
            assert abs(math.exp(r) - 2 * E * r) < 1e-9
    assert t.elapsed < 1.0
    report("02 growth-rate bounds", f"({lo:.4f}, {hi:.4f}) ({t.elapsed:.3f}s)")


def test_03_empirical_vs_analytic_lsh():
    with Timer() as t:
        worst = 0.0
        for n in (2, 4, 8, 16):
            k = analytics.k_constant(1.0)
            grid = np.array([0.01 * k * n * i for i in range(85, 111)])
            found = analytics.empirical_lsh(n, 1.0, 1.0, 500, grid, 1e-4)
            theory = analytics.limit_sustainable_harvesting(n, 1.0, 1.0)
            assert found is not None
            rel = abs(found - theory) / theory
            worst = max(worst, rel)
            assert rel < 0.05
    assert t.elapsed < 30.0
    report("03 empirical LSH", f"worst deviation {worst:.3%} ({t.elapsed:.2f}s)")


def test_04_immediate_depletion():
    with Timer() as t:
        for n, frac in [(2, 1.0), (2, 0.6), (8, 0.9), (16, 0.3), (64, 1.0)]:
            s_eq = frac * analytics.limit_immediate_depletion(n, 1.0)
            params = env.EnvParams(n_agents=n, s_eq=s_eq)
            result = analytics.max_effort_baseline(params, 500)
            assert result.done_reason is env.DoneReason.DEPLETED
            assert result.length <= 2
            assert result.social_welfare == pytest.approx(params.price * s_eq, abs=1e-9)
    assert t.elapsed < 5.0
    report("04 immediate depletion", f"({t.elapsed:.2f}s)")


def test_05_ms_lid():
    assert analytics.ms_of_lid(1.0) == pytest.approx(0.6321, abs=1e-4)
    report("05 Ms_LID", f"{analytics.ms_of_lid(1.0):.4f}")


def test_06_growth_bound_property():
    with Timer() as t:
        rng = np.random.default_rng(2024)
        s_eq = 1.0
        for _ in range(1000):
            r = rng.uniform(0.232, 2.678)
            stock = rng.uniform(0.0, 2.0 * s_eq)
            for _ in range(30):
                stock = env.spawner_recruit(stock, s_eq, r)
                assert stock <= 2.0 * s_eq
        # outside the interval the bound must break
        assert env.spawner_recruit(s_eq / 4.0, s_eq, 4.0) > 2.0 * s_eq
    assert t.elapsed < 10.0
    report("06 growth-bound property", f"({t.elapsed:.2f}s)")


def test_07_optimal_control():
    with Timer() as t:
        params = env.EnvParams(n_agents=1, s_eq=1.0, growth_rate=1.0, e_max=1.0,
                               price=1.0, cost=0.0)
        sweep = control.forward_backward_sweep(params, 10)
        _, oracle = control.brute_force_optimal(params, 10)
        assert sweep.converged
        assert abs(sweep.objective - oracle) <= 1e-9
        assert sweep.lambdas[10] == 0.0
        assert sweep.efforts[-1] == 1.0  # transversality forces a final harvest
    assert t.elapsed < 10.0
    report("07 optimal control", f"objective={sweep.objective:.9f} ({t.elapsed:.2f}s)")


def test_08_ppo_gradient_check():
    with Timer() as t:
        hyper = learner.PpoHyper()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = learner.init_policy_params(4, rng, hidden=(8, 8))
            params.log_std = rng.uniform(-0.5, 0.3)
            params.w_mean = rng.normal(0.0, 0.5, 8)
            n = 24
            obs = np.column_stack(
                [rng.uniform(0, 1, n), rng.uniform(0, 1, n), np.eye(2)[rng.integers(0, 2, n)]]
            )
            mean, _, _, _ = learner._forward_batch(params, obs, 1.0)
            raw = rng.normal(mean, np.exp(params.log_std))
            log_probs = learner.gaussian_log_prob(raw, mean, np.exp(params.log_std))
            batch = (
                obs,
                raw,
                log_probs + rng.uniform(-0.2, 0.2, n),  # ratios inside the clip band
                rng.normal(0, 1, n),
                rng.normal(0, 1, n),
            )
            _, grads, _ = learner.ppo_loss_and_grads(params, *batch, hyper, 1.0)
            flat, analytic = params.flat.copy(), grads.flat.copy()
            h = 1e-5
            for i in range(len(flat)):
                plus, minus = flat.copy(), flat.copy()
                plus[i] += h
                minus[i] -= h
                lp, _, _ = learner.ppo_loss_and_grads(
                    learner.PolicyParams.from_flat(plus, params.layer_sizes),
                    *batch, hyper, 1.0,
                )
                lm, _, _ = learner.ppo_loss_and_grads(
                    learner.PolicyParams.from_flat(minus, params.layer_sizes),
                    *batch, hyper, 1.0,
                )
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-4
    assert t.elapsed < 30.0
    report("08 gradient check", f"worst rel err {worst:.2e} ({t.elapsed:.2f}s)")


def test_09_cic_oracles():
    with Timer() as t:
        cfg = metrics.CicConfig(n_states=100, n_samples=100, n_bins=2)
        rng = np.random.default_rng(0)
        follower = lambda obs, n, rng: np.full(n, 0.05 if obs[2] == 1.0 else 0.95)
        hit = metrics.cic(follower, metrics.uniform_partial_state(1.0), cfg, 2, 1.0, rng)
        assert hit == pytest.approx(math.log(2), abs=0.02)

        ignoring = lambda obs, n, rng: np.clip(rng.normal(0.5, 0.1, n), 0, 1)
        miss = metrics.cic(
            ignoring, metrics.uniform_partial_state(1.0),
            metrics.CicConfig(n_states=100, n_samples=100, n_bins=10), 2, 1.0, rng,
        )
        assert miss < 0.02
    assert t.elapsed < 10.0
    report("09 CIC oracles", f"follower={hit:.4f} ignorer={miss:.4f} ({t.elapsed:.2f}s)")


def test_10_fairness_identities():
    for n in (2, 3, 8):
        equal = np.full(n, 1.7)
        assert metrics.jain_index(equal) == pytest.approx(1.0)
        assert metrics.gini_coefficient(equal) == 0.0
    assert metrics.jain_index([1.0, 0.0]) == pytest.approx(0.5)
    assert metrics.gini_coefficient([1.0, 0.0]) == pytest.approx(0.5)
    rng = np.random.default_rng(77)
    for _ in range(100):
        x = rng.uniform(0.01, 5.0, rng.integers(2, 10))
        c = rng.uniform(0.1, 20.0)
        assert metrics.gini_coefficient(c * x) == pytest.approx(
            metrics.gini_coefficient(x), rel=1e-9
        )
    report("10 fairness identities")


@pytest.mark.slow
def test_11_desk_scale_learning_trend():
    # full-scale training is out of reach here; this checks the directional
    # claim that the signal raises sustainability and welfare under scarcity
    with Timer() as t:
        lengths = {1: [], 4: []}
        welfare = {1: [], 4: []}
        for seed in range(5):
            for g in (1, 4):
                cfg = harness.ExperimentConfig(
                    n_agents=4, m_s=0.5, signal_cardinality=g, growth_rate=1.0,
                    max_episodes=1000, t_max=100, trials=1, base_seed=seed,
                    hyper=DESK_HYPER,
                )
                result = harness.run_trial(cfg, 0)
                assert not result.failed
                lengths[g].append(result.last10("lengths"))
                welfare[g].append(result.last10("social_welfare"))
        length_wins = sum(a > b for a, b in zip(lengths[4], lengths[1]))
        sw_wins = sum(a > b for a, b in zip(welfare[4], welfare[1]))
        rel = [(a - b) / b for a, b in zip(welfare[4], welfare[1])]
        median_rel = float(np.median(rel))
        median_len_up = np.median(lengths[4]) > np.median(lengths[1])
        median_ok = median_len_up and median_rel > 0
        agree = sum(
            (a > b) and (c > d)
            for a, b, c, d in zip(lengths[4], lengths[1], welfare[4], welfare[1])
        )
        # medians must favor the signal; >= 3/5 agreeing seed-pairs tolerated
        # as the flaky fallback
        assert median_ok or agree >= 3, (
            f"lengths G=4 {lengths[4]} vs G=1 {lengths[1]}, rel SW {rel}"
        )
    assert t.elapsed < 1800.0
    report(
        "11 desk-scale learning",
        f"len wins {length_wins}/5, sw wins {sw_wins}/5, median rel SW {median_rel:+.2f} "
        f"({t.elapsed:.0f}s)",
    )


def test_12_replay_determinism(tmp_path):
    config = harness.ExperimentConfig(
        n_agents=2, m_s=0.6, signal_cardinality=2, max_episodes=12, t_max=25,
        trials=2, base_seed=21,
        hyper=learner.PpoHyper(steps_per_update=120, epochs_per_update=3,
                               minibatch_size=64),
    )
    result = harness.run_experiment([config])
    harness.persist(result, tmp_path / "orig")
    harness.replay(tmp_path / "orig" / "manifest.json", tmp_path / "replayed")
    orig = (tmp_path / "orig" / config.cell_id / "episodes.csv").read_bytes()
    replayed = (tmp_path / "replayed" / config.cell_id / "episodes.csv").read_bytes()
    assert orig == replayed
    report("12 replay determinism", f"{len(orig)} bytes identical")


def test_13_t_test_reference():
    t, p = metrics.student_t_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert (t, p) == (0.0, 1.0)
    # canonical case frozen from an independent implementation
    a = [2.1, 2.5, 2.3, 1.9]
    b = [1.8, 2.0, 1.7, 2.2]
    t, p = metrics.student_t_test(a, b)
    assert t == pytest.approx(1.616016952685, abs=1e-9)
    assert p == pytest.approx(0.157217953193, abs=1e-9)
    ref_t, ref_p = scipy.stats.ttest_ind(a, b, equal_var=True)
    assert t == pytest.approx(ref_t, rel=1e-12)
    assert p == pytest.approx(ref_p, rel=1e-10)
    report("13 t-test reference", f"t={t:.6f} p={p:.6f}")
