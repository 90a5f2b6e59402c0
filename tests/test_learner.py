import numpy as np
import pytest

from fishcoop import learner
from fishcoop.learner import PolicyParams, PpoAgent, PpoHyper, Trajectory


def zero_params(obs_dim, hidden=(8, 8)):
    h1, h2 = hidden
    return PolicyParams(
        w1=np.zeros((h1, obs_dim)),
        b1=np.zeros(h1),
        w2=np.zeros((h2, h1)),
        b2=np.zeros(h2),
        w_mean=np.zeros(h2),
        b_mean=0.0,
        w_value=np.zeros(h2),
        b_value=0.0,
        log_std=0.0,
    )


def random_batch(params, rng, n=32, e_max=1.0, ratio_jitter=0.2):
    """Batch with ratios held inside the clip band so finite differences
    never straddle the surrogate's kinks."""
    g = params.obs_dim - 2
    obs = np.column_stack(
        [rng.uniform(0, 1, n), rng.uniform(0, 1, n), np.eye(g)[rng.integers(0, g, n)]]
    )
    mean, _, _, _ = learner._forward_batch(params, obs, e_max)
    std = np.exp(params.log_std)
    raw = rng.normal(mean, std)
    log_probs = learner.gaussian_log_prob(raw, mean, std)
    return {
        "obs": obs,
        "raw_actions": raw,
        "old_log_probs": log_probs + rng.uniform(-ratio_jitter, ratio_jitter, n),
        "advantages": rng.normal(0, 1, n),
        "returns": rng.normal(0, 1, n),
    }


def test_hyper_defaults():
    # the training defaults the experiments inherit; changing any of these
    # silently changes every result table
    hyper = PpoHyper()
    assert hyper.learning_rate == 1e-4
    assert hyper.clip == 0.3
    assert hyper.vf_clip == 10.0
    assert hyper.kl_target == 0.01
    assert hyper.gamma == 0.99
    assert hyper.gae_lambda == 1.0
    assert hyper.vf_coeff == 1.0
    assert hyper.entropy_coeff == 0.0


def test_default_hidden_widths():
    agent = PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0))
    assert agent.params.layer_sizes == (4, 64, 64)


class TestPolicyForward:
    def test_zero_network(self):
        params = zero_params(4)
        mean, std, value = learner.policy_forward(params, np.zeros(4), e_max=1.0)
        assert mean == pytest.approx(0.5)
        assert std == 1.0
        assert value == 0.0

    def test_zero_network_respects_e_max(self):
        params = zero_params(4)
        mean, _, _ = learner.policy_forward(params, np.ones(4), e_max=3.0)
        assert mean == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        params = zero_params(4)
        with pytest.raises(ValueError):
            learner.policy_forward(params, np.zeros(5), e_max=1.0)

    def test_signal_changes_mean(self):
        rng = np.random.default_rng(3)
        differ = 0
        for _ in range(20):
            params = learner.init_policy_params(4, rng, hidden=(8, 8))
            obs_a = np.array([0.3, 0.1, 1.0, 0.0])
            obs_b = np.array([0.3, 0.1, 0.0, 1.0])
            m_a, _, _ = learner.policy_forward(params, obs_a, 1.0)
            m_b, _, _ = learner.policy_forward(params, obs_b, 1.0)
            differ += m_a != m_b
        assert differ == 20


class TestSampleAction:
    def test_tiny_std_clamps_to_mean(self):
        rng = np.random.default_rng(0)
        for mean, expected in [(0.4, 0.4), (-1.0, 0.0), (2.0, 1.0)]:
            _, clipped, _ = learner.sample_action(mean, 1e-12, 1.0, rng)
            assert clipped == pytest.approx(expected, abs=1e-9)

    def test_log_prob_at_mode(self):
        std = 0.7
        assert learner.gaussian_log_prob(1.3, 1.3, std) == pytest.approx(
            -np.log(std * np.sqrt(2 * np.pi))
        )

    def test_empirical_mean(self):
        rng = np.random.default_rng(5)
        mean, std, n = 0.3, 0.5, 100_000
        raws = np.array([learner.sample_action(mean, std, 1.0, rng)[0] for _ in range(n)])
        assert abs(raws.mean() - mean) < 3 * std / np.sqrt(n)

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            learner.sample_action(0.5, 0.0, 1.0, np.random.default_rng(0))


class TestGae:
    def test_single_step(self):
        adv, ret = learner.gae_advantages([1.0], [0.0], [True], gamma=0.99, lam=1.0)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_undiscounted_constant_rewards(self):
        adv, ret = learner.gae_advantages(
            [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [False, False, True], gamma=1.0, lam=1.0
        )
        assert np.allclose(ret, [3.0, 2.0, 1.0])

    def test_monte_carlo_oracle(self):
        # with lam = 1 the advantage is the discounted return minus the baseline
        rng = np.random.default_rng(8)
        gamma = 0.97
        rewards = rng.normal(0, 1, 12)
        values = rng.normal(0, 1, 12)
        dones = np.zeros(12, bool)
        dones[-1] = True
        adv, ret = learner.gae_advantages(rewards, values, dones, gamma, 1.0)
        for t in range(12):
            mc = sum(gamma ** (k - t) * rewards[k] for k in range(t, 12))
            assert adv[t] == pytest.approx(mc - values[t], abs=1e-10)
            assert ret[t] == pytest.approx(mc, abs=1e-10)

    def test_episode_boundaries_reset_bootstrap(self):
        rewards = [1.0, 1.0, 1.0, 1.0]
        values = [0.0, 0.0, 0.0, 0.0]
        dones = [False, True, False, True]
        adv, _ = learner.gae_advantages(rewards, values, dones, gamma=1.0, lam=1.0)
        assert np.allclose(adv, [2.0, 1.0, 2.0, 1.0])

    def test_mid_episode_cut_bootstraps(self):
        adv, ret = learner.gae_advantages(
            [1.0], [0.5], [False], gamma=1.0, lam=1.0, last_value=2.0
        )
        assert ret[0] == pytest.approx(3.0)
        assert adv[0] == pytest.approx(2.5)


class TestGradientCheck:
    def test_analytic_matches_finite_differences(self):
        hyper = PpoHyper()
        worst = 0.0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            params = learner.init_policy_params(4, rng, hidden=(8, 8))
            params.log_std = rng.uniform(-0.5, 0.3)
            params.w_mean = rng.normal(0, 0.5, 8)
            batch = random_batch(params, rng)
            _, grads, _ = learner.ppo_loss_and_grads(
                params, batch["obs"], batch["raw_actions"], batch["old_log_probs"],
                batch["advantages"], batch["returns"], hyper, 1.0,
            )
            flat = params.to_flat()
            analytic = grads.to_flat()
            h = 1e-5
            for i in range(len(flat)):
                plus, minus = flat.copy(), flat.copy()
                plus[i] += h
                minus[i] -= h
                lp, _, _ = learner.ppo_loss_and_grads(
                    PolicyParams.from_flat(plus, params.layer_sizes),
                    batch["obs"], batch["raw_actions"], batch["old_log_probs"],
                    batch["advantages"], batch["returns"], hyper, 1.0,
                )
                lm, _, _ = learner.ppo_loss_and_grads(
                    PolicyParams.from_flat(minus, params.layer_sizes),
                    batch["obs"], batch["raw_actions"], batch["old_log_probs"],
                    batch["advantages"], batch["returns"], hyper, 1.0,
                )
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-4


class TestPpoUpdate:
    def make_agent(self, seed=0, g=2, hidden=(8, 8), **hyper_kw):
        hyper = PpoHyper(**hyper_kw)
        return PpoAgent(g, 1.0, hyper, np.random.default_rng(seed), hidden=hidden)

    def collect(self, agent, rng, steps=64, reward_fn=lambda effort: 0.0, bandit=False):
        # bandit=True marks every step terminal, so each advantage reflects
        # that step's own reward
        traj = Trajectory()
        source_vec = np.array([1.0, 0.0])
        for t in range(steps):
            effort, info = agent.act(0.0, 0.0, source_vec)
            traj.append(
                info["obs"], info["raw"], info["log_prob"], info["value"],
                info["mean"], reward_fn(effort), bandit or t == steps - 1,
            )
        return traj

    def test_zero_advantage_batch_freezes_policy_head(self):
        agent = self.make_agent(epochs_per_update=2, minibatch_size=32)
        rng = np.random.default_rng(1)
        traj = self.collect(agent, rng)
        batch = traj.to_batch(1.0, 1.0, agent.std)
        batch["advantages"] = np.zeros(len(traj))
        batch["returns"] = np.ones(len(traj))
        before = agent.params
        after, _, _ = learner.ppo_update(
            before, batch, agent.hyper, 1.0, np.random.default_rng(0)
        )
        assert np.array_equal(after.w_mean, before.w_mean)
        assert after.b_mean == before.b_mean
        assert after.log_std == before.log_std
        assert not np.array_equal(after.w_value, before.w_value)

    def test_rewarding_low_effort_lowers_mean_effort(self):
        decreased = 0
        for seed in range(5):
            agent = self.make_agent(
                seed=seed, epochs_per_update=5, minibatch_size=64,
                learning_rate=1e-3, kl_target=1e9,
            )
            rng = np.random.default_rng(seed + 100)
            traj = self.collect(agent, rng, steps=256, reward_fn=lambda e: 1.0 - e, bandit=True)
            obs = np.asarray(traj.obs)
            before_mean = learner._forward_batch(agent.params, obs, 1.0)[0].mean()
            agent.update(traj)
            after_mean = learner._forward_batch(agent.params, obs, 1.0)[0].mean()
            decreased += after_mean < before_mean
        assert decreased >= 4

    def test_ratio_identity_right_after_collection(self):
        agent = self.make_agent(seed=3)
        rng = np.random.default_rng(2)
        traj = self.collect(agent, rng)
        batch = traj.to_batch(0.99, 1.0, agent.std)
        mean, _, _, _ = learner._forward_batch(agent.params, batch["obs"], 1.0)
        recomputed = learner.gaussian_log_prob(
            batch["raw_actions"], mean, np.exp(agent.params.log_std)
        )
        ratios = np.exp(recomputed - batch["old_log_probs"])
        assert np.allclose(ratios, 1.0, atol=1e-14)
        # with unit ratios nothing clips, so the surrogate is the plain
        # policy-gradient estimator
        _, _, stats = learner.ppo_loss_and_grads(
            agent.params, batch["obs"], batch["raw_actions"], batch["old_log_probs"],
            batch["advantages"], batch["returns"], agent.hyper, 1.0,
        )
        assert stats["clip_fraction"] == 0.0

    def test_kl_early_stop(self):
        agent = self.make_agent(
            epochs_per_update=50, minibatch_size=16, learning_rate=5e-2, kl_target=0.01
        )
        rng = np.random.default_rng(4)
        traj = self.collect(agent, rng, steps=64, reward_fn=lambda e: e)
        stats = agent.update(traj)
        assert stats["epochs_run"] < 50
        assert stats["mean_kl"] > 1.5 * 0.01

    def test_nan_gradients_abort(self):
        agent = self.make_agent()
        batch = {
            "obs": np.full((4, 4), np.inf),
            "raw_actions": np.zeros(4),
            "old_log_probs": np.zeros(4),
            "old_means": np.zeros(4),
            "old_std": 1.0,
            "advantages": np.ones(4),
            "returns": np.zeros(4),
        }
        with np.errstate(invalid="ignore"), pytest.raises(learner.UpdateDivergedError):
            learner.ppo_update(
                agent.params, batch, agent.hyper, 1.0, np.random.default_rng(0)
            )

    def test_empty_batch_rejected(self):
        agent = self.make_agent()
        batch = {"obs": np.zeros((0, 4)), "advantages": np.zeros(0)}
        with pytest.raises(ValueError):
            learner.ppo_update(
                agent.params, batch, agent.hyper, 1.0, np.random.default_rng(0)
            )

    def test_parameters_stay_finite_over_many_updates(self):
        agent = self.make_agent(epochs_per_update=1, minibatch_size=64)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            batch = random_batch(agent.params, rng, n=32)
            batch["old_means"] = np.full(32, 0.5)
            batch["old_std"] = agent.std
            agent.params, agent.adam, _ = learner.ppo_update(
                agent.params, batch, agent.hyper, 1.0, rng, agent.adam
            )
        assert agent.params.all_finite()

    def test_updates_are_independent_across_agents(self):
        a = self.make_agent(seed=0)
        b = self.make_agent(seed=1)
        before_b = b.params.to_flat().copy()
        rng = np.random.default_rng(5)
        a.update(self.collect(a, rng, reward_fn=lambda e: e))
        assert np.array_equal(b.params.to_flat(), before_b)


class TestAct:
    def test_deterministic_zero_params(self):
        agent = PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))
        agent.params = zero_params(4)
        effort, _ = agent.act(0.2, 0.9, np.array([0.0, 1.0]), deterministic=True)
        assert effort == pytest.approx(0.5)

    def test_same_seed_same_action(self):
        make = lambda: PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(7), hidden=(8, 8))
        e1, _ = make().act(0.1, 0.2, np.array([1.0, 0.0]))
        e2, _ = make().act(0.1, 0.2, np.array([1.0, 0.0]))
        assert e1 == e2

    def test_unit_signal_distribution_constant(self):
        agent = PpoAgent(1, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))
        m1, s1, _ = learner.policy_forward(agent.params, np.array([0.3, 0.4, 1.0]), 1.0)
        m2, s2, _ = learner.policy_forward(agent.params, np.array([0.3, 0.4, 1.0]), 1.0)
        assert (m1, s1) == (m2, s2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        agents = [
            PpoAgent(3, 1.0, PpoHyper(), np.random.default_rng(i), hidden=(8, 8))
            for i in range(4)
        ]
        path = tmp_path / "policies.ckpt"
        learner.save_checkpoint(path, agents)
        loaded = learner.load_checkpoint(path)
        assert len(loaded) == 4
        for orig, back in zip(agents, loaded):
            assert back.g == 3
            assert np.array_equal(orig.params.to_flat(), back.params.to_flat())

    def test_header_is_versioned_little_endian(self, tmp_path):
        agents = [PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        path = tmp_path / "one.ckpt"
        learner.save_checkpoint(path, agents)
        blob = path.read_bytes()
        assert blob[:4] == learner.CHECKPOINT_MAGIC
        version = int.from_bytes(blob[4:8], "little")
        g = int.from_bytes(blob[8:12], "little")
        n = int.from_bytes(blob[12:16], "little")
        assert (version, g, n) == (learner.CHECKPOINT_VERSION, 2, 1)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            learner.load_checkpoint(path)
