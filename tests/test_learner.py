import numpy as np
import pytest

from fishcoop import learner
from fishcoop.learner import PolicyParams, PpoAgent, PpoHyper, Rollout


def zero_params(obs_dim, hidden=(8, 8)):
    layer_sizes = (obs_dim, *hidden)
    return PolicyParams.from_flat(np.zeros(learner._layout(layer_sizes)[1]), layer_sizes)


def random_batch(params, rng, n=32, e_max=1.0, ratio_jitter=0.2):
    """Batch with ratios held inside the clip band so finite differences
    never straddle the surrogate's kinks."""
    g = params.layer_sizes[0] - 2
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


@pytest.mark.parametrize("size", [0, -1])
def test_hyper_rejects_empty_minibatch(size):
    with pytest.raises(ValueError, match="minibatch_size"):
        PpoHyper(minibatch_size=size)


@pytest.mark.parametrize(
    "setting",
    [
        {"learning_rate": float("nan")},
        {"gamma": float("inf")},
        {"clip": -float("inf")},
        {"epochs_per_update": 0},
        {"steps_per_update": 0},
    ],
)
def test_hyper_rejects_settings_that_cannot_train(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        PpoHyper(**setting)


def test_default_hidden_widths():
    agent = PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0))
    assert agent.params.layer_sizes == (4, 64, 64)


def zero_agent(g=2, e_max=1.0, log_std=0.0, b_mean=0.0, seed=0):
    """An agent whose network ignores its input: action mean
    e_max * sigmoid(b_mean), value 0, std exp(log_std)."""
    agent = PpoAgent(g, e_max, PpoHyper(), np.random.default_rng(seed), hidden=(8, 8))
    agent.params = zero_params(g + 2)
    agent.params.log_std = log_std
    agent.params.b_mean = b_mean
    return agent


def logit(p):
    return float(np.log(p / (1.0 - p)))


class TestPolicyForward:
    def test_zero_network(self):
        agent = zero_agent()
        means, values = agent.forward(np.zeros((1, 4)))
        assert means[0] == pytest.approx(0.5)
        assert agent.std == 1.0
        assert values[0] == 0.0

    def test_zero_network_respects_e_max(self):
        agent = zero_agent(e_max=3.0)
        means, _ = agent.forward(np.ones((1, 4)))
        assert means[0] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        agent = zero_agent()
        with pytest.raises(ValueError):
            agent.forward(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            agent.act(np.zeros(5))

    def test_signal_changes_mean(self):
        rng = np.random.default_rng(3)
        differ = 0
        for _ in range(20):
            agent = PpoAgent(2, 1.0, PpoHyper(), rng, hidden=(8, 8))
            obs_a = np.array([0.3, 0.1, 1.0, 0.0])
            obs_b = np.array([0.3, 0.1, 0.0, 1.0])
            (m_a,), _ = agent.forward(obs_a[None, :])
            (m_b,), _ = agent.forward(obs_b[None, :])
            differ += m_a != m_b
        assert differ == 20


class TestSampleAction:
    def test_tiny_std_clamps_to_mean(self):
        # a sigmoid mean head stays inside (0, e_max): biases of -60 and 60
        # put the mean within 1e-26 of either end, where the draws clip
        for b_mean, expected in [(logit(0.4), 0.4), (-60.0, 0.0), (60.0, 1.0)]:
            agent = zero_agent(log_std=-30.0, b_mean=b_mean)
            effort, _ = agent.act(np.zeros(4))
            assert effort == pytest.approx(expected, abs=1e-9)

    def test_log_prob_at_mode(self):
        std = 0.7
        assert learner.gaussian_log_prob(1.3, 1.3, std) == pytest.approx(
            -np.log(std * np.sqrt(2 * np.pi))
        )

    def test_empirical_mean(self):
        mean, std, n = 0.3, 0.5, 100_000
        agent = zero_agent(log_std=np.log(std), b_mean=logit(mean), seed=5)
        obs = np.zeros(4)
        raws = np.array([agent.act(obs)[1][0] for _ in range(n)])
        assert abs(raws.mean() - mean) < 3 * std / np.sqrt(n)

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            zero_agent(log_std=-np.inf).act(np.zeros(4))


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
            flat = params.flat.copy()
            analytic = grads.flat.copy()
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
        # a one-agent rollout; bandit=True marks every step terminal, so each
        # advantage reflects that step's own reward
        rollout = Rollout(1, 4, steps)
        obs = np.array([0.0, 0.0, 1.0, 0.0])
        for t in range(steps):
            effort, draw = agent.act(obs)
            rollout.append(
                obs[None], *([x] for x in draw), [reward_fn(effort)], bandit or t == steps - 1
            )
        return rollout

    def test_zero_advantage_batch_freezes_policy_head(self):
        agent = self.make_agent(epochs_per_update=2, minibatch_size=32)
        rng = np.random.default_rng(1)
        rollout = self.collect(agent, rng)
        batch = rollout.batch(0, 1.0, 1.0, agent.std)
        batch["advantages"] = np.zeros(len(rollout))
        batch["returns"] = np.ones(len(rollout))
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
            rollout = self.collect(agent, rng, steps=256, reward_fn=lambda e: 1.0 - e, bandit=True)
            obs = rollout.obs[0].copy()
            before_mean = learner._forward_batch(agent.params, obs, 1.0)[0].mean()
            agent.update(rollout, 0)
            after_mean = learner._forward_batch(agent.params, obs, 1.0)[0].mean()
            decreased += after_mean < before_mean
        assert decreased >= 4

    def test_ratio_identity_right_after_collection(self):
        agent = self.make_agent(seed=3)
        rng = np.random.default_rng(2)
        batch = self.collect(agent, rng).batch(0, 0.99, 1.0, agent.std)
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
        stats = agent.update(self.collect(agent, rng, steps=64, reward_fn=lambda e: e), 0)
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

    def test_empty_trajectory_rejected(self):
        agent = self.make_agent()
        before = agent.params.flat.copy()
        with pytest.raises(ValueError, match="empty batch"):
            agent.update(Rollout(1, 4, 8), 0)
        assert np.array_equal(agent.params.flat, before)

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
        assert np.isfinite(agent.params.flat).all()

    def test_updates_are_independent_across_agents(self):
        a = self.make_agent(seed=0)
        b = self.make_agent(seed=1)
        before_b = b.params.flat.copy()
        rng = np.random.default_rng(5)
        a.update(self.collect(a, rng, reward_fn=lambda e: e), 0)
        assert np.array_equal(b.params.flat, before_b)


class TestAct:
    def test_deterministic_zero_params(self):
        # a near-zero std stands in for a greedy action
        agent = zero_agent(log_std=-30.0)
        effort, _ = agent.act(np.array([0.2, 0.9, 0.0, 1.0]))
        assert effort == pytest.approx(0.5)

    def test_same_seed_same_action(self):
        make = lambda: PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(7), hidden=(8, 8))
        e1, _ = make().act(np.array([0.1, 0.2, 1.0, 0.0]))
        e2, _ = make().act(np.array([0.1, 0.2, 1.0, 0.0]))
        assert e1 == e2

    def test_unit_signal_distribution_constant(self):
        agent = PpoAgent(1, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))
        obs = np.array([[0.3, 0.4, 1.0]])
        m1, v1 = agent.forward(obs)
        m2, v2 = agent.forward(obs)
        assert (m1[0], v1[0]) == (m2[0], v2[0])

    def test_act_reports_its_draw(self):
        # (raw, log_prob, value, mean) of the returned step describe the draw
        # the effort was clipped from
        agent = PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(2), hidden=(8, 8))
        agent.params.log_std = 1.0
        obs = np.array([0.5, 0.1, 0.0, 1.0])
        (mean,), (value,) = agent.forward(obs[None, :])
        for _ in range(20):
            effort, (raw, log_prob, v, m) = agent.act(obs)
            assert (m, v) == (mean, value)
            assert effort == min(max(raw, 0.0), 1.0)
            assert log_prob == learner.gaussian_log_prob(raw, mean, agent.std)


class TestStackedPolicy:
    @staticmethod
    def agents(n=3, g=2, seed=4):
        return [
            PpoAgent(g, 1.0, PpoHyper(), np.random.default_rng([seed, i]), hidden=(8, 8))
            for i in range(n)
        ]

    def test_fields_gain_an_agent_axis(self):
        agents = self.agents()
        before = [agent.params.flat.copy() for agent in agents]
        policy = learner.stack_params(agents)
        assert policy.flat.shape == (3, before[0].size)
        assert policy.w1.shape == (3, 8, 4) and policy.log_std.shape == (3,)
        assert policy.flat.tobytes() == np.stack(before).tobytes()
        # the agents' parameters are rows of the stacked buffer, both ways
        policy.b_mean[1] = 7.0
        assert agents[1].params.b_mean == 7.0
        agents[2].params.log_std = -0.5
        assert policy.log_std[2] == -0.5
        assert all(np.shares_memory(a.params.flat, row) for a, row in zip(agents, policy.flat))

    def test_restacking_the_same_agents_keeps_their_buffer(self):
        agents = self.agents()
        policy = learner.stack_params(agents)
        bound = [agent.params for agent in agents]
        again = learner.stack_params(agents)
        assert all(agent.params is p for agent, p in zip(agents, bound))
        assert np.shares_memory(again.flat, policy.flat)
        again.b_mean[0] = 3.0
        assert agents[0].params.b_mean == 3.0 and policy.b_mean[0] == 3.0
        # another order, or an agent rebound since, is a new buffer
        reordered = learner.stack_params(agents[::-1])
        assert not np.shares_memory(reordered.flat, policy.flat)
        assert reordered.flat.tobytes() == policy.flat[::-1].tobytes()
        agents = self.agents()
        learner.stack_params(agents)
        agents[1].params = PolicyParams.from_flat(
            agents[1].params.flat.copy(), agents[1].params.layer_sizes
        )
        first = agents[0].params
        restacked = learner.stack_params(agents)
        assert agents[0].params is not first
        assert all(np.shares_memory(a.params.flat, row) for a, row in zip(agents, restacked.flat))

    def test_agent_update_reaches_the_policy(self):
        agents, single = self.agents(), self.agents()
        policy = learner.stack_params(agents)
        before = policy.flat.copy()
        obs = np.column_stack((np.full(3, 0.4), np.full(3, 0.2), np.tile([1.0, 0.0], (3, 1))))
        # a three-agent rollout: agent 0's row is the one both updates read
        rollout = Rollout(3, 4, 16)
        for t in range(16):
            step = np.repeat([[0.05 * t], [-1.0], [0.0], [0.5], [1.0 - 0.05 * t]], 3, axis=1)
            rollout.append(obs, *step, t == 15)
        agents[0].update(rollout, 0)
        single[0].update(rollout, 0)
        assert policy.flat[0].tobytes() == single[0].params.flat.tobytes()
        assert policy.flat[0].tobytes() != before[0].tobytes()
        assert policy.flat[1:].tobytes() == before[1:].tobytes()
        efforts, steps = learner.act(policy, obs, [a.rng for a in agents], 1.0)
        got = [(float(efforts[n]), tuple(float(c[n]) for c in steps)) for n in range(3)]
        assert got == [agent.act(row) for agent, row in zip(single, obs)]

    def test_act_matches_one_act_per_agent(self):
        rng = np.random.default_rng(9)
        stacked, single = self.agents(), self.agents()
        policy = learner.stack_params(stacked)
        for _ in range(50):
            obs = np.column_stack(
                (rng.uniform(0, 1, 3), rng.normal(size=3), np.eye(2)[rng.integers(0, 2, 3)])
            )
            efforts, steps = learner.act(policy, obs, [a.rng for a in stacked], 1.0)
            got = [(float(efforts[n]), tuple(float(c[n]) for c in steps)) for n in range(3)]
            assert got == [agent.act(row) for agent, row in zip(single, obs)]
            means, values = learner.stacked_forward(policy, obs, 1.0)
            for n, agent in enumerate(single):
                (mean,), (value,) = agent.forward(obs[n : n + 1])
                assert (means[n], values[n]) == (mean, value)

    def test_invalid_std_of_any_agent(self):
        agents = self.agents()
        agents[2].params.log_std = -np.inf
        with pytest.raises(ValueError, match="std must be positive"):
            learner.act(
                learner.stack_params(agents), np.zeros((3, 4)), [a.rng for a in agents], 1.0
            )


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
            assert np.array_equal(orig.params.flat, back.params.flat)

    @pytest.mark.parametrize("e_max", [1.0, 0.25, 3.0])
    def test_round_trip_keeps_the_effort_range(self, tmp_path, e_max):
        agents = [
            PpoAgent(2, e_max, PpoHyper(), np.random.default_rng(i), hidden=(8, 8))
            for i in range(2)
        ]
        path = tmp_path / "p.ckpt"
        learner.save_checkpoint(path, agents)
        assert [a.e_max for a in learner.load_checkpoint(path)] == [e_max, e_max]
        assert [a.e_max for a in learner.load_checkpoint(path, e_max=e_max)] == [e_max] * 2
        with pytest.raises(ValueError, match=f"trained at e_max={e_max}, not at e_max=0.5"):
            learner.load_checkpoint(path, e_max=0.5)

    def test_agents_must_share_the_effort_range(self, tmp_path):
        agents = [
            PpoAgent(2, e_max, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))
            for e_max in (1.0, 2.0)
        ]
        with pytest.raises(ValueError, match="effort range"):
            learner.save_checkpoint(tmp_path / "p.ckpt", agents)

    def test_version_1_file_still_loads(self, tmp_path):
        # version 1: the same header without the effort range after the layer sizes
        agents = [
            PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(i), hidden=(8, 8))
            for i in range(2)
        ]
        path = tmp_path / "v1.ckpt"
        learner.save_checkpoint(path, agents)
        blob = path.read_bytes()
        assert blob[32:40] == np.array(1.0, dtype="<f8").tobytes()
        path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:32] + blob[40:])
        for e_max, expected in ((None, 1.0), (2.0, 2.0)):
            loaded = learner.load_checkpoint(path, e_max=e_max)
            assert [a.e_max for a in loaded] == [expected, expected]
            for orig, back in zip(agents, loaded):
                assert back.params.flat.tobytes() == orig.params.flat.tobytes()

    def test_rejects_invalid_effort_range(self, tmp_path):
        path = tmp_path / "p.ckpt"
        learner.save_checkpoint(
            path, [PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        )
        blob = bytearray(path.read_bytes())
        blob[32:40] = np.array(np.nan, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="invalid effort range"):
            learner.load_checkpoint(path)

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

    @pytest.mark.parametrize("field, value", [(8, 3), (16, 4)])
    def test_rejects_header_that_disagrees_with_weights(self, tmp_path, field, value):
        # a g=2 checkpoint has input width 4; claiming g=3 (offset 8) or four
        # layer sizes (offset 16) must fail on load, not at the first forward
        path = tmp_path / "p.ckpt"
        learner.save_checkpoint(
            path, [PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        )
        blob = bytearray(path.read_bytes())
        blob[field : field + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            learner.load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            learner.load_checkpoint(path)

    @pytest.mark.parametrize("keep", [10, 24, 40])
    def test_rejects_truncated_file(self, tmp_path, keep):
        # cut inside the header, inside the layer sizes, inside the weights
        path = tmp_path / "cut.ckpt"
        learner.save_checkpoint(
            path, [PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        )
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            learner.load_checkpoint(path)
