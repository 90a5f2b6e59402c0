import csv
import json

import numpy as np
import pytest

from fishcoop import analytics, env, harness, learner, metrics, signals
from fishcoop.env import DoneReason
from fishcoop.learner import PpoAgent, PpoHyper


def no_update_hyper(**kw):
    # a steps_per_update beyond any test horizon disables training
    return PpoHyper(steps_per_update=10**9, **kw)


def tiny_config(**kw):
    defaults = dict(
        n_agents=2,
        m_s=0.8,
        signal_cardinality=2,
        max_episodes=8,
        t_max=15,
        trials=2,
        base_seed=11,
        hyper=no_update_hyper(),
    )
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


def make_agents(config, bias=0.0, seed=0, log_std=0.0):
    agents = []
    for i in range(config.n_agents):
        agent = PpoAgent(
            config.signal_cardinality,
            config.e_max,
            config.hyper,
            np.random.default_rng(seed + i),
            hidden=(8, 8),
        )
        agent.params.w1[:] = 0.0
        agent.params.b1[:] = 0.0
        agent.params.w2[:] = 0.0
        agent.params.b2[:] = 0.0
        agent.params.w_mean[:] = 0.0
        agent.params.b_mean = bias
        agent.params.log_std = log_std
        agents.append(agent)
    return agents


class TestTrialSeeds:
    def test_stable_across_processes(self):
        # blake2-derived, not Python's salted hash
        assert harness.trial_seed(0, "n2_g2_ms0.8", 0) == harness.trial_seed(
            0, "n2_g2_ms0.8", 0
        )

    def test_distinct_per_cell_and_trial(self):
        seeds = {
            harness.trial_seed(0, cell, trial)
            for cell in ("n2_g1_ms0.5", "n2_g2_ms0.5")
            for trial in range(4)
        }
        assert len(seeds) == 8


class TestRunEpisode:
    def test_half_effort_agents_survive_abundant_stock(self):
        config = tiny_config(m_s=1.1, t_max=50)
        # zero params: mean e_max / 2, and a std of 1e-13 keeps every draw there
        agents = make_agents(config, log_std=-30.0)
        record, actions, signal_idx = harness.run_episode(
            config.env_params(),
            agents,
            config.signal_cardinality,
            np.random.default_rng(0),
        )
        assert record.length == 50
        assert record.done_reason is DoneReason.HORIZON_REACHED
        assert np.allclose(actions, 0.5)

    def test_max_effort_agents_deplete_scarce_stock(self):
        config = tiny_config(m_s=0.5, t_max=50)
        assert config.m_s <= analytics.ms_of_lid(config.growth_rate)
        agents = make_agents(config, bias=60.0, log_std=-30.0)  # sigmoid saturated at e_max
        record, _, _ = harness.run_episode(
            config.env_params(),
            agents,
            config.signal_cardinality,
            np.random.default_rng(0),
        )
        assert record.done_reason is DoneReason.DEPLETED
        assert record.length <= 2

    def test_same_seed_identical_record(self):
        config = tiny_config()
        records = []
        for _ in range(2):
            agents = make_agents(config, seed=5)
            record, _, _ = harness.run_episode(
                config.env_params(),
                agents,
                config.signal_cardinality,
                np.random.default_rng(123),
            )
            records.append(record)
        a, b = records
        assert a.length == b.length
        assert a.social_welfare == b.social_welfare
        assert np.array_equal(a.per_agent_returns, b.per_agent_returns)

    def test_agent_count_mismatch(self):
        config = tiny_config()
        agents = make_agents(config)[:1]
        with pytest.raises(ValueError):
            harness.run_episode(
                config.env_params(), agents, config.signal_cardinality,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("t_max, bootstraps", [(9, 2), (10, 3)])
    def test_bootstrap_forward_only_mid_episode(self, monkeypatch, t_max, bootstraps):
        # updates every 3 steps; one on the episode's last step bootstraps
        # from zero and makes no forward, so only act's one per step remains
        hyper = PpoHyper(steps_per_update=3, epochs_per_update=1, minibatch_size=3)
        config = tiny_config(m_s=1.1, t_max=t_max, hyper=hyper)
        agents = make_agents(config, log_std=-1.0)
        forward = learner.stacked_forward
        calls = []
        monkeypatch.setattr(learner, "stacked_forward", lambda *a: calls.append(1) or forward(*a))
        record, _, _ = harness.run_episode(
            config.env_params(), agents, config.signal_cardinality,
            np.random.default_rng(0),
            rollout=learner.Rollout(config.n_agents, config.signal_cardinality + 2, 3),
        )
        assert record.length == t_max
        assert len(calls) == t_max + bootstraps

    def test_welfare_equals_sum_of_returns(self):
        config = tiny_config()
        agents = make_agents(config)
        record, _, _ = harness.run_episode(
            config.env_params(), agents, config.signal_cardinality,
            np.random.default_rng(3),
        )
        assert record.social_welfare == pytest.approx(
            record.per_agent_returns.sum(), rel=1e-9
        )


class TestStackedRollout:
    """run_episode acts through one stacked policy per step; a reference loop
    with one ``agent.act(row)`` per agent and one one-row bootstrap forward
    per agent must give the same bits, updates included."""

    @staticmethod
    def reference_episode(params, agents, g, rng, rollout):
        source = signals.SignalSource(g, signals.new_episode_offset(rng, g))
        state = env.reset(params)
        actions = []
        while True:
            obs = harness._observations(state, signals.one_hot(state.t, source))
            steps = [agent.act(row) for agent, row in zip(agents, obs)]
            efforts = np.array([effort for effort, _ in steps])
            state, outcome = env.step(state, efforts, params)
            actions.append(efforts)
            draws = zip(*(draw for _, draw in steps))
            if rollout.append(obs, *draws, outcome.rewards, outcome.done):
                next_obs = harness._observations(state, signals.one_hot(state.t, source))
                for n, agent in enumerate(agents):
                    _, (value,) = agent.forward(next_obs[n : n + 1])
                    agent.update(rollout, n, 0.0 if outcome.done else float(value))
                rollout.reset()
            if outcome.done:
                return np.array(actions), outcome.done_reason

    @staticmethod
    def play(n, g, stacked):
        # a lower std than at initialisation keeps the stock alive for some
        # steps; updates every 7 steps land mid-episode, and the next step
        # acts on them
        m_s = {1: 0.7, 3: 0.5}[n]
        params = tiny_config(n_agents=n, m_s=m_s, signal_cardinality=g, t_max=60).env_params()
        hyper = PpoHyper(steps_per_update=7, epochs_per_update=2, minibatch_size=2)
        agents = [
            PpoAgent(g, 1.0, hyper, np.random.default_rng([7, i]), hidden=(8, 8))
            for i in range(n)
        ]
        for agent in agents:
            agent.params.log_std = -1.0
        rollout = learner.Rollout(n, g + 2, 7)
        rng = np.random.default_rng(5)
        if stacked:
            record, actions, _ = harness.run_episode(params, agents, g, rng, rollout=rollout)
            reason = record.done_reason
        else:
            actions, reason = TestStackedRollout.reference_episode(params, agents, g, rng, rollout)
        return actions, reason, rollout, agents

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("g", [1, 4])
    def test_matches_per_agent_acts(self, n, g):
        ref_actions, ref_reason, ref_rollout, ref_agents = self.play(n, g, stacked=False)
        actions, reason, rollout, agents = self.play(n, g, stacked=True)
        assert reason is ref_reason
        assert len(actions) > 7 and rollout.appended == len(actions)
        assert actions.tobytes() == ref_actions.tobytes()
        t = len(rollout)
        assert t == len(ref_rollout) > 0
        assert rollout.obs[:, :t].tobytes() == ref_rollout.obs[:, :t].tobytes()
        assert rollout.columns[..., :t].tobytes() == ref_rollout.columns[..., :t].tobytes()
        assert rollout.dones[:t].tobytes() == ref_rollout.dones[:t].tobytes()
        for agent, ref in zip(agents, ref_agents):
            assert agent.rng.bit_generator.state == ref.rng.bit_generator.state
            assert agent.params.flat.tobytes() == ref.params.flat.tobytes()



class TestRunTrial:
    @pytest.mark.parametrize(
        "setting",
        [
            {"trials": 0}, {"trials": -1}, {"max_episodes": -3},
            {"signal_cardinality": 0}, {"n_agents": 0}, {"m_s": -1.0}, {"growth_rate": 3.0},
        ],
    )
    def test_rejects_bad_counts(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            tiny_config(**setting)

    def test_zero_episodes(self):
        result = harness.run_trial(tiny_config(max_episodes=0), 0)
        assert result.episodes_run == 0
        assert len(result.lengths) == 0
        assert not result.failed
        assert result.profile.shape == (2, 2) and np.isnan(result.profile).all()

    def test_deterministic(self):
        config = tiny_config()
        a = harness.run_trial(config, 0)
        b = harness.run_trial(config, 0)
        assert np.array_equal(a.social_welfare, b.social_welfare)
        assert np.array_equal(a.lengths, b.lengths)
        assert a.cic_mean == b.cic_mean

    def test_trial_isolation(self):
        config = tiny_config()
        first_then_second = [harness.run_trial(config, 0), harness.run_trial(config, 1)]
        second_then_first = [harness.run_trial(config, 1), harness.run_trial(config, 0)]
        assert np.array_equal(
            first_then_second[0].social_welfare, second_then_first[1].social_welfare
        )
        assert np.array_equal(
            first_then_second[1].social_welfare, second_then_first[0].social_welfare
        )

    def test_ct_equals_window_with_stub_criterion(self, monkeypatch):
        window = 6
        monkeypatch.setattr(
            harness.metrics,
            "convergence_check",
            lambda history, t_max, **kw: len(history) >= window,
        )
        config = tiny_config(max_episodes=30, t_max=5)
        result = harness.run_trial(config, 0)
        assert result.converged
        assert result.convergence_time == window

    def test_extrapolation_fills_with_tail_average(self, monkeypatch):
        stop_at = 10
        monkeypatch.setattr(
            harness.metrics,
            "convergence_check",
            lambda history, t_max, **kw: len(history) >= stop_at,
        )
        config = tiny_config(max_episodes=25, t_max=5)
        result = harness.run_trial(config, 0)
        assert result.episodes_run == stop_at
        tail_mean = result.social_welfare[:stop_at][-200:].mean()
        assert np.all(result.social_welfare[stop_at:] == tail_mean)
        assert set(result.done_reasons[stop_at:]) == {harness.EXTRAPOLATED}
        assert len(result.social_welfare) == 25

    def test_nan_action_fails_its_trial_not_the_grid(self, monkeypatch, tmp_path):
        # a NaN mean head makes every action NaN, which env.step rejects; only
        # the signalled cell (observation width 2 + G = 4) gets such agents
        init = learner.init_policy_params

        def nan_head(obs_dim, rng, hidden=(64, 64)):
            params = init(obs_dim, rng, hidden)
            if obs_dim == 4:
                params.b_mean = np.nan
            return params

        monkeypatch.setattr(learner, "init_policy_params", nan_head)
        result = harness.run_experiment(
            [tiny_config(signal_cardinality=1, trials=1), tiny_config(trials=1)]
        )
        plain, signalled = (cell.trials[0] for cell in result.cells)
        assert not plain.failed and plain.episodes_run > 0
        assert signalled.failed and signalled.error.startswith("ValueError")
        harness.persist(result, tmp_path / "out")
        assert (tmp_path / "out" / "summary.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        errors = [cell["trial_errors"] for cell in manifest["cells"]]
        assert errors == [[None], [signalled.error]]

    def test_profile_spans_the_recent_episodes(self, monkeypatch):
        episodes = []
        play = harness.run_episode

        def recorded(*args, **kw):
            record, actions, signal_idx = play(*args, **kw)
            episodes.append((actions, signal_idx))
            return record, actions, signal_idx

        monkeypatch.setattr(harness, "run_episode", recorded)
        config = tiny_config(max_episodes=12, trials=1)
        result = harness.run_trial(config, 0)
        assert result.episodes_run == len(episodes) == 12
        recent = episodes[-harness.RECENT_EPISODES :]
        expected = metrics.per_signal_effort_profile(
            np.concatenate([a for a, _ in recent]),
            np.concatenate([s for _, s in recent]),
            config.signal_cardinality,
        )
        assert result.profile.tobytes() == expected.tobytes()

    def test_unconverged_ct_is_max_episodes(self):
        result = harness.run_trial(tiny_config(max_episodes=4), 0)
        assert not result.converged
        assert result.convergence_time == 4

    @pytest.mark.slow
    def test_two_agents_learn_sustainability_with_signal(self):
        # scarce two-agent stock, signal available: most seeds should be
        # producing full-length episodes by 600 episodes of training
        hyper = PpoHyper(
            learning_rate=2e-3, steps_per_update=200, epochs_per_update=20,
            minibatch_size=64, kl_target=0.05,
        )
        sustained = 0
        for seed in range(5):
            config = harness.ExperimentConfig(
                n_agents=2, m_s=0.5, signal_cardinality=2, max_episodes=600,
                t_max=100, trials=1, base_seed=seed, hyper=hyper,
            )
            result = harness.run_trial(config, 0)
            tail = result.lengths[: result.episodes_run][-50:]
            sustained += np.mean(tail >= config.t_max) >= 0.5
        assert sustained >= 3


class TestExperimentAndSummary:
    def test_single_cell_one_row(self):
        result = harness.run_experiment([tiny_config()])
        rows = harness.summarize(result)
        assert len(rows) == 1
        assert rows[0]["cell"] == "n2_g2_ms0.8"

    def test_no_signal_cells_are_never_paired(self):
        # a G=1 cell is not its own baseline, nor that of an identical cell
        config = tiny_config(signal_cardinality=1)
        result = harness.run_experiment([config, config])
        rows = harness.summarize(result)
        for row in rows:
            assert np.isnan(row["sw_relative_difference"])
            assert np.isnan(row["sw_p_value"])

    def test_cells_sharing_an_id_are_rejected_before_any_trial(self, monkeypatch):
        # m_s 0.5 and 0.5000001 both print as ms0.5: one id, one seed, one directory
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        configs = [tiny_config(m_s=0.5), tiny_config(m_s=0.5000001), tiny_config(m_s=0.6)]
        with pytest.raises(ValueError, match="n2_g2_ms0.5"):
            harness.run_experiment(configs)
        assert trials == []

    def test_grid_rows_and_pairing(self):
        configs = [
            tiny_config(signal_cardinality=1),
            tiny_config(signal_cardinality=2),
            tiny_config(m_s=1.0, signal_cardinality=1),
            tiny_config(m_s=1.0, signal_cardinality=2),
        ]
        result = harness.run_experiment(configs)
        rows = harness.summarize(result)
        assert len(rows) == 4
        for row in rows:
            if row["g"] == 2:
                assert np.isfinite(row["sw_p_value"])

    def test_cells_differing_beyond_the_signal_are_not_paired(self):
        configs = [
            tiny_config(signal_cardinality=1),
            tiny_config(signal_cardinality=2, t_max=20),
        ]
        rows = harness.summarize(harness.run_experiment(configs))
        signalled = [row for row in rows if row["g"] == 2]
        assert len(signalled) == 1 and np.isnan(signalled[0]["sw_p_value"])


class TestPersist:
    def test_layout_and_columns(self, tmp_path):
        result = harness.run_experiment([tiny_config()])
        harness.persist(result, tmp_path / "out")
        cell_dir = tmp_path / "out" / "n2_g2_ms0.8"
        with open(cell_dir / "episodes.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == harness.EPISODE_COLUMNS
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (cell_dir / "profile.csv").exists()
        assert (cell_dir / "policy_trial0.ckpt").exists()

    def test_empty_results_header_only(self, tmp_path):
        harness.persist(harness.ExperimentResult(cells=[]), tmp_path / "empty")
        lines = (tmp_path / "empty" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cell,")

    def test_summary_round_trip(self, tmp_path):
        result = harness.run_experiment([tiny_config()])
        harness.persist(result, tmp_path / "rt")
        rows = harness.summarize(result)
        with open(tmp_path / "rt" / "summary.csv", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for raw, row in zip(parsed, rows):
            for key, value in row.items():
                if isinstance(value, float):
                    assert raw[key] == "%.9g" % value
                else:
                    assert raw[key] == str(value)

    def test_unwritable_target_fails_before_writing(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError):
            harness.persist(
                harness.ExperimentResult(cells=[]), blocker / "sub"
            )

    def test_manifest_config_round_trip(self, tmp_path):
        config = tiny_config()
        result = harness.run_experiment([config])
        harness.persist(result, tmp_path / "m")
        loaded = harness.load_manifest(tmp_path / "m" / "manifest.json")
        assert loaded == [config]

    def test_replay_reproduces_episodes_byte_identically(self, tmp_path):
        result = harness.run_experiment([tiny_config(max_episodes=5)])
        harness.persist(result, tmp_path / "orig")
        harness.replay(tmp_path / "orig" / "manifest.json", tmp_path / "again")
        orig = (tmp_path / "orig" / "n2_g2_ms0.8" / "episodes.csv").read_bytes()
        again = (tmp_path / "again" / "n2_g2_ms0.8" / "episodes.csv").read_bytes()
        assert orig == again

    def test_manifest_carries_seeds_and_limits(self, tmp_path):
        result = harness.run_experiment([tiny_config()])
        manifest = harness.persist(result, tmp_path / "mf")
        cell = manifest["cells"][0]
        assert len(cell["trial_seeds"]) == 2
        assert cell["theory_limits"]["s_lid"] == pytest.approx(1.0)
        assert manifest["format_version"] == harness.MANIFEST_VERSION
        on_disk = json.loads((tmp_path / "mf" / "manifest.json").read_text())
        assert on_disk["cells"][0]["trial_seeds"] == cell["trial_seeds"]
