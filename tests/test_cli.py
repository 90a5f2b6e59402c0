import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fishcoop import cli, harness
from fishcoop.learner import DESK_HYPER, PpoAgent, PpoHyper, save_checkpoint

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_grid.cfg"


def run_cli(*argv):
    return cli.main(list(argv))


class TestLimits:
    def test_exit_zero(self, capsys):
        assert run_cli("limits", "--agents", "1,2,8", "--growth-rate", "1") == 0
        out = capsys.readouterr().out
        assert "S_LSH" in out and "stable growth rates" in out

    @pytest.mark.parametrize("agents", ["", "-3", "2,0"])
    def test_bad_agents_exit_one(self, capsys, agents):
        assert run_cli("limits", "--agents", agents) == 1
        captured = capsys.readouterr()
        assert "--agents" in captured.err and captured.out == ""


class TestControl:
    def test_sweep_and_oracle(self, capsys):
        code = run_cli(
            "control", "--agents", "1", "--seq", "1.0", "--horizon", "6",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: objective=" in out
        assert "brute force: objective=" in out

    def test_suboptimal_sweep_is_reported(self, capsys):
        # at the default stock the sweep settles short of the optimum at T = 8
        assert run_cli("control", "--horizon", "8") == 0
        assert "sweep is NOT optimal" in capsys.readouterr().out

    def test_optimal_sweep_is_not_flagged(self, capsys):
        assert run_cli("control", "--seq", "1.0", "--horizon", "10") == 0
        out = capsys.readouterr().out
        assert "brute force: objective=" in out
        assert "NOT optimal" not in out

    def test_ms_and_seq_are_exclusive(self, capsys):
        assert run_cli("control", "--ms", "0.5", "--seq", "1.0", "--horizon", "2") == 1
        assert "not allowed with" in capsys.readouterr().err


class TestBaseline:
    def test_writes_csv(self, tmp_path, capsys):
        code = run_cli(
            "baseline", "--agents", "2", "--tmax", "100",
            "--ms-lo", "0.4", "--ms-hi", "1.2", "--ms-step", "0.2",
            "--out", str(tmp_path / "base"),
        )
        assert code == 0
        text = (tmp_path / "base" / "baseline.csv").read_text()
        assert text.startswith("n_agents,m_s,s_eq,length,social_welfare,sw_normalized")
        assert len(text.strip().splitlines()) == 6

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--agents", ""), "--agents"),
            (("--agents", "-3"), "--agents"),
            (("--ms-step", "0"), "--ms-step"),
            (("--ms-step", "-0.1"), "--ms-step"),
            (("--ms-step", "nan"), "--ms-step"),
            (("--ms-step", "inf"), "--ms-step"),
            (("--ms-lo", "2", "--ms-hi", "1"), "--ms-lo 2 to --ms-hi 1"),
        ],
    )
    def test_bad_range_exits_one(self, capsys, argv, named):
        assert run_cli("baseline", "--tmax", "5", *argv) == 1
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""


class TestRunAndReplay:
    def test_run_then_replay(self, tmp_path, capsys):
        out1 = tmp_path / "first"
        code = run_cli(
            "run", "--agents", "2", "--ms", "0.8", "--signal", "1",
            "--trials", "1", "--seed", "3", "--episodes", "4", "--tmax", "10",
            "--steps-per-update", "1000000", "--out", str(out1),
        )
        assert code == 0
        assert (out1 / "manifest.json").exists()
        out2 = tmp_path / "second"
        code = run_cli("replay", "--manifest", str(out1 / "manifest.json"), "--out", str(out2))
        assert code == 0
        a = (out1 / "n2_g1_ms0.8" / "episodes.csv").read_bytes()
        b = (out2 / "n2_g1_ms0.8" / "episodes.csv").read_bytes()
        assert a == b

    def test_config_file_with_cli_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# demo config\nagents=2\nms=0.8\nsignal=1\ntrials=1\n"
            "episodes=3\ntmax=8\nsteps_per_update=1000000\n"
            f"out={tmp_path / 'cfgout'}\nseed=5\n"
        )
        code = run_cli("run", "--config", str(config), "--episodes", "2")
        assert code == 0
        manifest = harness.load_manifest(tmp_path / "cfgout" / "manifest.json")
        assert manifest[0].max_episodes == 2  # CLI flag wins
        assert manifest[0].base_seed == 5

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        # a typo of "episodes"; the valid keys keep the run short if it is ignored
        config.write_text(
            "agents=2\nsignal=1\ntrials=1\nepisodes=1\ntmax=5\nepisode=3\n"
            f"out={tmp_path / 'never'}\n"
        )
        assert run_cli("run", "--config", str(config)) == 1
        assert "episode" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_integer_hyper_flags_reject_fractions(self, tmp_path, capsys):
        for flag, value in [("--epochs", "2.5"), ("--minibatch", "64.9")]:
            out = tmp_path / flag.strip("-")
            assert run_cli("run", flag, value, "--episodes", "1", "--out", str(out)) == 1
            assert not out.exists()

    def test_desk_config_builds_desk_grid(self):
        args = cli.build_parser().parse_args(["run", "--config", str(DESK_CONFIG)])
        configs, out = cli._run_configs(args)
        assert out == "runs/desk_grid"
        assert configs == [
            harness.ExperimentConfig(
                n_agents=4, m_s=0.5, signal_cardinality=g, max_episodes=1000,
                t_max=100, trials=5, base_seed=0, hyper=DESK_HYPER,
            )
            for g in (1, 4)
        ]


class TestRunSettings:
    """A `run` flag and the config key of the same name set the same field."""

    @staticmethod
    def run_configs(tmp_path, *argv, config=None):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = ("--config", str(path), *argv)
        return cli._run_configs(cli.build_parser().parse_args(["run", *argv]))

    @pytest.mark.parametrize("key", ["kl-target", "kl_target", "growth-rate", "growth_rate"])
    def test_config_key_matches_flag(self, tmp_path, key):
        flag = "--" + key.replace("_", "-")
        from_flag = self.run_configs(tmp_path, flag, "1.5", "--out", "x")
        assert from_flag != self.run_configs(tmp_path, "--out", "x")
        assert self.run_configs(tmp_path, "--out", "x", config=f"{key}=1.5\n") == from_flag

    def test_defaults_live_in_the_dataclasses(self, tmp_path):
        configs, out = self.run_configs(tmp_path, "--out", "x")
        assert configs == [harness.ExperimentConfig(n_agents=4, m_s=0.5, signal_cardinality=1)]
        assert out == "x"

    def test_every_flag_is_a_config_key(self, tmp_path):
        dests = vars(cli.build_parser().parse_args(["run"]))
        flags = [d.replace("_", "-") for d in dests if d not in ("command", "func", "config")]
        assert len(flags) == 21
        from_flags = self.run_configs(tmp_path, *[a for f in flags for a in (f"--{f}", "2")])
        (config,), out = from_flags
        assert out == "2"
        assert set(dataclasses.asdict(config.hyper).values()) == {2}
        for sep in ("-", "_"):
            text = "".join(f"{f.replace('-', sep)}=2\n" for f in flags)
            assert self.run_configs(tmp_path, config=text) == from_flags

    def test_integer_config_keys_reject_fractions(self, tmp_path, capsys):
        for key in ("epochs", "minibatch", "steps_per_update", "trials"):
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}=2.5\nepisodes=1\nout={tmp_path / 'never'}\n")
            assert run_cli("run", "--config", str(config)) == 1
            assert not (tmp_path / "never").exists()


    @pytest.mark.parametrize(
        "text", ["kl-target=0.05\nkl_target=0.2\n", "episodes=3\nepisodes=7\n"]
    )
    def test_config_key_given_twice_is_an_error(self, tmp_path, text):
        with pytest.raises(cli.CliError, match="given twice"):
            self.run_configs(tmp_path, "--out", "x", config=text)

    @pytest.mark.parametrize("flag", ["agents", "ms", "signal"])
    def test_empty_grid_axis_is_an_error(self, tmp_path, flag):
        with pytest.raises(cli.CliError, match=f"--{flag}"):
            self.run_configs(tmp_path, f"--{flag}", "", "--out", "x")
        with pytest.raises(cli.CliError, match=f"--{flag}"):
            self.run_configs(tmp_path, "--out", "x", config=f"{flag}=\n")


class TestGridCells:
    """A grid whose cells would share a cell id, or that has no cell, exits 1
    before anything runs or is written."""

    SHORT = ("--trials", "1", "--episodes", "1", "--tmax", "5")

    @pytest.mark.parametrize(
        "axes, named",
        [
            (("--agents", "2", "--ms", "0.5,0.5000001"), "n2_g1_ms0.5"),
            (("--agents", "2,2"), "--agents"),
            (("--agents", ""), "--agents"),
        ],
    )
    def test_rejected_before_running(self, tmp_path, capsys, axes, named):
        out = tmp_path / "never"
        assert run_cli("run", *axes, *self.SHORT, "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, named",
        [
            (("--trials", "0"), "trials"),
            (("--trials", "-1"), "trials"),
            (("--episodes", "-3"), "max_episodes"),
            (("--minibatch", "0", "--steps-per-update", "4"), "minibatch_size"),
            (("--signal", "0"), "signal_cardinality"),
            (("--signal", "4,0"), "signal_cardinality"),
            (("--ms", "0.5,0"), "s_eq"),
            (("--agents", "2,0"), "n_agents"),
            (("--lr", "nan"), "learning_rate"),
            (("--gamma", "inf"), "gamma"),
            (("--epochs", "0"), "epochs_per_update"),
            (("--steps-per-update", "0"), "steps_per_update"),
        ],
    )
    def test_bad_count_rejected_before_running(
        self, tmp_path, capsys, monkeypatch, setting, named
    ):
        # every cell is checked before the first trial of the first cell
        def run_trial(config, trial_index):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", run_trial)
        out = tmp_path / "never"
        assert run_cli("run", *self.SHORT, *setting, "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestCicCommand:
    def test_checkpoint_evaluation(self, tmp_path, capsys):
        agents = [
            PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(i), hidden=(8, 8))
            for i in range(2)
        ]
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, agents)
        code = run_cli(
            "cic", "--checkpoint", str(path), "--states", "10", "--samples", "20"
        )
        assert code == 0
        assert "mean CIC=" in capsys.readouterr().out

    def test_effort_range_comes_from_the_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "p.ckpt"
        save_checkpoint(
            path, [PpoAgent(2, 2.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        )
        flags = ("cic", "--checkpoint", str(path), "--states", "4", "--samples", "10")
        assert run_cli(*flags) == 0
        default = capsys.readouterr().out
        assert run_cli(*flags, "--emax", "2") == 0
        assert capsys.readouterr().out == default
        assert run_cli(*flags, "--emax", "1") == 1
        err = capsys.readouterr().err
        assert "e_max=2.0" in err and "e_max=1.0" in err

    def test_checkpoint_with_mismatched_width_is_rejected(self, tmp_path, capsys):
        agents = [PpoAgent(2, 1.0, PpoHyper(), np.random.default_rng(0), hidden=(8, 8))]
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, agents)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (3).to_bytes(4, "little")  # header claims g=3 over width-4 weights
        path.write_bytes(bytes(blob))
        assert run_cli("cic", "--checkpoint", str(path)) == 1
        assert "signal cardinality 3" in capsys.readouterr().err


class TestExitCodes:
    def test_parameter_error_is_one(self, capsys):
        assert run_cli("run", "--agents", "not-a-number", "--out", "/tmp/x") == 1
        assert run_cli("frobnicate") == 1
        assert run_cli("run", "--agents", "2", "--ms", "0.5", "--signal", "1") == 1

    def test_runtime_failure_is_two(self, capsys):
        assert run_cli("replay", "--manifest", "/nonexistent/m.json", "--out", "/tmp/y") == 2
