"""The benchmark's three workloads, each a closed loop over fishcoop's public API.

A workload builds a unit's inputs from the seed alone (``prepare``), runs
the unit under the benchmark's clock (``run``) and then checks its outputs
off the clock (``check``). Every unit of a run gets the same inputs, so
operation i of every unit does the same work. One caller waits for every
call to finish.

* ``grid_desk``: ``fishcoop run`` then ``fishcoop replay`` on the scarcity
  grid at desk scale. The user's training path end to end; ``learner.update``
  dominates, ``metrics.cic`` and ``harness.persist`` also run, and its four
  independent trials are where trial-level parallelism can show.
* ``rollout_eval``: policy evaluation with sampled actions, no trajectories
  and no updates. ``learner.act`` and ``env.step`` do nearly all the work.
* ``theory_oracle``: the optimal-control sweep against brute force, and the
  empirical sustainable-harvesting limit. The only workload that reaches
  ``control`` and ``analytics``; pure-Python scalar loops, no learner.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fishcoop import analytics, cli, control, env, harness
from fishcoop.learner import PpoAgent, PpoHyper


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What a unit did, judged off the clock."""

    attempted: int
    failed: int
    op_seconds: list[float]  # in run order; operation i of every unit does the same work
    agent_steps: int
    fingerprint: str  # equal for equal inputs, traced or not
    checks: list[dict] = field(default_factory=list)
    exact: dict = field(default_factory=dict)  # per-unit counts the workload itself knows
    record: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


class GridDesk:
    """N=4, m_s=0.5, signal 1 and 4, 2 trials, T=100, desk PPO hyperparameters,
    run and replayed for two CLI seeds drawn from the benchmark seed."""

    name = "grid_desk"
    EPISODES = 80
    TRIALS_PER_CALL = 4  # 2 cells x 2 trials
    # How long a grid trains depends on its seed: over eight seeds the
    # quartiles of its env steps lay 11-14% of the median apart. Two grids
    # per unit average some of that out of the unit's time.
    GRIDS = 2
    ops = GRIDS * 2 * TRIALS_PER_CALL  # each grid's run trials and replay trials
    DESK_FLAGS = [
        "--agents", "4", "--ms", "0.5", "--signal", "1,4", "--trials", "2",
        "--tmax", "100", "--lr", "1e-3", "--steps-per-update", "400",
        "--epochs", "20", "--minibatch", "128", "--kl-target", "0.05",
    ]

    def __init__(self, seed: int, work_dir: Path):
        self.cli_seeds = [self.GRIDS * seed + k for k in range(self.GRIDS)]
        self.work_dir = work_dir
        self.tracer = None
        # (wall time, failed, env steps, agents) of each trial, as the harness measured them
        self.trials: list[tuple[float, bool, int, int]] = []
        self._run_trial = harness.run_trial
        harness.run_trial = self._record_trial

    def _record_trial(self, config, trial_index):
        if self.tracer is not None:
            self.tracer.begin_op()
        try:
            result = self._run_trial(config, trial_index)
        finally:
            if self.tracer is not None:
                self.tracer.op_id = -1
        self.trials.append(
            (result.wall_clock, result.failed, result.total_steps, config.n_agents)
        )
        return result

    def close(self) -> None:
        harness.run_trial = self._run_trial

    def prepare(self) -> dict:
        unit_dir = self.work_dir / "grid"
        shutil.rmtree(unit_dir, ignore_errors=True)
        grids = []
        for cli_seed in self.cli_seeds:
            grid_dir = unit_dir / f"seed{cli_seed}"
            grid_dir.mkdir(parents=True)
            run_dir, replay_dir = grid_dir / "run", grid_dir / "replay"
            grids.append({
                "seed": cli_seed,
                "run_dir": run_dir,
                "replay_dir": replay_dir,
                "run_argv": ["run", *self.DESK_FLAGS, "--episodes", str(self.EPISODES),
                             "--seed", str(cli_seed), "--out", str(run_dir)],
                "replay_argv": ["replay", "--manifest", str(run_dir / "manifest.json"),
                                "--out", str(replay_dir)],
            })
        return {"unit_dir": unit_dir, "grids": grids}

    def run(self, inputs: dict):
        self.trials = []
        calls = []
        with contextlib.redirect_stdout(io.StringIO()):
            for grid in inputs["grids"]:
                first = len(self.trials)
                rc_run = cli.main(grid["run_argv"])
                middle = len(self.trials)
                rc_replay = cli.main(grid["replay_argv"])
                calls.append((rc_run, rc_replay, self.trials[first:middle], self.trials[middle:]))
        return calls

    def check(self, inputs: dict, raw) -> Outcome:
        trials = [t for _, _, run_trials, replay_trials in raw for t in run_trials + replay_trials]
        out = Outcome(
            attempted=self.ops,
            failed=0,
            op_seconds=[wall for wall, _, _, _ in trials],
            agent_steps=sum(steps * n_agents for _, _, steps, n_agents in trials),
            fingerprint="",
        )
        hashes = {}
        for grid, call in zip(inputs["grids"], raw):
            hashes[grid["seed"]] = self._check_grid(out, grid, *call)
        out.fingerprint = hashlib.sha256(
            "".join(h["run"] for grid in hashes.values() for _, h in sorted(grid.items()))
            .encode()
        ).hexdigest()
        out.exact["harness.persist.bytes"] = sum(
            p.stat().st_size for p in inputs["unit_dir"].rglob("*") if p.is_file()
        )
        out.record = {"episodes_csv_sha256": hashes}
        return out

    def _check_grid(self, out: Outcome, grid: dict, rc_run, rc_replay,
                    run_trials, replay_trials) -> dict:
        """Check one grid's run and replay; count its failed trials into ``out``."""
        n = self.TRIALS_PER_CALL
        seed = f"seed {grid['seed']}: "
        ok_run = sum(not failed for _, failed, _, _ in run_trials)
        ok_replay = sum(not failed for _, failed, _, _ in replay_trials)
        run_ok = out.check("run exit code 0", rc_run == 0, f"{seed}exit {rc_run}")
        replay_ok = out.check("replay exit code 0", rc_replay == 0, f"{seed}exit {rc_replay}")
        out.check("no failed trial",
                  ok_run + ok_replay == len(run_trials) + len(replay_trials) == 2 * n,
                  f"{seed}{ok_run + ok_replay} of {len(run_trials) + len(replay_trials)} trials ok")

        run_csv = sorted(grid["run_dir"].glob("*/episodes.csv"))
        hashes = {}
        identical = run_ok and replay_ok and len(run_csv) == 2
        for path in run_csv:
            cell = path.parent.name
            replayed = grid["replay_dir"] / cell / "episodes.csv"
            hashes[cell] = {"run": sha256(path),
                            "replay": sha256(replayed) if replayed.exists() else None}
            identical = identical and hashes[cell]["run"] == hashes[cell]["replay"]
        out.check("replay episodes.csv byte-identical", identical,
                  f"{seed}{len(run_csv)} cells")

        failed_run = n if not run_ok else n - ok_run
        failed_replay = n if not (replay_ok and identical) else n - ok_replay
        out.failed += failed_run + failed_replay
        return hashes


class RolloutEval:
    """N=8 seeded PpoAgents, G=8, m_s=1.2 (the stock never depletes), T=200."""

    name = "rollout_eval"
    N, G, MS, T, EPISODES = 8, 8, 1.2, 200, 100
    ops = EPISODES

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.tracer = None
        self.params = env.EnvParams(
            n_agents=self.N,
            s_eq=analytics.seq_from_multiplier(self.MS, self.N, 1.0, 1.0),
            max_steps=self.T,
        )

    def close(self) -> None:
        pass

    def prepare(self) -> dict:
        env_seq, *agent_seqs = np.random.SeedSequence(self.seed).spawn(self.N + 1)
        agents = [
            PpoAgent(self.G, self.params.e_max, PpoHyper(), np.random.default_rng(s))
            for s in agent_seqs
        ]
        return {"agents": agents, "rng": np.random.default_rng(env_seq)}

    def run(self, inputs: dict):
        records, seconds = [], []
        for episode in range(self.EPISODES):
            if self.tracer is not None:
                self.tracer.begin_op()
            start = time.perf_counter()
            record, _, _ = harness.run_episode(
                self.params, inputs["agents"], self.G, inputs["rng"], episode_index=episode
            )
            seconds.append(time.perf_counter() - start)
            records.append(record)
        return records, seconds

    def check(self, inputs: dict, raw) -> Outcome:
        records, seconds = raw
        bad = [
            r.episode for r in records
            if r.length != self.T
            or not np.all(np.isfinite(r.per_agent_returns))
            or not math.isfinite(r.social_welfare)
        ]
        out = Outcome(
            attempted=self.ops,
            failed=len(bad) + self.ops - len(records),
            op_seconds=seconds,
            agent_steps=sum(r.length for r in records) * self.N,
            fingerprint=hashlib.sha256(
                b"".join(r.per_agent_returns.tobytes() for r in records)
            ).hexdigest(),
        )
        out.check("every episode runs T steps with finite returns", not bad,
                  f"bad episodes {bad[:5]}")
        return out


class TheoryOracle:
    """Sweep vs brute force for horizons 1..16 at s_eq=1, N=1, and the
    empirical sustainable-harvesting limit for N in {2,4,8,16} at T=500,
    in an order drawn from the seed."""

    name = "theory_oracle"
    HORIZONS = range(1, 17)
    LSH_AGENTS = (2, 4, 8, 16)
    LSH_T = 500
    ops = len(HORIZONS) + len(LSH_AGENTS)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.tracer = None
        self.params = env.EnvParams(n_agents=1, s_eq=1.0)
        # 1%-spaced grids over [0.85, 1.1] x S_LSH
        k_const = analytics.k_constant(1.0)
        self.grids = {n: k_const * n * (0.85 + 0.01 * np.arange(26)) for n in self.LSH_AGENTS}

    def close(self) -> None:
        pass

    def prepare(self) -> dict:
        # the seed orders the problems; what each one computes is fixed
        problems = [("horizon", h) for h in self.HORIZONS] + [("lsh", n) for n in self.LSH_AGENTS]
        order = np.random.default_rng(self.seed).permutation(len(problems))
        return {"problems": [problems[i] for i in order]}

    def run(self, inputs: dict):
        solved = []
        for kind, size in inputs["problems"]:
            if self.tracer is not None:
                self.tracer.begin_op()
            start = time.perf_counter()
            if kind == "horizon":
                sweep = control.forward_backward_sweep(self.params, size)
                _, best = control.brute_force_optimal(self.params, size)
                result = (sweep, best)
            else:
                result = analytics.empirical_lsh(n=size, r=1.0, e_max=1.0, horizon=self.LSH_T,
                                                 s_grid=self.grids[size])
            solved.append((kind, size, result, time.perf_counter() - start))
        return solved

    def _lsh_env_steps(self, n: int, found: float | None) -> int:
        """Env steps empirical_lsh took: one max-effort episode per grid point
        up to the first sustainable one."""
        steps = 0
        for s_eq in self.grids[n]:
            params = env.EnvParams(n_agents=n, s_eq=float(s_eq), max_steps=self.LSH_T)
            steps += analytics.max_effort_baseline(params, self.LSH_T).length
            if found is not None and s_eq >= found:
                break
        return steps

    def check(self, inputs: dict, raw) -> Outcome:
        sweeps = {size: result for kind, size, result, _ in raw if kind == "horizon"}
        found = {size: result for kind, size, result, _ in raw if kind == "lsh"}
        gaps = {h: abs(best - sweep.objective) for h, (sweep, best) in sweeps.items()}
        rel = {
            n: None if f is None
            else abs(f - analytics.limit_sustainable_harvesting(n, 1.0, 1.0))
            / analytics.limit_sustainable_harvesting(n, 1.0, 1.0)
            for n, f in found.items()
        }
        failed = sum(not (sweeps[h][0].converged and gaps[h] <= 1e-9) for h in sweeps)
        failed += sum(r is None or r >= 0.05 for r in rel.values())
        out = Outcome(
            attempted=self.ops,
            failed=failed + self.ops - len(raw),
            op_seconds=[seconds for *_, seconds in raw],
            agent_steps=sum(n * self._lsh_env_steps(n, f) for n, f in found.items()),
            fingerprint=hashlib.sha256(repr((
                sorted((h, sw.objective, sw.iterations, best) for h, (sw, best) in sweeps.items()),
                sorted(found.items()),
            )).encode()).hexdigest(),
        )
        max_gap = max(gaps.values())
        out.check("sweep converges at every horizon",
                  all(sweep.converged for sweep, _ in sweeps.values()))
        out.check("brute-force gap <= 1e-9", max_gap <= 1e-9, f"max gap {max_gap:.3g}")
        out.check("empirical LSH within 5% of closed form",
                  all(r is not None and r < 0.05 for r in rel.values()),
                  f"relative errors {rel}")
        out.exact["control.forward_backward_sweep.iterations"] = sum(
            sweep.iterations for sweep, _ in sweeps.values()
        )
        out.record = {"lsh_relative_error": rel, "max_gap": max_gap}
        return out


WORKLOADS = {w.name: w for w in (GridDesk, RolloutEval, TheoryOracle)}
