"""Experiment orchestration: trials, early stopping, persistence, replay.

A grid experiment is a list of cells, each a full per-cell configuration
(population size, scarcity multiplier, signal cardinality). Every trial's
random streams derive from ``(base_seed, cell id, trial index)`` via a
stable hash, so a run is reproducible from its manifest alone. Per-episode
metrics land in one ``episodes.csv`` per cell; cell aggregates, with/without
signal relative differences and t-test p-values land in ``summary.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analytics, env, learner, metrics, signals
from .learner import PpoAgent, PpoHyper, save_checkpoint

MANIFEST_VERSION = 1
EXTRAPOLATED = "extrapolated"
# A trial's final metrics are means over its last RECENT_EPISODES episodes.
RECENT_EPISODES = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell. The equilibrium stock is derived from the scarcity
    multiplier: s_eq = m_s * K * N."""

    n_agents: int
    m_s: float
    signal_cardinality: int
    growth_rate: float = env.EnvParams.growth_rate
    e_max: float = env.EnvParams.e_max
    price: float = env.EnvParams.price
    cost: float = env.EnvParams.cost
    depletion_threshold: float = env.EnvParams.depletion_threshold
    max_episodes: int = 5000
    t_max: int = env.EnvParams.max_steps
    trials: int = 8
    base_seed: int = 0
    hyper: PpoHyper = field(default_factory=PpoHyper)

    def __post_init__(self):
        if self.signal_cardinality < 1:
            raise ValueError(
                f"signal_cardinality must be at least 1, got {self.signal_cardinality}"
            )
        self.env_params()  # the model's own checks, before any trial runs
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.max_episodes < 0:
            raise ValueError(f"max_episodes must be at least 0, got {self.max_episodes}")

    @property
    def s_eq(self) -> float:
        return analytics.seq_from_multiplier(
            self.m_s, self.n_agents, self.growth_rate, self.e_max
        )

    @property
    def cell_id(self) -> str:
        return f"n{self.n_agents}_g{self.signal_cardinality}_ms{self.m_s:g}"

    def env_params(self) -> env.EnvParams:
        return env.EnvParams(
            n_agents=self.n_agents,
            s_eq=self.s_eq,
            growth_rate=self.growth_rate,
            e_max=self.e_max,
            price=self.price,
            cost=self.cost,
            depletion_threshold=self.depletion_threshold,
            max_steps=self.t_max,
        )


def trial_seed(base_seed: int, cell_id: str, trial_index: int) -> int:
    """Stable 64-bit seed derived from the run seed, cell and trial."""
    digest = hashlib.blake2b(
        f"{base_seed}|{cell_id}|{trial_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _spawn_streams(seed: int, n_agents: int):
    children = np.random.SeedSequence(seed).spawn(n_agents + 2)
    env_rng = np.random.default_rng(children[0])
    eval_rng = np.random.default_rng(children[1])
    agent_rngs = [np.random.default_rng(c) for c in children[2:]]
    return env_rng, eval_rng, agent_rngs


def _observations(state: env.EnvState, signal_vec: np.ndarray) -> np.ndarray:
    """The step's (N, 2 + G) observations: row n is agent n's
    [last effort, last reward, signal]."""
    obs = np.empty((len(state.last_efforts), 2 + len(signal_vec)))
    obs[:, 0] = state.last_efforts
    obs[:, 1] = state.last_rewards
    obs[:, 2:] = signal_vec
    return obs


def run_episode(
    params: env.EnvParams,
    agents: list[PpoAgent],
    signal_cardinality: int,
    rng: np.random.Generator,
    episode_index: int = 0,
    rollout: learner.Rollout | None = None,
):
    """Play one episode with all agents acting synchronously each step.

    The agents act through one stacked policy (``learner.act``), stacked at
    the start of the episode; their parameters are its rows from then on.

    Returns (EpisodeRecord, actions array of shape (steps, N), signal index
    per step). Each step is appended to ``rollout`` when it is given; each
    time it fills, every agent updates in place on its row, bootstrapping
    from the next step's values (zero at the episode's end), and it is
    emptied. The next step acts on the updated parameters.
    """
    if len(agents) != params.n_agents:
        raise ValueError(f"need {params.n_agents} agents, got {len(agents)}")
    for agent in agents:
        if agent.g != signal_cardinality:
            raise ValueError("agent signal cardinality does not match the source")
        if agent.e_max != params.e_max:
            raise ValueError("agent effort range does not match the environment")

    offset = signals.new_episode_offset(rng, signal_cardinality)
    source = signals.SignalSource(signal_cardinality, offset)
    state = env.reset(params)
    returns = np.zeros(params.n_agents)
    actions_log = []
    signal_log = []
    reason = env.DoneReason.RUNNING
    policy = learner.stack_params(agents)
    rngs = [agent.rng for agent in agents]

    while True:
        obs = _observations(state, signals.one_hot(state.t, source))
        efforts, draws = learner.act(policy, obs, rngs, params.e_max)
        state, outcome = env.step(state, efforts, params)
        returns += outcome.rewards
        actions_log.append(efforts)
        signal_log.append(signals.hot_index(state.t - 1, source))
        if rollout is not None and rollout.append(obs, *draws, outcome.rewards, outcome.done):
            if not outcome.done:  # an episode's end bootstraps from zero, with no forward
                next_obs = _observations(state, signals.one_hot(state.t, source))
                _, values = learner.stacked_forward(policy, next_obs, params.e_max)
            for n, agent in enumerate(agents):
                agent.update(rollout, n, 0.0 if outcome.done else float(values[n]))
            rollout.reset()
        if outcome.done:
            reason = outcome.done_reason
            break

    record = metrics.EpisodeRecord(
        episode=episode_index,
        length=len(actions_log),
        social_welfare=float(returns.sum()),
        per_agent_returns=returns,
        done_reason=reason,
    )
    return record, np.array(actions_log), np.array(signal_log)


def _fairness(returns: np.ndarray) -> tuple[float, float]:
    # an episode where nobody earned anything is an equal (fair) allocation
    if np.all(returns == 0):
        return 1.0, 0.0
    if np.any(returns < 0):
        return math.nan, math.nan
    return metrics.jain_index(returns), metrics.gini_coefficient(returns)


@dataclass
class TrialResult:
    trial: int
    seed: int
    lengths: np.ndarray
    social_welfare: np.ndarray
    jain: np.ndarray
    gini: np.ndarray
    done_reasons: list[str]
    episodes_run: int
    convergence_time: int
    converged: bool
    cic_mean: float
    access: tuple[int, int, int]
    profile: np.ndarray
    agents: list[PpoAgent] | None
    failed: bool
    error: str | None
    total_steps: int
    wall_clock: float

    def last10(self, key: str) -> float:
        arr = getattr(self, key)
        return float(np.mean(arr[-RECENT_EPISODES:])) if len(arr) else math.nan


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """Train one seed of one cell: episode loop with step-count PPO cadence,
    early stopping on the convergence criterion, and extrapolation of the
    remaining episode metrics from the means over the last convergence window.
    An exception in the episode loop (a diverged update, a non-finite action)
    marks only this trial failed and is kept in its ``error``."""
    seed = trial_seed(config.base_seed, config.cell_id, trial_index)
    env_rng, eval_rng, agent_rngs = _spawn_streams(seed, config.n_agents)
    params = config.env_params()
    agents = [
        PpoAgent(config.signal_cardinality, config.e_max, config.hyper, agent_rng)
        for agent_rng in agent_rngs
    ]
    # the trial never fills a buffer longer than its max_episodes * t_max steps
    steps = min(config.hyper.steps_per_update, config.max_episodes * config.t_max + 1)
    rollout = learner.Rollout(config.n_agents, config.signal_cardinality + 2, steps)
    start = time.perf_counter()

    history: list[metrics.EpisodeRecord] = []
    recent_actions: deque = deque(maxlen=RECENT_EPISODES)
    recent_signals: deque = deque(maxlen=RECENT_EPISODES)
    converged = False
    failed = False
    error = None

    try:
        for episode in range(config.max_episodes):
            record, actions, signal_idx = run_episode(
                params,
                agents,
                config.signal_cardinality,
                env_rng,
                episode_index=episode,
                rollout=rollout,
            )
            history.append(record)
            recent_actions.append(actions)
            recent_signals.append(signal_idx)
            if metrics.convergence_check(history, config.t_max):
                converged = True
                break
    except Exception as exc:
        failed = True
        error = f"{type(exc).__name__}: {exc}"

    episodes_run = len(history)
    convergence_time = episodes_run if converged else config.max_episodes

    lengths = [float(r.length) for r in history]
    sw = [r.social_welfare for r in history]
    fairness = [_fairness(r.per_agent_returns) for r in history]
    jain = [f[0] for f in fairness]
    gini = [f[1] for f in fairness]
    reasons = [r.done_reason.value for r in history]

    if not failed and episodes_run < config.max_episodes:
        tail = slice(max(0, episodes_run - metrics.CONVERGENCE_WINDOW), episodes_run)
        missing = config.max_episodes - episodes_run
        for series in (lengths, sw, jain, gini):
            series += [float(np.mean(series[tail]))] * missing
        reasons += [EXTRAPOLATED] * missing

    profile = np.full((config.signal_cardinality, config.n_agents), np.nan)
    if history:  # over the last RECENT_EPISODES completed episodes
        recent, recent_idx = np.concatenate(recent_actions), np.concatenate(recent_signals)
        profile = metrics.per_signal_effort_profile(recent, recent_idx, config.signal_cardinality)

    cic_mean = math.nan
    access = (0, 0, 0)
    if not failed and episodes_run > 0:
        cic_values = [
            metrics.cic(
                agent,
                metrics.uniform_partial_state(config.e_max, config.price),
                metrics.CicConfig(),
                config.signal_cardinality,
                config.e_max,
                eval_rng,
            )
            for agent in agents
        ]
        cic_mean = float(np.mean(cic_values))
        access = metrics.access_bins(recent.mean(axis=0), config.e_max)

    return TrialResult(
        trial=trial_index,
        seed=seed,
        lengths=np.array(lengths),
        social_welfare=np.array(sw),
        jain=np.array(jain),
        gini=np.array(gini),
        done_reasons=reasons,
        episodes_run=episodes_run,
        convergence_time=convergence_time,
        converged=converged,
        cic_mean=cic_mean,
        access=access,
        profile=profile,
        agents=None if failed else agents,
        failed=failed,
        error=error,
        total_steps=rollout.appended,
        wall_clock=time.perf_counter() - start,
    )


@dataclass
class CellResult:
    config: ExperimentConfig
    trials: list[TrialResult]

    def ok_trials(self) -> list[TrialResult]:
        return [t for t in self.trials if not t.failed]

    def trial_means(self, key: str) -> np.ndarray:
        return np.array([t.last10(key) for t in self.ok_trials()])


@dataclass
class ExperimentResult:
    cells: list[CellResult]


def run_experiment(configs: list[ExperimentConfig]) -> ExperimentResult:
    """Run every cell of the grid for all its trials.

    Trials are independent (seeded from cell id and trial index), so the
    execution order never affects any per-trial output. Cells that share an
    id but differ in configuration would share seeds and output files, so
    such a grid is rejected before any trial runs.
    """
    by_id: dict[str, ExperimentConfig] = {}
    clashes = sorted({c.cell_id for c in configs if by_id.setdefault(c.cell_id, c) != c})
    if clashes:
        raise ValueError(f"different cells share the id {', '.join(clashes)}")
    cells = []
    for config in configs:
        trials = [run_trial(config, k) for k in range(config.trials)]
        cells.append(CellResult(config=config, trials=trials))
    return ExperimentResult(cells=cells)


def _baseline_cell(cell: CellResult, cells: list[CellResult]) -> CellResult | None:
    """First cell whose configuration differs from this one in the signal
    alone, with no signal (G = 1). A no-signal cell has none: it is never its
    own baseline."""
    if cell.config.signal_cardinality == 1:
        return None
    unsignalled = replace(cell.config, signal_cardinality=1)
    for other in cells:
        if other.config == unsignalled:
            return other
    return None


SUMMARY_COLUMNS = [
    "cell", "n_agents", "m_s", "g", "s_eq", "trials", "failed_trials",
    "mean_social_welfare", "mean_length", "mean_jain", "mean_gini",
    "mean_convergence_time", "mean_cic", "idle", "moderate", "active",
    "sw_relative_difference", "sw_p_value",
]


def _mean_or_nan(values) -> float:
    """The mean of one value per ok trial, or NaN for a cell with none."""
    return float(np.mean(values)) if len(values) else math.nan


def summarize(result: ExperimentResult) -> list[dict]:
    """Cell-level aggregate rows, including with/without-signal relative
    differences and t-test p-values where a no-signal partner cell exists."""
    rows = []
    for cell in result.cells:
        cfg = cell.config
        ok = cell.ok_trials()
        row = {
            "cell": cfg.cell_id,
            "n_agents": cfg.n_agents,
            "m_s": cfg.m_s,
            "g": cfg.signal_cardinality,
            "s_eq": cfg.s_eq,
            "trials": cfg.trials,
            "failed_trials": len(cell.trials) - len(ok),
            "mean_social_welfare": _mean_or_nan(cell.trial_means("social_welfare")),
            "mean_length": _mean_or_nan(cell.trial_means("lengths")),
            "mean_jain": _mean_or_nan(cell.trial_means("jain")),
            "mean_gini": _mean_or_nan(cell.trial_means("gini")),
            "mean_convergence_time": _mean_or_nan([t.convergence_time for t in ok]),
            "mean_cic": _mean_or_nan([t.cic_mean for t in ok]),
            "idle": _mean_or_nan([t.access[0] for t in ok]),
            "moderate": _mean_or_nan([t.access[1] for t in ok]),
            "active": _mean_or_nan([t.access[2] for t in ok]),
            "sw_relative_difference": math.nan,
            "sw_p_value": math.nan,
        }
        baseline = _baseline_cell(cell, result.cells)
        if baseline is not None and ok and baseline.ok_trials():
            base_sw = baseline.trial_means("social_welfare")
            cell_sw = cell.trial_means("social_welfare")
            base_mean = float(np.mean(base_sw))
            if base_mean != 0:
                row["sw_relative_difference"] = metrics.relative_difference(
                    float(np.mean(cell_sw)), base_mean
                )
            if len(base_sw) >= 2 and len(cell_sw) >= 2:
                _, p = metrics.student_t_test(cell_sw, base_sw)
                row["sw_p_value"] = p
        rows.append(row)
    return rows


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return "%.9g" % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


EPISODE_COLUMNS = ["trial", "episode", "length", "social_welfare", "jain", "gini", "done_reason"]


def _config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["hyper"] = asdict(config.hyper)
    data["s_eq"] = config.s_eq
    return data


def _config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    data.pop("s_eq", None)
    hyper = PpoHyper(**data.pop("hyper"))
    return ExperimentConfig(hyper=hyper, **data)


def build_manifest(result: ExperimentResult) -> dict:
    cells = []
    for cell in result.cells:
        cfg = cell.config
        limits = analytics.theory_limits(cfg.n_agents, cfg.growth_rate, cfg.e_max)
        cells.append(
            {
                "config": _config_to_dict(cfg),
                "theory_limits": asdict(limits),
                "trial_seeds": [t.seed for t in cell.trials],
                "trial_errors": [t.error for t in cell.trials],
                "total_steps": int(sum(t.total_steps for t in cell.trials)),
                "wall_clock_s": float(sum(t.wall_clock for t in cell.trials)),
            }
        )
    return {"format_version": MANIFEST_VERSION, "cells": cells}


def persist(result: ExperimentResult, out_dir) -> dict:
    """Write episodes.csv and profile.csv per cell, plus summary.csv and
    manifest.json at the top level. Fails before touching anything if the
    output directory cannot be created or written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("")
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc
    probe.unlink()

    for cell in result.cells:
        cell_dir = out / cell.config.cell_id
        cell_dir.mkdir(exist_ok=True)
        rows = [
            [trial.trial, ep, *values]
            for trial in cell.trials
            for ep, values in enumerate(
                zip(trial.lengths, trial.social_welfare, trial.jain, trial.gini, trial.done_reasons)
            )
        ]
        _write_csv(cell_dir / "episodes.csv", EPISODE_COLUMNS, rows)

        # the profile of the first ok trial stands for the cell
        ok = cell.ok_trials()
        profile_rows = [[g, *efforts] for g, efforts in enumerate(ok[0].profile)] if ok else []
        _write_csv(
            cell_dir / "profile.csv",
            ["signal"] + [f"agent_{i}" for i in range(cell.config.n_agents)],
            profile_rows,
        )
        for trial in ok:
            save_checkpoint(cell_dir / f"policy_trial{trial.trial}.ckpt", trial.agents)

    summary_rows = summarize(result)
    _write_csv(
        out / "summary.csv",
        SUMMARY_COLUMNS,
        [[row[k] for k in SUMMARY_COLUMNS] for row in summary_rows],
    )

    manifest = build_manifest(result)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def load_manifest(path) -> list[ExperimentConfig]:
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest.get('format_version')}")
    return [_config_from_dict(cell["config"]) for cell in manifest["cells"]]


def replay(manifest_path, out_dir) -> ExperimentResult:
    """Re-run an experiment from its manifest and persist to ``out_dir``."""
    configs = load_manifest(manifest_path)
    result = run_experiment(configs)
    persist(result, out_dir)
    return result
