"""Batch command-line interface.

Subcommands: ``run`` (grid experiment), ``baseline`` (max-effort sweep),
``limits`` (closed-form stock limits), ``control`` (forward-backward sweep
vs the best bang-bang schedule), ``cic`` (signal influence of a
checkpoint), ``replay`` (re-run from a manifest). Exits 0 on success, 1 on
parameter errors and 2 on runtime failures.

A ``run --config`` file is flat ``key=value`` text ('#' comments allowed). Its
keys are the names of the ``run`` flags without the leading dashes, with ``-``
and ``_`` interchangeable (``kl-target`` or ``kl_target``); a value is read
as its flag's would be, explicit flags win over file values, and an unknown
key, or a key given twice in either spelling, is an error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import typing
from pathlib import Path

import numpy as np

from . import analytics, control, env, harness, metrics
from .learner import PpoHyper, load_checkpoint


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); parameter errors are 1
        raise CliError(message)


def _parse_config_file(path) -> dict[str, str]:
    """The file's values keyed by flag name: each key with ``_`` read as ``-``."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = key.replace("_", "-")
            if flag in values:
                raise CliError(f"{path}:{lineno}: key {key!r} is given twice")
            values[flag] = value
    return values


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _agent_counts(text: str) -> list[int]:
    """The population sizes of ``--agents``: one or more, each at least 1."""
    counts = _int_list(text)
    if not counts or min(counts) < 1:
        raise CliError(f"--agents needs one or more positive counts, got {text!r}")
    return counts


# Each `run` flag and the ExperimentConfig or PpoHyper field it sets. A flag,
# or the config key of the same name, has its field's type; a setting given by
# neither is left out of the constructor call, so the dataclass holds the only
# default. The grid axes take comma-separated lists, and as their fields have
# no default, the CLI's stand in.
_RUN_FIELDS = {
    "agents": (harness.ExperimentConfig, "n_agents"),
    "ms": (harness.ExperimentConfig, "m_s"),
    "signal": (harness.ExperimentConfig, "signal_cardinality"),
    "trials": (harness.ExperimentConfig, "trials"),
    "seed": (harness.ExperimentConfig, "base_seed"),
    "episodes": (harness.ExperimentConfig, "max_episodes"),
    "tmax": (harness.ExperimentConfig, "t_max"),
    "growth-rate": (harness.ExperimentConfig, "growth_rate"),
    "emax": (harness.ExperimentConfig, "e_max"),
    "lr": (PpoHyper, "learning_rate"),
    "clip": (PpoHyper, "clip"),
    "vf-clip": (PpoHyper, "vf_clip"),
    "kl-target": (PpoHyper, "kl_target"),
    "gamma": (PpoHyper, "gamma"),
    "gae-lambda": (PpoHyper, "gae_lambda"),
    "vf-coeff": (PpoHyper, "vf_coeff"),
    "entropy-coeff": (PpoHyper, "entropy_coeff"),
    "epochs": (PpoHyper, "epochs_per_update"),
    "minibatch": (PpoHyper, "minibatch_size"),
    "steps-per-update": (PpoHyper, "steps_per_update"),
}
_GRID_DEFAULTS = {"agents": [4], "ms": [0.5], "signal": [1]}


def _run_flag_type(flag: str):
    if flag == "out":
        return str
    cls, name = _RUN_FIELDS[flag]
    kind = typing.get_type_hints(cls)[name]
    return {int: _int_list, float: _float_list}[kind] if flag in _GRID_DEFAULTS else kind


def _add_run_flags(parser: _Parser):
    parser.add_argument("--config", help="flat key=value file, keyed by flag name")
    parser.add_argument("--out", help="output directory")
    for flag in _RUN_FIELDS:
        parser.add_argument(f"--{flag}", type=_run_flag_type(flag))


def _run_configs(args) -> tuple[list[harness.ExperimentConfig], str]:
    """The grid cells and output directory of a ``run``, from its flags and
    config file."""
    given = {flag: getattr(args, flag.replace("-", "_")) for flag in ["out", *_RUN_FIELDS]}
    settings = {flag: value for flag, value in given.items() if value is not None}
    for flag, text in (_parse_config_file(args.config) if args.config else {}).items():
        if flag not in given:
            raise CliError(f"{args.config}: unknown key {flag!r}")
        if flag not in settings:  # an explicit flag wins
            settings[flag] = _run_flag_type(flag)(text)
    out = settings.pop("out", None)
    if out is None:
        raise CliError("an output directory is required (--out)")
    grid = [settings.pop(flag, default) for flag, default in _GRID_DEFAULTS.items()]
    for flag, values in zip(_GRID_DEFAULTS, grid):
        if not values:
            raise CliError(f"--{flag} needs at least one value")
        if len(set(values)) < len(values):
            raise CliError(f"--{flag} repeats a value: {values}")
    fields = {harness.ExperimentConfig: {}, PpoHyper: {}}
    for flag, value in settings.items():
        cls, name = _RUN_FIELDS[flag]
        fields[cls][name] = value
    hyper = PpoHyper(**fields[PpoHyper])
    cell = fields[harness.ExperimentConfig]
    configs = [
        harness.ExperimentConfig(n_agents=n, m_s=m_s, signal_cardinality=g, hyper=hyper, **cell)
        for n, m_s, g in itertools.product(*grid)
    ]
    return configs, out


def _cmd_run(args) -> int:
    configs, out = _run_configs(args)
    result = harness.run_experiment(configs)
    harness.persist(result, out)
    for row in harness.summarize(result):
        print(
            f"{row['cell']}: SW={row['mean_social_welfare']:.4g} "
            f"len={row['mean_length']:.4g} CT={row['mean_convergence_time']:.4g} "
            f"CIC={row['mean_cic']:.4g} p={row['sw_p_value']:.4g}"
        )
    print(f"wrote {out}")
    return 0


def _cmd_baseline(args) -> int:
    counts = _agent_counts(args.agents)
    if not (np.isfinite(args.ms_step) and args.ms_step > 0):
        raise CliError(f"--ms-step must be finite and positive, got {args.ms_step:g}")
    ms_grid = np.arange(args.ms_lo, args.ms_hi + 1e-12, args.ms_step)
    if not len(ms_grid):
        raise CliError(f"--ms-lo {args.ms_lo:g} to --ms-hi {args.ms_hi:g} holds no m_s value")
    rows = []
    for n in counts:
        block = []
        for m_s in ms_grid.tolist():
            s_eq = analytics.seq_from_multiplier(m_s, n, args.growth_rate, args.emax)
            params = env.EnvParams(
                n_agents=n, s_eq=s_eq, growth_rate=args.growth_rate, e_max=args.emax,
                max_steps=args.tmax,
            )
            res = analytics.max_effort_baseline(params, args.tmax)
            block.append([n, m_s, s_eq, res.length, res.social_welfare])
        top = max(row[4] for row in block)
        rows += [row + [row[4] / top if top else 0.0] for row in block]

    header = ["n_agents", "m_s", "s_eq", "length", "social_welfare", "sw_normalized"]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        harness._write_csv(out / "baseline.csv", header, rows)
        print(f"wrote {out / 'baseline.csv'}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(harness._fmt(v) for v in row))
    return 0


def _cmd_limits(args) -> int:
    for n in _agent_counts(args.agents):
        limits = analytics.theory_limits(n, args.growth_rate, args.emax)
        print(
            f"N={n} r={args.growth_rate:g}: S_LSH={limits.s_lsh:.6f} "
            f"S_LID={limits.s_lid:.6f} K={limits.k_const:.6f} Ms_LID={limits.ms_lid:.6f}"
        )
    lo, hi = analytics.growth_rate_bounds()
    print(f"stable growth rates: [{lo:.6f}, {hi:.6f}]")
    return 0


def _cmd_control(args) -> int:
    s_eq = args.seq
    if s_eq is None:
        s_eq = analytics.seq_from_multiplier(args.ms, args.agents, args.growth_rate, args.emax)
    params = env.EnvParams(
        n_agents=args.agents, s_eq=s_eq, growth_rate=args.growth_rate, e_max=args.emax,
        price=args.price, cost=args.cost,
    )
    sweep = control.forward_backward_sweep(params, args.horizon)
    status = "converged" if sweep.converged else "NOT converged"
    print(f"sweep: objective={sweep.objective:.9g} ({status}, {sweep.iterations} iterations)")
    print("efforts:", " ".join(f"{e:g}" for e in sweep.efforts))
    if args.horizon <= control.BRUTE_FORCE_MAX_HORIZON:
        schedule, objective = control.brute_force_optimal(params, args.horizon)
        gap = objective - sweep.objective
        print(
            f"brute force: objective={objective:.9g} (best bang-bang schedule, gap {gap:.3g})"
        )
        print("efforts:", " ".join(f"{e:g}" for e in schedule))
        if gap > 1e-9:
            # the sweep only satisfies the maximum principle's necessary conditions
            print(f"sweep is NOT optimal (gap {gap:.3g})")
    else:
        print(f"brute force skipped (horizon > {control.BRUTE_FORCE_MAX_HORIZON})")
    return 0


def _cmd_cic(args) -> int:
    agents = load_checkpoint(args.checkpoint, e_max=args.emax)
    e_max = agents[0].e_max
    rng = np.random.default_rng(args.seed)
    config = metrics.CicConfig(n_states=args.states, n_samples=args.samples, n_bins=args.bins)
    values = []
    for i, agent in enumerate(agents):
        value = metrics.cic(
            agent,
            metrics.uniform_partial_state(e_max),
            config,
            agent.g,
            e_max,
            rng,
        )
        values.append(value)
        print(f"agent {i}: CIC={value:.6f}")
    print(f"mean CIC={np.mean(values):.6f}")
    return 0


def _cmd_replay(args) -> int:
    harness.replay(args.manifest, args.out)
    print(f"replayed into {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fishcoop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a grid experiment")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    base_p = sub.add_parser("baseline", help="max-effort sweep over stock levels")
    base_p.add_argument("--agents", default="2,4,8,16")
    base_p.add_argument("--growth-rate", type=float, default=1.0)
    base_p.add_argument("--emax", type=float, default=1.0)
    base_p.add_argument("--tmax", type=int, default=500)
    base_p.add_argument("--ms-lo", type=float, default=0.2)
    base_p.add_argument("--ms-hi", type=float, default=1.3)
    base_p.add_argument("--ms-step", type=float, default=0.05)
    base_p.add_argument("--out")
    base_p.set_defaults(func=_cmd_baseline)

    limits_p = sub.add_parser("limits", help="print the closed-form stock limits")
    limits_p.add_argument("--agents", default="1,2,8,16,64")
    limits_p.add_argument("--growth-rate", type=float, default=1.0)
    limits_p.add_argument("--emax", type=float, default=1.0)
    limits_p.set_defaults(func=_cmd_limits)

    control_p = sub.add_parser("control", help="optimal-control sweep and oracle")
    control_p.add_argument("--agents", type=int, default=1)
    stock = control_p.add_mutually_exclusive_group()
    stock.add_argument("--ms", type=float, default=1.0)
    stock.add_argument("--seq", type=float)
    control_p.add_argument("--growth-rate", type=float, default=1.0)
    control_p.add_argument("--emax", type=float, default=1.0)
    control_p.add_argument("--price", type=float, default=1.0)
    control_p.add_argument("--cost", type=float, default=0.0)
    control_p.add_argument("--horizon", type=int, default=10)
    control_p.set_defaults(func=_cmd_control)

    cic_p = sub.add_parser("cic", help="signal influence of a saved checkpoint")
    cic_p.add_argument("--checkpoint", required=True)
    cic_p.add_argument(
        "--emax", type=float, help="must match the checkpoint's (default: the checkpoint's)"
    )
    cic_p.add_argument("--bins", type=int, default=10)
    cic_p.add_argument("--states", type=int, default=100)
    cic_p.add_argument("--samples", type=int, default=100)
    cic_p.add_argument("--seed", type=int, default=0)
    cic_p.set_defaults(func=_cmd_cic)

    replay_p = sub.add_parser("replay", help="re-run an experiment from its manifest")
    replay_p.add_argument("--manifest", required=True)
    replay_p.add_argument("--out", required=True)
    replay_p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
