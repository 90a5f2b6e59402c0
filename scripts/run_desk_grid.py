#!/usr/bin/env python3
"""Desk-scale signal-vs-no-signal grid under scarcity.

Trains independent PPO agents with and without the periodic signal at a
scarce stock level and persists episodes, per-signal effort profiles,
checkpoints, summary and manifest. Full-size runs (500-step horizons,
thousands of episodes, 8 trials) use the same code path via the CLI.
"""

import argparse

from fishcoop import harness
from fishcoop.learner import DESK_HYPER


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=4)
    parser.add_argument("--ms", type=float, default=0.5)
    parser.add_argument("--episodes", type=int, default=1000)
    parser.add_argument("--tmax", type=int, default=100)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/desk_grid")
    args = parser.parse_args()

    configs = [
        harness.ExperimentConfig(
            n_agents=args.agents,
            m_s=args.ms,
            signal_cardinality=g,
            max_episodes=args.episodes,
            t_max=args.tmax,
            trials=args.trials,
            base_seed=args.seed,
            hyper=DESK_HYPER,
        )
        for g in (1, args.agents)
    ]
    result = harness.run_experiment(configs)
    harness.persist(result, args.out)
    for row in harness.summarize(result):
        print(
            f"{row['cell']}: SW={row['mean_social_welfare']:8.2f} "
            f"len={row['mean_length']:6.1f} CIC={row['mean_cic']:.3f} "
            f"idle/mod/active={row['idle']:.1f}/{row['moderate']:.1f}/{row['active']:.1f} "
            f"rel SW={row['sw_relative_difference']:+.2f} p={row['sw_p_value']:.4f}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
