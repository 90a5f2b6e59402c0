#!/usr/bin/env python3
"""Max-effort baseline sweep: social welfare and episode length against the
equilibrium stock, for several population sizes.

Writes baseline.csv through ``fishcoop baseline`` (m_s from 0.2 to 1.3 in
steps of 0.02) and prints the empirically found sustainable-harvesting
limits next to the closed forms.
"""

import argparse

import numpy as np

from fishcoop import analytics, cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", default="2,4,8,16,32,64")
    parser.add_argument("--growth-rate", type=float, default=1.0)
    parser.add_argument("--horizon", type=int, default=500)
    parser.add_argument("--out", default="runs/baseline")
    args = parser.parse_args()

    status = cli.main([
        "baseline", "--agents", args.agents, "--growth-rate", str(args.growth_rate),
        "--tmax", str(args.horizon), "--ms-step", "0.02", "--out", args.out,
    ])
    if status:
        return status
    for n in (int(x) for x in args.agents.split(",")):
        k = analytics.k_constant(args.growth_rate)
        grid = np.array([0.01 * k * n * i for i in range(85, 111)])
        found = analytics.empirical_lsh(n, args.growth_rate, 1.0, args.horizon, grid)
        theory = analytics.limit_sustainable_harvesting(n, args.growth_rate, 1.0)
        print(f"N={n:3d}: empirical LSH {found:.4f} vs closed form {theory:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
