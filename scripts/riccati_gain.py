"""Gain integration sanity checks for the scalar continuous problem.

Unit coefficients put the gain equation on its fixed point K = 1.
Starting off the fixed point (Q0 = 4) the flow follows
K(t) = tanh(t + atanh(1/4)); the script prints the worst deviation from
that closed form and then compares the endpoint radius against the
discretized recursive filter on a ladder of grids.

Exits 1 when the gain leaves its fixed point by more than 1e-6
(acceptance criterion 5) or when K(1) misses the closed form by more
than 1/steps, the implicit-Euler step's first-order error bound.
"""

import argparse
import sys

import numpy as np

from descriptor_minimax import (
    ContinuousDAE,
    ContinuousEllipsoid,
    TimeGrid,
    discretize,
    filter_run,
    riccati_filter,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=1000)
    args = ap.parse_args()

    system = ContinuousDAE(F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0)
    unit = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, args.steps)
    y = np.zeros((args.steps + 1, 1))

    out = riccati_filter(system, unit, [1.0], y, grid)
    fixed_gap = float(np.max(np.abs(out.K_nodes - 1.0)))
    print(f"fixed point:   max |K - 1| = {fixed_gap:.3e}")
    print(f"               worst-case MSE = {out.worst_case_mse:.12f}")

    off = ContinuousEllipsoid(Q0=[[4.0]], Q1=[[1.0]], Q2=[[1.0]])
    out = riccati_filter(system, off, [1.0], y, grid)
    exact = np.tanh(grid.nodes() + np.arctanh(0.25))
    end_gap = abs(out.outputs["K_final"][0, 0] - exact[-1])
    print(f"tanh flow:     max |K - tanh| = {np.max(np.abs(out.K_nodes[:, 0, 0] - exact)):.3e}")
    print(f"               K(1) error     = {end_gap:.3e}")

    print("\nendpoint radius vs discretized recursive filter:")
    print(f"{'steps':>8} {'riccati':>14} {'filter P_N':>14} {'diff':>10}")
    for M in (16, 32, 64, 128):
        g = TimeGrid(0.0, 1.0, M)
        yM = np.zeros((M + 1, 1))
        ric = riccati_filter(system, off, [1.0], yM, g)
        dae, dbounds = discretize(system, off, g)
        run = filter_run(dae, dbounds, list(yM), np.ones(1))
        p_end = float(run.outputs["P_final"][0, 0])
        print(f"{M:>8} {ric.worst_case_mse:>14.8f} {p_end:>14.8f} {abs(p_end - ric.worst_case_mse):>10.2e}")

    failures = []
    if not fixed_gap <= 1e-6:
        failures.append(f"max |K - 1| = {fixed_gap:.3e} exceeds 1e-6")
    if not end_gap <= 1.0 / args.steps:
        failures.append(f"|K(1) - tanh| = {end_gap:.3e} exceeds 1/steps = {1.0 / args.steps:.3e}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
