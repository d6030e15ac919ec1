"""Grid refinement study for the continuous scalar problem.

Prints the a priori radius on a ladder of uniform grids together with
successive differences and their ratios. First-order convergence shows
up as a ratio near 2. The closed-form limit for this example is
1 - (e - 1)/(2 e^2) - (1 - 1/e)/2.
"""

import argparse
import math

import numpy as np

from descriptor_minimax import (
    ContinuousDAE,
    ContinuousEllipsoid,
    TimeGrid,
    apriori_estimate_continuous,
)

EXACT = 1.0 - (math.e - 1.0) / (2.0 * math.e**2) - (1.0 - 1.0 / math.e) / 2.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=6, help="number of grids")
    ap.add_argument("--coarsest", type=int, default=16, help="steps on level 0")
    args = ap.parse_args()

    system = ContinuousDAE(
        F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    ell = lambda t: np.array([1.0])  # noqa: E731

    sigmas = []
    steps = [args.coarsest * 2**k for k in range(args.levels)]
    for M in steps:
        out = apriori_estimate_continuous(system, bounds, ell, TimeGrid(0.0, 1.0, M))
        sigmas.append(out.worst_case_mse)

    print(f"{'steps':>8} {'worst_case_mse':>18} {'diff':>12} {'ratio':>8} {'vs exact':>12}")
    prev_diff = None
    for i, (M, s) in enumerate(zip(steps, sigmas)):
        diff = sigmas[i - 1] - s if i else float("nan")
        ratio = prev_diff / diff if (i >= 2 and diff) else float("nan")
        print(f"{M:>8} {s:>18.12f} {diff:>12.3e} {ratio:>8.3f} {s - EXACT:>12.3e}")
        if i:
            prev_diff = diff
    print(f"\nclosed-form limit: {EXACT:.12f}")


if __name__ == "__main__":
    main()
