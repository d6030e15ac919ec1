"""Regularization path diagnostics.

Two runs side by side: a representable functional, where the penalized
readouts converge to the exact minimax one as alpha shrinks, and a
degenerate witness (F = C = H = 0), where nothing determines the state
and the residual diagnostic refuses to decay.
"""

import argparse

import numpy as np

from descriptor_minimax import (
    ContinuousDAE,
    ContinuousEllipsoid,
    TimeGrid,
    apriori_estimate_continuous,
    tikhonov_approximate,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--kmax", type=int, default=10, help="alphas 2^-1..2^-kmax")
    args = ap.parse_args()

    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, args.steps)
    ell = lambda t: np.array([1.0])  # noqa: E731
    alphas = [2.0**-k for k in range(1, args.kmax + 1)]

    system = ContinuousDAE(F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0)
    reg = tikhonov_approximate(system, bounds, ell, grid, alphas)
    exact = apriori_estimate_continuous(system, bounds, ell, grid)
    h = grid.h
    u_norm = np.sqrt(h * np.sum(exact.outputs["u_hat_samples"] ** 2))

    print("representable functional:")
    print(f"{'alpha':>12} {'|u_k - u|/|u|':>16} {'residual':>12}")
    for i, a in enumerate(alphas):
        gap = np.sqrt(h * np.sum((reg.u_samples_seq[i] - exact.outputs["u_hat_samples"]) ** 2))
        res = reg.residual_seq[i - 1] if i else float("nan")
        print(f"{a:>12.6f} {gap / u_norm:>16.3e} {res:>12.3e}")

    witness = ContinuousDAE(F=[[0.0]], C=[[0.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    reg_w = tikhonov_approximate(witness, bounds, ell, grid, alphas)
    print("\ndegenerate witness (residuals must stay O(1)):")
    print(f"{'alpha':>12} {'residual':>12}")
    for i, a in enumerate(alphas[1:], start=1):
        print(f"{a:>12.6f} {reg_w.residual_seq[i - 1]:>12.3e}")


if __name__ == "__main__":
    main()
