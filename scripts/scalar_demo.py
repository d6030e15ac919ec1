"""Walk through the scalar example: one state, one noisy reading.

The model is x = f with |f|^2 + |g|^2 <= 1 and data y = x + g. For
y = 1 the consistent states form the interval [0, 1], so the center
estimate is 0.5 with half-width 0.5. The script recomputes both, then
attacks the reported radius with the sampling oracle.
"""

import argparse

import numpy as np

from descriptor_minimax import (
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    chebyshev_check,
    sample_reachability,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--y", type=float, default=1.0, help="observed value")
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = StaticModel(F=[[1.0]], B=[[1.0]], H=[[1.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    ell = np.array([1.0])
    y = np.array([args.y])

    prior = apriori_estimate(model, bounds, ell, y=y)
    post = aposteriori_estimate(model, bounds, ell, y)
    print(f"observation            y = {args.y}")
    print(f"a priori readout       u_hat = {prior.outputs['u_hat'][0]:.6f}")
    print(f"a priori mean-sq error {prior.worst_case_mse:.6f}")
    print(f"center estimate        x_hat = {post.outputs['x_hat'][0]:.6f}")
    print(f"worst-case radius      radius = {post.radius:.6f}")

    samples = sample_reachability(model, bounds, y, args.samples, seed=args.seed, readout=ell[None])
    check = chebyshev_check(samples, [1.0], post.estimate, post.radius)
    print(f"sampled states         {check.samples_checked}")
    print(f"radius violations      {check.violation_count}")
    print(
        f"attained deviation     {check.max_abs_deviation:.6f} "
        f"({100.0 * check.max_abs_deviation / check.radius:.2f}% of radius)"
    )


if __name__ == "__main__":
    main()
