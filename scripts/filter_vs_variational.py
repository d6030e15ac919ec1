"""Ensemble agreement check: recursive filter vs one-shot solve.

Draws random multi-step problems (identity disturbance injection, rank
precondition satisfied by construction), runs both solution paths, and
reports the worst relative deviation together with wall-clock totals and
the filter's time per step. The default horizon is three of the filter's
blocks of steps, so about a third of the chains cross two block edges.

    PYTHONPATH=src python scripts/filter_vs_variational.py [--count 50]
"""

import argparse
import time

import numpy as np

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    NumericalBreakdown,
    filter_run,
    variational_estimate,
)
from descriptor_minimax.filtering import _BLOCK


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def draw(rng, n, l, N):
    while True:
        F_seq = rng.standard_normal((N + 1, n, n))
        H_seq = rng.standard_normal((N + 1, l, n))
        ok = True
        for k in range(N + 1):
            s = np.linalg.svd(np.vstack([F_seq[k], H_seq[k]]), compute_uv=False)
            if s[-1] <= 1e-6 * s[0]:
                ok = False
                break
        if ok:
            break
    C_seq = rng.standard_normal((N, n, n))
    for k in range(N):
        norm = np.linalg.norm(C_seq[k], 2)
        if norm > 1.5:
            C_seq[k] *= 1.5 / norm
    dae = DiscreteDAE(
        F_seq=F_seq,
        C_seq=C_seq,
        B_seq=np.broadcast_to(np.eye(n), (N, n, n)).copy(),
        S=np.eye(n),
        H_seq=H_seq,
    )
    bounds = DAEEllipsoid(
        Q0=random_spd(rng, n),
        Q1_seq=np.stack([random_spd(rng, n) for _ in range(N)]),
        Q2_seq=np.stack([random_spd(rng, l) for _ in range(N + 1)]),
    )
    return dae, bounds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--horizon", type=int, default=3 * _BLOCK)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    t_filter = t_var = 0.0
    done = steps = 0
    while done < args.count:
        n = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        N = int(rng.integers(1, args.horizon + 1))
        dae, bounds = draw(rng, n, l, N)
        # data energy stays within the unit budget at any horizon
        y_seq = [0.1 / np.sqrt(N + 1) * rng.standard_normal(l) for _ in range(N + 1)]
        ell = rng.standard_normal(n)
        ell_seq = [np.zeros(n) for _ in range(N)] + [ell]
        try:
            t0 = time.perf_counter()
            var = variational_estimate(dae, bounds, ell_seq, y_seq)
            t1 = time.perf_counter()
            filt = filter_run(dae, bounds, y_seq, ell)
            t2 = time.perf_counter()
        except (InconsistentData, NumericalBreakdown):
            continue
        t_var += t1 - t0
        t_filter += t2 - t1
        rel = abs(filt.estimate_value - var.estimate_value) / (
            1.0 + abs(var.estimate_value)
        )
        worst = max(worst, rel)
        done += 1
        steps += N + 1

    print(f"instances            {done}")
    print(f"worst relative diff  {worst:.3e}")
    print(f"one-shot total       {t_var:.3f}s")
    print(f"recursive total      {t_filter:.3f}s")
    print(f"recursive per step   {1e6 * t_filter / steps:.1f}us")


if __name__ == "__main__":
    main()
