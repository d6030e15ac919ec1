"""Ensemble agreement check: recursive filter vs one-shot solve.

Draws random multi-step problems whose B_k and S have condition numbers
spread log-uniformly over [1, 10^MAX_LOG_COND] (rank precondition
satisfied by construction), runs the filter and the one-shot solves, and
reports, per filter path ("information" or "recursive", see
``FilterRunResult.solver``), the chain count and the worst relative gap:
the center against ``variational_estimate`` and ell'P_N ell against the
squared a priori radius of ``apriori_horizon_estimate``. It also prints
wall-clock totals and the filter's time per step. Horizons are drawn up
to 192 steps. Exits 1 when a gap exceeds 1e-9.

    PYTHONPATH=src python scripts/filter_vs_variational.py [--count 50]
"""

import argparse
import sys
import time

import numpy as np

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    NumericalBreakdown,
    apriori_horizon_estimate,
    filter_run,
    variational_estimate,
)

GAP_LIMIT = 1e-9
# cond(B_k) and cond(S) reach 10^MAX_LOG_COND. Neither filter path squares
# cond(B_k) in a step it keeps: the QR steps whiten each row by one solve,
# and the information sweep turns down chains whose squared condition
# reaches its floor. At 1e6 seeds 1-10 stay within 7.0e-10 of the one-shot
# solves. The largest gaps are the one-shot a priori radius's own rounding:
# on that chain (seed 8) the filter's ell'P_N ell was within 2.5e-14 of a
# dense QR solve of the whitened chain, apriori_horizon_estimate 7.0e-10.
MAX_LOG_COND = 6.0


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def conditioned(rng, count, n, cond):
    """``count`` random n x n matrices with singular values spread
    geometrically from sqrt(cond) down to 1/sqrt(cond)."""
    u = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    return (u * np.geomspace(cond**0.5, cond**-0.5, n)) @ np.swapaxes(v, 1, 2)


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
    cond = 10 ** rng.uniform(0.0, MAX_LOG_COND)
    dae = DiscreteDAE(
        F_seq=F_seq,
        C_seq=C_seq,
        B_seq=conditioned(rng, N, n, cond),
        S=conditioned(rng, 1, n, cond)[0],
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
    ap.add_argument("--horizon", type=int, default=192)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    chains = {"information": 0, "recursive": 0}
    worst = {"information": 0.0, "recursive": 0.0}
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
        squared = apriori_horizon_estimate(dae, bounds, ell_seq).sigma_hat
        t_var += t1 - t0
        t_filter += t2 - t1
        gap = max(
            abs(filt.estimate_value - var.estimate_value) / (1.0 + abs(var.estimate_value)),
            abs(filt.sigma_hat**2 - squared) / squared,
        )
        path = filt.solver["path"]
        chains[path] += 1
        worst[path] = max(worst[path], gap)
        done += 1
        steps += N + 1

    for path in chains:
        print(f"{path:<12} chains {chains[path]:4d}  worst relative gap {worst[path]:.3e}")
    print(f"one-shot total       {t_var:.3f}s")
    print(f"filter total         {t_filter:.3f}s")
    print(f"filter per step      {1e6 * t_filter / steps:.1f}us")
    if max(worst.values()) > GAP_LIMIT:
        print(f"error: a gap exceeds {GAP_LIMIT:g}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
