"""Ensemble agreement check: the recursive filter and the one-shot solves,
each against a dense reference.

Draws random multi-step problems whose B_k and S have condition numbers
spread log-uniformly over [1, 10^MAX_LOG_COND] (every [F_k; H_k] of full
column rank by construction) and runs the filter and the one-shot solves.
Each answer is compared with one dense QR solve of the flattened, whitened
chain, ``dense_reference`` of tests/conftest.py: the center ell'x_N of
``filter_run`` and ``variational_estimate``, the squared radius ell'P_N ell
of ``filter_run`` and ``apriori_horizon_estimate``, and the attained radius
sqrt(1 - beta_N) sqrt(ell'P_N ell) of ``filter_run``. A chain on which the
reference finds the center not unique is an error. Per filter path
("information" or "recursive", see ``Estimate.solver``) it reports
the chain count and each solver's worst relative gap, then wall-clock
totals and the filter's time per step. Horizons are drawn up to 192 steps.
Exits 1 when a gap exceeds 1e-9, naming the solver that is off.

    PYTHONPATH=src python scripts/filter_vs_variational.py [--count 50]
"""

import argparse
import math
import os
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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from conftest import dense_reference, random_spd  # noqa: E402

GAP_LIMIT = 1e-9
# cond(B_k) and cond(S) reach 10^MAX_LOG_COND. Neither filter path squares
# cond(B_k) in a step it keeps: the QR steps whiten each row by one solve,
# and the information sweep turns down chains whose squared condition
# reaches its floor. The one-shot a priori radius does lose digits there:
# on a chain of seed 2 (n=2, N=173) apriori_horizon_estimate is 1.3e-9 off
# the dense reference with a two-thread OpenBLAS (5.5e-10 with one thread),
# while every filter answer of that seed is within 3e-13.
MAX_LOG_COND = 6.0


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
    solvers = ("filter_run", "variational_estimate", "apriori_horizon_estimate")
    worst = {path: dict.fromkeys(solvers, 0.0) for path in chains}
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
        squared = apriori_horizon_estimate(dae, bounds, ell_seq).worst_case_mse
        t_var += t1 - t0
        t_filter += t2 - t1
        reference = dense_reference(dae, bounds, y_seq, N)
        if reference is None:
            sys.exit(f"error: the dense reference has no unique center on a chain of N={N}")
        x_ref, P_ref, beta = reference
        center, radius = ell @ x_ref, ell @ P_ref @ ell
        attained = math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(radius)
        center_gap = abs(filt.estimate - center) / (1.0 + abs(center))
        filt_radius = ell @ filt.outputs["P_final"] @ ell
        filt_gaps = (
            center_gap,
            abs(filt_radius - radius) / radius,
            abs(filt.radius - attained) / attained,
        )
        gaps = {
            "filter_run": max(filt_gaps),
            "variational_estimate": abs(var.estimate - center) / (1.0 + abs(center)),
            "apriori_horizon_estimate": abs(squared - radius) / radius,
        }
        path = filt.solver["path"]
        chains[path] += 1
        for solver, value in gaps.items():
            worst[path][solver] = max(worst[path][solver], value)
        done += 1
        steps += N + 1

    print("worst relative gap to the dense reference")
    print(f"{'path':<12} {'chains':>6}" + "".join(f"  {solver:>24}" for solver in solvers))
    for path in chains:
        row = "".join(f"  {worst[path][solver]:24.3e}" for solver in solvers)
        print(f"{path:<12} {chains[path]:6d}{row}")
    print(f"one-shot total       {t_var:.3f}s")
    print(f"filter total         {t_filter:.3f}s")
    print(f"filter per step      {1e6 * t_filter / steps:.1f}us")
    overall = {solver: max(by_path[solver] for by_path in worst.values()) for solver in solvers}
    for solver, value in overall.items():
        if value > GAP_LIMIT:
            print(
                f"error: {solver} is {value:.3e} off the dense reference (limit {GAP_LIMIT:g})",
                file=sys.stderr,
            )
    if max(overall.values()) > GAP_LIMIT:
        sys.exit(1)


if __name__ == "__main__":
    main()
