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
reference finds the center not unique is an error. A solver may refuse a
chain (InconsistentData, NumericalBreakdown or RankDeficient, or an
infinite radius): the solvers that answered it are still compared, the
refusals are counted per solver and printed, and only chains that every
solver answered count toward ``--count``. Per filter path ("information" or "recursive", see
``Estimate.solver``, or "refused" where the filter refused) it reports
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
from collections import Counter

import numpy as np

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    NumericalBreakdown,
    RankDeficient,
    apriori_horizon_estimate,
    filter_run,
    variational_estimate,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from conftest import dense_reference, random_spd  # noqa: E402

GAP_LIMIT = 1e-9
REFUSALS = (InconsistentData, NumericalBreakdown, RankDeficient)
# cond(B_k) and cond(S) reach 10^MAX_LOG_COND. No solver keeps an answer
# that squaring cond(B_k) spoiled: the QR steps whiten each row by one solve;
# the information sweep, whose factor the one-shots share, turns down chains
# whose squared condition reaches its floor, or whose corrected step exceeds
# CORRECTION_TOL; the one-shots then try the band saddle, which turns down
# such chains at RCOND_FLOOR, and the static estimators, which whiten each
# weight by its Cholesky factor on the null space of [F, -B].
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
    chains = {"information": 0, "recursive": 0, "refused": 0}
    solvers = ("filter_run", "variational_estimate", "apriori_horizon_estimate")
    worst = {path: dict.fromkeys(solvers, 0.0) for path in chains}
    refusals = {solver: Counter() for solver in solvers}
    seconds = dict.fromkeys(solvers, 0.0)
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
        calls = {
            "filter_run": lambda: filter_run(dae, bounds, y_seq, ell),
            "variational_estimate": lambda: variational_estimate(dae, bounds, ell_seq, y_seq),
            "apriori_horizon_estimate": lambda: apriori_horizon_estimate(dae, bounds, ell_seq),
        }
        answers = {}
        for solver, call in calls.items():
            t0 = time.perf_counter()
            try:
                answer = call()
            except REFUSALS as exc:
                refusals[solver][type(exc).__name__] += 1
                continue
            if not answer.feasible:  # an infinite radius is a refusal to compare
                refusals[solver]["infinite radius"] += 1
                continue
            answers[solver] = answer
            seconds[solver] += time.perf_counter() - t0
        if not answers:
            continue
        reference = dense_reference(dae, bounds, y_seq, N)
        if reference is None:
            sys.exit(f"error: the dense reference has no unique center on a chain of N={N}")
        x_ref, P_ref, beta = reference
        center, radius = ell @ x_ref, ell @ P_ref @ ell
        attained = math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(radius)
        gaps = {}
        if "filter_run" in answers:
            filt = answers["filter_run"]
            filt_radius = ell @ filt.outputs["P_final"] @ ell
            gaps["filter_run"] = max(
                abs(filt.estimate - center) / (1.0 + abs(center)),
                abs(filt_radius - radius) / radius,
                abs(filt.radius - attained) / attained,
            )
            steps += N + 1
        if "variational_estimate" in answers:
            var = answers["variational_estimate"]
            gaps["variational_estimate"] = abs(var.estimate - center) / (1.0 + abs(center))
        if "apriori_horizon_estimate" in answers:
            squared = answers["apriori_horizon_estimate"].worst_case_mse
            gaps["apriori_horizon_estimate"] = abs(squared - radius) / radius
        path = answers["filter_run"].solver["path"] if "filter_run" in answers else "refused"
        chains[path] += 1
        for solver, value in gaps.items():
            worst[path][solver] = max(worst[path][solver], value)
        done += len(answers) == len(solvers)

    print("worst relative gap to the dense reference")
    print(f"{'path':<12} {'chains':>6}" + "".join(f"  {solver:>24}" for solver in solvers))
    for path in chains:
        row = "".join(f"  {worst[path][solver]:24.3e}" for solver in solvers)
        print(f"{path:<12} {chains[path]:6d}{row}")
    for solver in solvers:
        named = ", ".join(f"{count} {name}" for name, count in sorted(refusals[solver].items()))
        print(f"{solver} refused {sum(refusals[solver].values())} chains" + (f" ({named})" if named else ""))
    print(f"one-shot total       {seconds['variational_estimate']:.3f}s")
    print(f"filter total         {seconds['filter_run']:.3f}s")
    print(f"filter per step      {1e6 * seconds['filter_run'] / max(steps, 1):.1f}us")
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
