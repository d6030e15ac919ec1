"""The ROADMAP baseline ladder, timed from the benchmark's own instances.

Prints, next to the figures quoted under ROADMAP "Recent" (2-core
machine, numpy 2.4, scipy 1.17), the median of three library calls:
the one-shot center ``variational_estimate`` at N = 100, 200, 400
(n = l = 2), ``filter_run`` at N = 400 and per step at N = 2000, and on
the unit scalar continuous problem at M = 1024 the a priori estimate by
both methods and the Riccati filter. Run through ``run.py --baseline``
so the thread pinning and ``PYTHONPATH`` match the workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import instances as inst
from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    TimeGrid,
    apriori_estimate_continuous,
    filter_run,
    riccati_filter,
    variational_estimate,
)
from descriptor_minimax.config import parse_config

REPEATS = 3

# (label, ROADMAP figure, unit)
ROADMAP = {
    "variational_estimate N=100": (0.19, "s"),
    "variational_estimate N=200": (0.76, "s"),
    "variational_estimate N=400": (3.4, "s"),
    "filter_run N=400": (0.10, "s"),
    "filter_run N=2000 per step": (0.39, "ms"),
    "apriori flattened M=1024": (3.9, "s"),
    "apriori bvp M=1024": (2.5, "s"),
    "riccati_filter M=1024": (0.46, "s"),
}


def as_dae(c):
    eye = np.eye(c.n)
    dae = DiscreteDAE(
        F_seq=tuple(c.F), C_seq=tuple(c.C), B_seq=(eye,) * c.horizon, S=eye, H_seq=tuple(c.H)
    )
    return dae, DAEEllipsoid(Q0=c.Q0, Q1_seq=tuple(c.Q1), Q2_seq=tuple(c.Q2))


def median_time(fn):
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main():
    rng = np.random.default_rng(0)
    measured = {}
    for N in (100, 200, 400, 2000):
        c = inst.chain(rng, N)
        _, y = inst.trajectory(rng, c, 0.5)
        dae, bounds = as_dae(c)
        ell = rng.standard_normal(2)
        if N <= 400:
            ell_seq = [np.zeros(2)] * N + [ell]
            measured[f"variational_estimate N={N}"] = median_time(
                lambda: variational_estimate(dae, bounds, ell_seq, y)
            )
        if N in (400, 2000):
            t = median_time(lambda: filter_run(dae, bounds, y, ell))
            if N == 400:
                measured["filter_run N=400"] = t
            else:
                measured["filter_run N=2000 per step"] = 1e3 * t / N

    M = 1024
    config = parse_config(inst.scalar_continuous().doc("riccati", [1.0], M))
    grid = TimeGrid(0.0, 1.0, M)
    for method in ("flattened", "bvp"):
        measured[f"apriori {method} M={M}"] = median_time(
            lambda: apriori_estimate_continuous(
                config.model, config.bounds, lambda t: np.ones(1), grid, method=method
            )
        )
    y = 0.05 * rng.standard_normal((M + 1, 1))
    measured[f"riccati_filter M={M}"] = median_time(
        lambda: riccati_filter(config.model, config.bounds, [1.0], y, grid)
    )

    print(f"{'figure':<28} {'ROADMAP':>11} {'now':>11} {'delta':>8}")
    for label, (quoted, unit) in ROADMAP.items():
        now = measured[label]
        print(f"{label:<28} {quoted:>8.3f} {unit:<2} {now:>8.3f} {unit:<2} {100 * (now / quoted - 1):>+7.1f}%")


if __name__ == "__main__":
    main()
