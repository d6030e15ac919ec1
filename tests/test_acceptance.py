"""End-to-end acceptance checks for the package.

Each criterion is one test that prints a single PASS/FAIL line with the
measured figure; run with ``pytest tests/test_acceptance.py -s -v`` to
stream the lines. Tolerances and time budgets are asserted, not just
reported, so a red line is also a red test.
"""

import math
import time

import numpy as np

from descriptor_minimax import (
    ContinuousDAE,
    ContinuousEllipsoid,
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    NumericalBreakdown,
    StaticModel,
    TimeGrid,
    aposteriori_estimate,
    apriori_estimate,
    apriori_estimate_continuous,
    chebyshev_check,
    filter_run,
    riccati_filter,
    sample_reachability,
    tikhonov_approximate,
    variational_estimate,
)
from descriptor_minimax.cli import EXIT_INFEASIBLE, run
from descriptor_minimax.config import parse_config

from conftest import (
    dense_reference,
    feasible_observation,
    make_discrete,
    make_static,
    representable_functional,
    rng_for,
    scalar_static,
    terminal_reference,
)


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# 1. scalar ground truth: the reachable set for x is the interval [0, 1],
# so the center estimate is 0.5 with half-width 0.5


def test_criterion_1_scalar_ground_truth():
    model, bounds = scalar_static()
    started = time.perf_counter()
    out = aposteriori_estimate(model, bounds, [1.0], [1.0])
    elapsed = time.perf_counter() - started
    err = max(abs(out.outputs["x_hat"][0] - 0.5), abs(out.radius - 0.5))
    ok = err <= 1e-12 and elapsed < 1.0
    _verdict(
        "criterion 1 scalar ground truth",
        ok,
        f"x_hat={out.outputs['x_hat'][0]:.15f} radius={out.radius:.15f} "
        f"err={err:.2e} (tol 1e-12), {elapsed:.3f}s (< 1 s)",
    )


# 2. recursive filter output must match the one-shot variational solution
# on random multi-step problems


def test_criterion_2_filter_matches_variational():
    rng = rng_for(20240201)
    started = time.perf_counter()
    done = 0
    worst = worst_radius = 0.0
    while done < 100:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        if m + l < n:  # recursion precondition is unsatisfiable
            continue
        dae, bounds = make_discrete(rng, n=n, m=m, l=l, N=N, identity_b=True)
        y_seq = [0.05 * rng.standard_normal(l) for _ in range(N + 1)]
        ell = rng.standard_normal(n)
        ell_seq = [np.zeros(n) for _ in range(N)] + [ell]
        try:
            var = variational_estimate(dae, bounds, ell_seq, y_seq)
            filt = filter_run(dae, bounds, y_seq, ell)
        except (InconsistentData, NumericalBreakdown):
            continue
        # both may solve on the sweep's factor: each is also held to the
        # dense QR of the whitened chain
        center, radius = terminal_reference(dae, bounds, y_seq, ell)
        for other, reference in ((var.estimate, var.radius), (center, radius)):
            diff = abs(filt.estimate - other)
            bound = 1e-8 * (1.0 + abs(other))
            worst = max(worst, diff / bound)
            assert diff <= bound, f"instance {done}: diff {diff:.3e} > {bound:.3e}"
            gap = abs(filt.radius - reference) / reference
            worst_radius = max(worst_radius, gap)
            assert gap <= 1e-10, f"instance {done}: radius relative gap {gap:.3e}"
        done += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and worst_radius <= 1e-10 and elapsed < 30.0
    _verdict(
        "criterion 2 filter == variational",
        ok,
        f"100 random multi-step problems, worst center diff {worst:.3f}x the "
        f"1e-8 bound, worst radius gap {worst_radius:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 30 s)",
    )


# 3. no sampled consistent state may beat the reported radius, and the
# radius must be essentially attained


def _criterion_3(name, readout):
    """50 static instances, 1e5 draws each: no violation, and the largest
    deviation reaches 0.95 of the radius. With ``readout`` the sampler
    draws the values (ell, x) alone, as ``validate`` does; otherwise it
    draws the states, through the identity readout."""
    rng = rng_for(20240203)
    started = time.perf_counter()
    shapes = [(2, 2, 2, 2), (3, 3, 3, 2), (2, 2, 3, 2), (1, 1, 2, 1), (3, 3, 2, 2)]
    done = 0
    worst_attained = math.inf
    while done < 50:
        n, m, p, l = shapes[int(rng.integers(0, len(shapes)))]
        model, bounds = make_static(rng, n=n, m=m, p=p, l=l)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        ell = rng.standard_normal(n)
        try:
            est = aposteriori_estimate(model, bounds, ell, y)
        except InconsistentData:
            continue
        if not est.feasible or est.radius <= 1e-6:
            continue
        if readout:
            samples = sample_reachability(
                model, bounds, y, 100_000, seed=done, readout=ell[None, :]
            )
            check = chebyshev_check(samples, [1.0], est.estimate, est.radius)
        else:
            samples = sample_reachability(model, bounds, y, 100_000, seed=done, readout=np.eye(n))
            check = chebyshev_check(samples, ell, est.estimate, est.radius)
        attained = check.max_abs_deviation / est.radius
        worst_attained = min(worst_attained, attained)
        assert check.violation_count == 0, (
            f"instance {done}: {check.violation_count} violations"
        )
        assert attained >= 0.95, f"instance {done}: attained {attained:.4f}"
        done += 1
    elapsed = time.perf_counter() - started
    ok = worst_attained >= 0.95 and elapsed < 120.0
    _verdict(
        name,
        ok,
        f"50 instances x 1e5 samples: 0 violations, lowest attained "
        f"fraction {worst_attained:.4f} (>= 0.95), {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_3_minimax_bound_holds_and_is_tight():
    _criterion_3("criterion 3 minimax bound", readout=False)


def test_criterion_3_holds_and_is_tight_through_the_readout():
    _criterion_3("criterion 3 minimax bound, readout", readout=True)


# 4. functionals outside the representable range must surface as an
# infinite radius with exit code 2, never for representable ones


def _range_doc(s, t, ell):
    return parse_config(
        {
            "kind": "static",
            "model": {"F": [[s, 0.0]], "B": [[1.0]], "H": [[t, 0.0]]},
            "bounds": {"Q1": [[1.0]], "Q2": [[1.0]]},
            "estimation": {"mode": "aposteriori", "ell": list(ell)},
        }
    )


def test_criterion_4_infinite_error_detection():
    rng = rng_for(20240204)
    y = np.array([0.0])
    bad_hits = 0
    for _ in range(20):
        s = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        t = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        a = float(rng.standard_normal())
        b = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        report, code = run("estimate", _range_doc(s, t, [a, b]), y)
        assert code == EXIT_INFEASIBLE, f"expected exit 2, got {code}"
        assert report.to_dict()["sigma_hat"] == "infinite"
        bad_hits += 1
    good_clean = 0
    for _ in range(20):
        s = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        t = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        a = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        report, code = run("estimate", _range_doc(s, t, [a, 0.0]), y)
        assert code != EXIT_INFEASIBLE, f"false infinite flag, exit {code}"
        assert math.isfinite(report.sigma_hat)
        good_clean += 1
    ok = bad_hits == 20 and good_clean == 20
    _verdict(
        "criterion 4 infinite-error detection",
        ok,
        f"{bad_hits}/20 non-representable flagged infinite with exit 2, "
        f"{good_clean}/20 representable stayed finite",
    )


# 5. the scalar gain equation has the constant solution K = 1 for unit
# coefficients; the integrator must sit on it for the whole horizon


def test_criterion_5_riccati_fixed_point():
    system = ContinuousDAE(
        F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 1000)
    out = riccati_filter(system, bounds, [1.0], np.zeros((1001, 1)), grid)
    gain_err = float(np.max(np.abs(out.K_nodes - 1.0)))
    sigma_err = abs(out.worst_case_mse - 1.0)
    ok = gain_err <= 1e-6 and sigma_err <= 1e-5
    _verdict(
        "criterion 5 gain fixed point",
        ok,
        f"max |K(t) - 1| = {gain_err:.2e} (tol 1e-6) over [0, 1] at "
        f"step 1e-3, |worst_case_mse - 1| = {sigma_err:.2e} (tol 1e-5)",
    )


# 6. halving the step must roughly halve the error: successive-difference
# ratio near 2 for the scalar a priori radius


def test_criterion_6_first_order_grid_convergence():
    system = ContinuousDAE(
        F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    ell = lambda t: np.array([1.0])  # noqa: E731
    started = time.perf_counter()
    sigmas = [
        apriori_estimate_continuous(
            system, bounds, ell, TimeGrid(0.0, 1.0, steps)
        ).worst_case_mse
        for steps in (32, 64, 128)
    ]
    elapsed = time.perf_counter() - started
    ratio = (sigmas[0] - sigmas[1]) / (sigmas[1] - sigmas[2])
    ok = 1.5 <= ratio <= 2.5 and elapsed < 30.0
    _verdict(
        "criterion 6 first-order discretization",
        ok,
        f"difference ratio {ratio:.3f} in [1.5, 2.5] for h, h/2, h/4, "
        f"{elapsed:.1f}s (< 30 s)",
    )


# 7. the regularized readouts must converge to the exact one when the
# functional is representable, and the residual diagnostic must stay
# large on a witness where nothing constrains the state


def test_criterion_7_tikhonov_convergence_diagnostic():
    system = ContinuousDAE(
        F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    ell = lambda t: np.array([1.0])  # noqa: E731
    grid = TimeGrid(0.0, 1.0, 50)
    alphas = [2.0**-k for k in range(1, 11)]
    reg = tikhonov_approximate(system, bounds, ell, grid, alphas)
    exact = apriori_estimate_continuous(system, bounds, ell, grid)
    h = grid.h
    u_exact = exact.outputs["u_hat_samples"]
    u_norm = float(np.sqrt(h * np.sum(u_exact**2)))
    final = float(np.sqrt(h * np.sum((reg.u_samples_seq[-1] - u_exact) ** 2)))
    rel = final / u_norm

    witness = ContinuousDAE(
        F=[[0.0]], C=[[0.0]], H=[[0.0]], t_start=0.0, t_end=1.0
    )
    reg_w = tikhonov_approximate(witness, bounds, ell, grid, alphas)
    floor = 10.0 * 1e-3
    witness_min = float(min(reg_w.residual_seq))

    ok = rel <= 1e-3 and witness_min >= floor
    _verdict(
        "criterion 7 regularized convergence",
        ok,
        f"final relative gap {rel:.2e} (tol 1e-3) over alpha = 2^-1..2^-10; "
        f"witness residuals stay >= {witness_min:.2f} (floor {floor:.0e})",
    )


# 8. the center of a dense QR of the whitened rows, with no saddle system,
# must agree with the saddle solution whenever the information matrix is
# invertible


def _static_chain(model, bounds):
    """The static model as a chain with N=0: F_0 = F, S = B, Q0 = Q1, H_0 = H."""
    m, n = model.F.shape
    p = model.disturbance_dim
    dae = DiscreteDAE(
        F_seq=model.F[None],
        C_seq=np.zeros((0, m, n)),
        B_seq=np.zeros((0, m, p)),
        S=model.B,
        H_seq=model.H[None],
    )
    dbounds = DAEEllipsoid(Q0=bounds.Q1, Q1_seq=np.zeros((0, p, p)), Q2_seq=bounds.Q2[None])
    return dae, dbounds


def test_criterion_8_center_oracle_agreement():
    rng = rng_for(20240208)
    done = 0
    worst = 0.0
    while done < 100:
        n = int(rng.integers(1, 4))
        m = n + int(rng.integers(0, 2))
        l = int(rng.integers(1, 4))
        model, bounds = make_static(rng, n=n, m=m, p=m, l=l)
        B = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        model = StaticModel(F=model.F, B=B, H=model.H)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        dae, dbounds = _static_chain(model, bounds)
        reference = dense_reference(dae, dbounds, y[None], 0)
        if reference is None:
            continue
        center = reference[0]
        est = aposteriori_estimate(model, bounds, np.zeros(n), y)
        rel = float(
            np.linalg.norm(center - est.outputs["x_hat"])
            / (1.0 + np.linalg.norm(est.outputs["x_hat"]))
        )
        worst = max(worst, rel)
        assert rel <= 1e-8, f"instance {done}: relative gap {rel:.3e}"
        done += 1
    ok = worst <= 1e-8
    _verdict(
        "criterion 8 center oracle agreement",
        ok,
        f"100 random instances, worst relative gap {worst:.2e} (tol 1e-8)",
    )


# 9. the a priori worst-case mean-squared error is quadratic in the
# functional: scaling ell by alpha scales it by alpha^2


def test_criterion_9_scaling_law():
    rng = rng_for(20240209)
    worst = 0.0
    done = 0
    while done < 20:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        model, bounds = make_static(rng, n=n, m=m, p=p, l=l)
        ell = representable_functional(rng, model)
        norm = float(np.linalg.norm(ell))
        if norm < 1e-9:
            continue
        base = apriori_estimate(model, bounds, ell)
        if base.worst_case_mse <= 1e-9 * norm**2:
            # worst-case error is rounding dust here: the functional is
            # determined exactly, so no relative comparison is possible
            continue
        for alpha in (0.5, 2.0, 10.0):
            scaled = apriori_estimate(model, bounds, alpha * ell)
            expected = alpha**2 * base.worst_case_mse
            rel = abs(scaled.worst_case_mse - expected) / expected
            worst = max(worst, rel)
            assert rel <= 1e-10, f"instance {done}, alpha={alpha}: rel {rel:.3e}"
        done += 1
    ok = worst <= 1e-10
    _verdict(
        "criterion 9 quadratic scaling law",
        ok,
        f"alpha in {{0.5, 2, 10}} on 20 random instances, worst relative "
        f"deviation {worst:.2e} (tol 1e-10)",
    )
