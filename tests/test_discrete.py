"""Discrete-time descriptor estimation over a horizon.

The banded horizon solver is checked against the dense flattened static
solver, which stays the reference, on random ensembles: regular chains
(m != n included), descriptor chains, rank-deficient [F_k; H_k] stacks
and non-representable functionals.

The two-step scalar chain (x0 = xg0, x1 = x0 + f0, unit weights,
observations y = (1, 1), functional picking x1) minimizes

    J(x) = x0^2 + (x1 - x0)^2 + (1 - x0)^2 + (1 - x1)^2

whose unique minimizer is (0.6, 0.8); the radius in the x1 direction is
sqrt((1 - J_min) * p_terminal) = sqrt(0.4 * 0.6) = sqrt(0.24).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    InvalidBounds,
    InvalidInput,
    NumericalBreakdown,
    aposteriori_estimate,
    apriori_horizon_estimate,
    filter_run,
    flatten,
    flatten_bounds,
    variational_estimate,
)
from descriptor_minimax.discrete import stack_functional, stack_observations
from descriptor_minimax.static import apriori_estimate as static_apriori

from conftest import make_discrete, rng_for, scalar_chain

SQRT024 = np.sqrt(0.24)


def test_flatten_two_step_chain_layout():
    dae, bounds = scalar_chain()
    model = flatten(dae)
    assert model.F == pytest.approx(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert model.B == pytest.approx(np.eye(2))
    assert model.H == pytest.approx(np.eye(2))
    flat_bounds = flatten_bounds(dae, bounds)
    assert flat_bounds.Q1 == pytest.approx(np.eye(2))
    assert flat_bounds.Q2 == pytest.approx(np.eye(2))


def test_chain_frozen_values_variational():
    dae, bounds = scalar_chain()
    out = variational_estimate(
        dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1), np.ones(1)]
    )
    assert out.feasible
    assert out.estimate == pytest.approx(0.8, abs=1e-12)
    assert out.radius == pytest.approx(SQRT024, abs=1e-12)
    assert np.asarray(out.outputs["x_hat_seq"]) == pytest.approx(
        np.array([[0.6], [0.8]]), abs=1e-12
    )


@pytest.mark.parametrize("excess", [0.0, 0.5, 2.0, 1e6])
def test_one_shots_judge_a_negative_mse_alike(monkeypatch, excess):
    # (ell, p) is forced to -excess * NEGATIVE_FLOOR (1 + ||ell||^2): both
    # one-shot estimators clamp it to 0 within the floor and raise beyond it
    import descriptor_minimax.discrete as discrete_mod
    from descriptor_minimax.linalg import NEGATIVE_FLOOR

    ell = [np.zeros(1), np.ones(1)]
    forced = -excess * NEGATIVE_FLOOR * 2.0
    saddle = discrete_mod.horizon_saddle

    def negative(dae, bounds, adjoint):
        states, solver = saddle(dae, bounds, adjoint)
        states[-1] = adjoint[-1] * (forced / np.sum(adjoint[-1] ** 2))
        return states, solver

    monkeypatch.setattr(discrete_mod, "horizon_saddle", negative)
    dae, bounds = scalar_chain()
    outcomes = []
    for solve in (
        lambda: variational_estimate(dae, bounds, ell, [np.zeros(1), np.zeros(1)]),
        lambda: apriori_horizon_estimate(dae, bounds, ell),
    ):
        try:
            outcomes.append(solve().radius)
        except NumericalBreakdown as exc:
            outcomes.append(str(exc))
    refused = f"worst-case mean-squared error came out negative ({forced:.3e})"
    assert outcomes == 2 * [0.0 if excess <= 1.0 else refused]


def test_chain_frozen_values_banded_path():
    dae, bounds = scalar_chain()
    out = variational_estimate(
        dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1), np.ones(1)]
    )
    assert out.solver["path"] == "banded"
    assert out.feasible
    assert out.estimate == pytest.approx(0.8, abs=1e-12)
    assert out.radius == pytest.approx(SQRT024, abs=1e-12)


def _dense_reference(dae, bounds, ell_seq, y_seq):
    """The flattened static solver, the oracle for the banded path."""
    return aposteriori_estimate(
        flatten(dae),
        flatten_bounds(dae, bounds),
        stack_functional(dae, ell_seq),
        stack_observations(dae, y_seq),
    )


def _outcome(solve):
    """A finished estimate, or the name of the error that ended it."""
    try:
        return solve()
    except (InconsistentData, NumericalBreakdown) as exc:
        return type(exc).__name__


def _compare_with_dense(dae, bounds, ell_seq, y_seq):
    """Assert the banded estimate gives the dense verdict and values.

    Returns (verdict, solver path): verdict is "finite", "infinite" or
    the error name.
    """
    banded = _outcome(lambda: variational_estimate(dae, bounds, ell_seq, y_seq))
    dense = _outcome(lambda: _dense_reference(dae, bounds, ell_seq, y_seq))
    if isinstance(dense, str) or isinstance(banded, str):
        assert banded == dense
        return dense, None
    assert banded.feasible == dense.feasible
    scale = 1.0 + abs(dense.estimate)
    assert abs(banded.estimate - dense.estimate) <= 1e-9 * scale
    x_hat = dense.outputs["x_hat"]
    gap = np.max(np.abs(np.asarray(banded.outputs["x_hat_seq"]).reshape(-1) - x_hat))
    assert gap <= 1e-9 * (1.0 + np.max(np.abs(x_hat)))
    if not dense.feasible:
        return "infinite", banded.solver["path"]
    # compare squared radii: sigma is a square root, so roundoff near a
    # genuinely zero radius would otherwise blow up to sqrt(eps)
    assert abs(banded.radius**2 - dense.radius**2) <= 1e-9 * (
        1.0 + dense.radius**2
    )
    return "finite", banded.solver["path"]


def test_banded_equals_dense_on_random_systems():
    rng = rng_for(314)
    paths = []
    done = 0
    while done < 100:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(0, 9))
        dae, bounds = make_discrete(rng, n=n, m=m, p=p, l=l, N=N)
        ell_seq = [rng.standard_normal(n) * 0.5 for _ in range(N + 1)]
        y_seq = [rng.standard_normal(l) * 0.05 for _ in range(N + 1)]
        verdict, path = _compare_with_dense(dae, bounds, ell_seq, y_seq)
        if verdict in ("InconsistentData", "NumericalBreakdown"):
            continue  # empty set or numerically degenerate draw: redraw
        paths.append(path)
        done += 1
    # the ensemble (m != n included) must mostly exercise the banded path
    assert paths.count("banded") >= 50


def _descriptor_chain(rng, n, l, N, blind_steps=()):
    """Chain whose F_k all lose their smallest singular value.

    H_k gets a unit component along ker F_k, so [F_k; H_k] keeps full
    column rank, except at ``blind_steps``, where H_k is made blind to
    ker F_k and [F_k; H_k] is rank-deficient. Returns the chain, its
    bounds and the kernel directions.
    """
    dae, bounds = make_discrete(rng, n=n, m=n, l=l, N=N, identity_b=True)
    F_seq, H_seq, kernels = [], [], []
    for k, (F, H) in enumerate(zip(dae.F_seq, dae.H_seq)):
        u, s, vt = np.linalg.svd(F)
        s[-1] = 0.0
        v = vt[-1]
        H = H - np.outer(H @ v, v)
        if k not in blind_steps:
            e = rng.standard_normal(l)
            H = H + np.outer(e / np.linalg.norm(e), v)
        F_seq.append((u * s) @ vt)
        H_seq.append(H)
        kernels.append(v)
    chain = DiscreteDAE(
        F_seq=F_seq, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=H_seq
    )
    return chain, bounds, kernels


def _observations(rng, l, N):
    """Small data, or data far outside the bound (an inconsistent draw)."""
    scale = 0.05 if rng.random() < 0.8 else 30.0
    return [rng.standard_normal(l) * scale for _ in range(N + 1)]


def test_descriptor_chains_match_dense():
    rng = rng_for(1729)
    verdicts = []
    for _ in range(60):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(1, 9))
        dae, bounds, _ = _descriptor_chain(rng, n, l, N)
        ell_seq = [rng.standard_normal(n) for _ in range(N + 1)]
        verdicts.append(
            _compare_with_dense(dae, bounds, ell_seq, _observations(rng, l, N))
        )
    assert ("finite", "banded") in verdicts
    assert ("InconsistentData", None) in verdicts


def test_rank_deficient_stacks_match_dense():
    rng = rng_for(4242)
    verdicts = []
    for _ in range(60):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(1, 9))
        blind = set(rng.choice(N + 1, size=int(rng.integers(1, N + 2)), replace=False))
        dae, bounds, _ = _descriptor_chain(rng, n, l, N, blind_steps=blind)
        ell_seq = [rng.standard_normal(n) for _ in range(N + 1)]
        verdicts.append(
            _compare_with_dense(dae, bounds, ell_seq, _observations(rng, l, N))
        )
    # a blind terminal step leaves ker F_N ∩ ker H_N in the kernel of the
    # saddle matrix: those draws must fall back and come out infinite
    assert ("infinite", "dense") in verdicts
    assert any(path == "banded" for _, path in verdicts)


def test_nonrepresentable_functionals_match_dense():
    rng = rng_for(8128)
    infinite = 0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(0, 9))
        dae, bounds, kernels = _descriptor_chain(rng, n, l, N, blind_steps={N})
        ell_seq = [rng.standard_normal(n) for _ in range(N + 1)]
        ell_seq[N] = ell_seq[N] + kernels[N]
        y_seq = _observations(rng, l, N)
        verdict, path = _compare_with_dense(dae, bounds, ell_seq, y_seq)
        assert verdict in ("infinite", "InconsistentData")
        if verdict == "infinite":
            assert path == "dense"
            infinite += 1
    assert infinite >= 10


def _regular_chain(rng, N, n=2):
    """F_k near the identity, contractive C_k: a well-conditioned chain."""
    eye = np.eye(n)
    F_seq = eye + 0.1 * rng.standard_normal((N + 1, n, n))
    C_seq = 0.5 * rng.standard_normal((N, n, n)) / np.sqrt(n)
    H_seq = rng.standard_normal((N + 1, n, n)) / np.sqrt(n)
    dae = DiscreteDAE(
        F_seq=F_seq, C_seq=C_seq, B_seq=np.broadcast_to(eye, (N, n, n)), S=eye, H_seq=H_seq
    )
    bounds = DAEEllipsoid(
        Q0=eye, Q1_seq=np.broadcast_to(eye, (N, n, n)), Q2_seq=np.broadcast_to(eye, (N + 1, n, n))
    )
    return dae, bounds


def test_regular_chain_makes_no_dense_solve(monkeypatch):
    import descriptor_minimax.discrete as discrete_mod

    calls = {"lstsq": 0, "dense": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    # the dense route enters through the static estimators
    for name in ("aposteriori_estimate", "apriori_estimate"):
        monkeypatch.setattr(discrete_mod, name, counted("dense", getattr(discrete_mod, name)))
    monkeypatch.setattr(
        discrete_mod, "factor_banded", counted("factor", discrete_mod.factor_banded)
    )
    rng = rng_for(200)
    N = 200
    dae, bounds = _regular_chain(rng, N)
    ell_seq = [rng.standard_normal(2) for _ in range(N + 1)]
    y_seq = [rng.standard_normal(2) * 0.02 for _ in range(N + 1)]
    out = variational_estimate(dae, bounds, ell_seq, y_seq)
    assert out.solver["path"] == "banded"
    assert out.feasible and np.isfinite(out.radius)
    assert calls == {"lstsq": 0, "dense": 0, "factor": 1}


@pytest.mark.parametrize("scale", [1e-12, 1e-5, 1e6, 1e12])
def test_one_shot_is_scale_free_on_the_dense_route(scale, monkeypatch):
    # perfbench's chain(default_rng(1), 20) with its trajectory of energy
    # 0.5, read out at (1, 1)/sqrt(2) on x_N: weights times s and data times
    # 1/sqrt(s) leave center * sqrt(s) and radius * sqrt(s) as they were.
    # The band refuses the scaled chains, so this is the static reduction
    # on the flattened chain
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import instances

    rng = np.random.default_rng(1)
    c = instances.chain(rng, 20)
    _, y_seq = instances.trajectory(rng, c, 0.5)
    eye = np.broadcast_to(np.eye(2), (20, 2, 2))
    dae = DiscreteDAE(F_seq=c.F, C_seq=c.C, B_seq=eye, S=np.eye(2), H_seq=c.H)
    ell_seq = np.zeros((21, 2))
    ell_seq[-1] = 1.0 / math.sqrt(2.0)

    def answers(s):
        bounds = DAEEllipsoid(Q0=s * c.Q0, Q1_seq=s * c.Q1, Q2_seq=s * c.Q2)
        y = y_seq / math.sqrt(s)
        post = variational_estimate(dae, bounds, ell_seq, y)
        prior = apriori_horizon_estimate(dae, bounds, ell_seq, y)
        paths = {post.solver["path"], prior.solver["path"]}
        return np.array([post.estimate, post.radius, prior.estimate, prior.radius]) * math.sqrt(s), paths

    base, paths = answers(1.0)
    assert paths == {"banded"}
    assert base[:2] == pytest.approx([0.0159102, 0.582085], abs=5e-7)
    scaled, paths = answers(scale)
    assert paths == {"dense"}
    assert np.abs(scaled - base).max() <= 1e-10 * np.abs(base).max()


def _one_parameter_mse(dae, bounds):
    """The a priori worst-case MSE of x_N on a chain with n = p = 1, m = 2
    and every [F_{k+1}, -B_k] invertible, from a float64 recursion. Its
    solutions are x = t v: x0g = S^-1 F_0 t, and step k gives
    (v_{k+1}, f_k / t) = [F_{k+1}, -B_k]^-1 C_k v_k. With y = 0 the
    energy is t^2 times the sum of positive terms a, and the MSE is
    v_N^2 / a, accurate to a few ulps even where v_N is tiny."""
    w0 = np.linalg.solve(dae.S, dae.F_seq[0][:, 0])
    energy = float(w0 @ bounds.Q0 @ w0)
    v = 1.0
    for k in range(dae.horizon + 1):
        h = dae.H_seq[k][:, 0] * v
        energy += float(h @ bounds.Q2_seq[k] @ h)
        if k < dae.horizon:
            step = np.column_stack([dae.F_seq[k + 1][:, 0], -dae.B_seq[k][:, 0]])
            a, b = np.linalg.solve(step, dae.C_seq[k][:, 0])
            energy += bounds.Q1_seq[k][0, 0] * (b * v) ** 2
            v *= a
    return v * v / energy


@pytest.mark.parametrize("N", [60, 100, 150, 200])
def test_radius_is_not_below_the_one_parameter_recursion(N):
    # chains with more equations than state and disturbance columns go
    # dense; their solution set is one line, whose radius at x_N is known
    # from a recursion. No estimator may report less. They may report
    # more until ROADMAP item 12's per-step hard rows land
    dae, bounds = make_discrete(rng_for(5), n=1, m=2, p=1, N=N)
    exact = _one_parameter_mse(dae, bounds)
    ell_seq = np.zeros((N + 1, 1))
    ell_seq[-1] = 1.0
    y_seq = np.zeros((N + 1, 2))
    prior = apriori_horizon_estimate(dae, bounds, ell_seq)
    post = variational_estimate(dae, bounds, ell_seq, y_seq)
    for out in (prior, post):
        assert out.solver["path"] == "dense"
        assert out.radius**2 >= (1.0 - 1e-9) * exact


def test_size_check_catches_a_low_condition_estimate(monkeypatch):
    # F_1 = 1e-4 leaves the saddle regular but 1/cond near 5e-9, below
    # RCOND_FLOOR. With the norm estimate forced low, the factor passes
    # the floor and only the size check of BandedFactor.solve refuses it.
    import descriptor_minimax.linalg as linalg_mod

    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, 1e-4 * one]),
        C_seq=np.stack([zero]),
        B_seq=np.stack([one]),
        S=one,
        H_seq=np.stack([one, zero]),
    )
    bounds = DAEEllipsoid(Q0=one, Q1_seq=np.stack([one]), Q2_seq=np.stack([one, one]))
    ell_seq, y_seq = [np.zeros(1), np.ones(1)], [np.full(1, 0.5), np.zeros(1)]
    monkeypatch.setattr(linalg_mod, "inverse_norm1_estimate", lambda *args: 1.0)
    out = variational_estimate(dae, bounds, ell_seq, y_seq)
    prior = apriori_horizon_estimate(dae, bounds, ell_seq)
    for solver in (out.solver, prior.solver):
        assert solver["rcond_estimate"] >= solver["rcond_floor"]
        assert solver["path"] == "dense"
    dense = _dense_reference(dae, bounds, ell_seq, y_seq)
    assert np.array_equal(out.outputs["x_hat_seq"].reshape(-1), dense.outputs["x_hat"])
    assert np.array_equal(out.p.reshape(-1), dense.p)
    assert (out.radius, out.estimate) == (dense.radius, dense.estimate)
    dense_prior = static_apriori(
        flatten(dae), flatten_bounds(dae, bounds), stack_functional(dae, ell_seq)
    )
    assert np.array_equal(prior.p.reshape(-1), dense_prior.p)
    assert prior.worst_case_mse == dense_prior.worst_case_mse


def test_long_horizon_allocates_linear_memory():
    import tracemalloc

    rng = rng_for(10_000)
    N, n = 10_000, 2
    dae, bounds = _regular_chain(rng, N, n)
    ell_seq = np.zeros((N + 1, n))
    ell_seq[-1] = 1.0
    y_seq = rng.standard_normal((N + 1, n)) * 0.001
    tracemalloc.start()
    try:
        out = variational_estimate(dae, bounds, ell_seq, y_seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.solver["path"] == "banded"
    dense_square = ((N + 1) * n) ** 2 * 8
    assert peak < dense_square / 100


def _normal_equations_trajectory(dae, bounds, y_seq):
    """Independent oracle for F_k = I, S = I: minimize the explicit sum of
    quadratic penalties over the stacked trajectory by normal equations."""
    N = dae.horizon
    n = dae.state_dim
    dim = n * (N + 1)
    A = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    A[:n, :n] += bounds.Q0
    for k in range(N):
        C = dae.C_seq[k]
        Q1 = bounds.Q1_seq[k]
        sl0 = slice(n * k, n * (k + 1))
        sl1 = slice(n * (k + 1), n * (k + 2))
        A[sl1, sl1] += Q1
        A[sl1, sl0] += -Q1 @ C
        A[sl0, sl1] += -C.T @ Q1
        A[sl0, sl0] += C.T @ Q1 @ C
    for k in range(N + 1):
        H = dae.H_seq[k]
        Q2 = bounds.Q2_seq[k]
        sl = slice(n * k, n * (k + 1))
        A[sl, sl] += H.T @ Q2 @ H
        rhs[sl] += H.T @ Q2 @ y_seq[k]
    return np.linalg.solve(A, rhs).reshape(N + 1, n)


def test_ordinary_difference_equation_reduction():
    # F_k = I, S = I: the DAE is an explicit difference equation and the
    # center must match a direct normal-equations minimization.
    rng = rng_for(2718)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        l = int(rng.integers(1, 4))
        dae, bounds = make_discrete(rng, n=n, m=n, l=l, N=N, identity_b=True)
        eye = np.broadcast_to(np.eye(n), (N + 1, n, n)).copy()
        dae = DiscreteDAE(
            F_seq=eye, C_seq=dae.C_seq, B_seq=dae.B_seq, S=np.eye(n), H_seq=dae.H_seq
        )
        y_seq = [rng.standard_normal(l) * 0.05 for _ in range(N + 1)]
        ell_seq = [rng.standard_normal(n) for _ in range(N + 1)]
        out = variational_estimate(dae, bounds, ell_seq, y_seq)
        expected = _normal_equations_trajectory(dae, bounds, y_seq)
        assert np.asarray(out.outputs["x_hat_seq"]) == pytest.approx(expected, abs=1e-8)


def test_zero_horizon_reduces_to_static():
    rng = rng_for(11)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=0)
    model = flatten(dae)
    assert model.F == pytest.approx(dae.F_seq[0])
    assert model.B == pytest.approx(dae.S)
    assert model.H == pytest.approx(dae.H_seq[0])
    ell = rng.standard_normal(2)
    y = rng.standard_normal(2) * 0.1
    flat_bounds = flatten_bounds(dae, bounds)
    direct = aposteriori_estimate(model, flat_bounds, ell, y)
    traj = variational_estimate(dae, bounds, [ell], [y])
    assert traj.estimate == pytest.approx(direct.estimate, abs=1e-10)
    assert traj.radius == pytest.approx(direct.radius, abs=1e-10)


def test_stacking_helpers():
    dae, _ = scalar_chain()
    ell = stack_functional(dae, [np.array([2.0]), np.array([3.0])])
    assert ell == pytest.approx([2.0, 3.0])
    y = stack_observations(dae, [np.array([1.0]), np.array([4.0])])
    assert y == pytest.approx([1.0, 4.0])
    with pytest.raises(InvalidInput):
        stack_functional(dae, [np.array([2.0])])


def test_non_finite_rows_are_refused_before_any_solve(monkeypatch):
    # One stack check names the bad row before the band solve; a NaN or
    # an inf never reaches the dense fallback, whose arrays grow as N^2
    import descriptor_minimax.discrete as discrete_mod

    def no_dense(*args, **kwargs):
        raise AssertionError("non-finite data reached the dense path")

    monkeypatch.setattr(discrete_mod, "flatten", no_dense)
    rng = rng_for(31)
    N = 1000
    dae, bounds = _regular_chain(rng, N)
    ell = rng.standard_normal((N + 1, 2))
    y = 0.02 * rng.standard_normal((N + 1, 2))
    y[417, 1] = np.nan
    with pytest.raises(InvalidInput, match=r"^y_seq\[417\] contains non-finite entries$"):
        variational_estimate(dae, bounds, ell, y)
    ell[623, 0] = np.inf
    with pytest.raises(InvalidInput, match=r"^ell_seq\[623\] contains non-finite entries$"):
        apriori_horizon_estimate(dae, bounds, ell)
    # every row is 1-D, for the one-shot as for the filter
    chain, chain_bounds = scalar_chain()
    columns = [np.ones((1, 1)), np.ones((1, 1))]
    message = r"^y_seq\[0\] must be 1-D, got shape \(1, 1\)$"
    with pytest.raises(InvalidInput, match=message):
        stack_observations(chain, columns)
    with pytest.raises(InvalidInput, match=message):
        filter_run(chain, chain_bounds, columns, [1.0])


def test_inconsistent_chain_data():
    dae, bounds = scalar_chain()
    with pytest.raises(InconsistentData) as info:
        variational_estimate(
            dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1) * 9, np.ones(1) * -9]
        )
    assert str(info.value) == (
        "observations are inconsistent with the disturbance bound (energy overshoot 1.124e+02)"
    )


def test_shape_validation():
    one = np.ones((1, 1))
    with pytest.raises(InvalidInput):
        DiscreteDAE(
            F_seq=np.stack([one, one]),
            C_seq=np.zeros((0, 1, 1)),  # horizon mismatch
            B_seq=np.stack([one]),
            S=one,
            H_seq=np.stack([one, one]),
        )


def test_models_store_read_only_stacks():
    rng = rng_for(8)
    dae, bounds = make_discrete(rng, n=2, l=2, N=5)
    assert dae.F_seq.shape == (6, 2, 2) and dae.H_seq.shape == (6, 2, 2)
    assert dae.C_seq.shape == (5, 2, 2) and dae.B_seq.shape == (5, 2, 2)
    assert bounds.Q1_seq.shape == (5, 2, 2) and bounds.Q2_seq.shape == (6, 2, 2)
    for array in (dae.F_seq, dae.C_seq, dae.B_seq, dae.H_seq, dae.S,
                  bounds.Q0, bounds.Q1_seq, bounds.Q2_seq):
        with pytest.raises(ValueError):
            array[0][0] = 1.0
    with pytest.raises(ValueError):
        dae.F_seq[0][0, 0] = 1.0


def test_interior_failures_name_their_index():
    rng = rng_for(12)
    dae, bounds = make_discrete(rng, n=2, l=2, N=20)
    F = np.array(dae.F_seq)
    F[3, 0, 1] = np.inf
    with pytest.raises(InvalidInput, match=r"F_seq\[3\] contains non-finite entries"):
        DiscreteDAE(F_seq=F, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=dae.H_seq)
    H = list(dae.H_seq)
    H[7] = np.ones((3, 2))
    with pytest.raises(InvalidInput, match=r"H_seq\[7\] has shape \(3, 2\), expected \(2, 2\)"):
        DiscreteDAE(F_seq=dae.F_seq, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=H)
    Q1 = np.array(bounds.Q1_seq)
    Q1[17] = np.diag([1.0, -1.0])
    with pytest.raises(InvalidBounds, match=r"Q1_seq\[17\] is not positive definite"):
        DAEEllipsoid(Q0=bounds.Q0, Q1_seq=Q1, Q2_seq=bounds.Q2_seq)
    wide = DAEEllipsoid(Q0=bounds.Q0, Q1_seq=bounds.Q1_seq, Q2_seq=np.stack([np.eye(3)] * 21))
    with pytest.raises(InvalidInput, match=r"Q2_seq\[0\] has shape \(3, 3\), expected \(2, 2\)"):
        variational_estimate(dae, wide, [np.zeros(2)] * 21, [np.zeros(2)] * 21)


def test_nonrepresentable_horizon_functional():
    # x1 never enters the dynamics or observations: no finite radius
    one = np.ones((1, 1))
    zero = np.zeros((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, zero]),
        C_seq=np.stack([zero]),
        B_seq=np.stack([one]),
        S=one,
        H_seq=np.stack([one, zero]),
    )
    bounds = DAEEllipsoid(
        Q0=one, Q1_seq=np.stack([one]), Q2_seq=np.stack([one, one])
    )
    out = variational_estimate(
        dae, bounds, [np.zeros(1), np.ones(1)], [np.zeros(1), np.zeros(1)]
    )
    assert not out.feasible
    assert out.radius == np.inf
    prior = apriori_horizon_estimate(dae, bounds, [np.zeros(1), np.ones(1)])
    assert not prior.feasible
    assert prior.worst_case_mse == np.inf
    assert prior.solver["path"] == "dense"
