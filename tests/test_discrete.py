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

import numpy as np
import pytest

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InconsistentData,
    InvalidBounds,
    InvalidInput,
    KIND_APOSTERIORI,
    NumericalBreakdown,
    aposteriori_estimate,
    flatten,
    flatten_bounds,
    variational_estimate,
)
from descriptor_minimax.discrete import stack_functional, stack_observations

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
    assert flat_bounds.kind == KIND_APOSTERIORI


def test_chain_frozen_values_variational():
    dae, bounds = scalar_chain()
    out = variational_estimate(
        dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1), np.ones(1)]
    )
    assert out.feasible
    assert out.estimate_value == pytest.approx(0.8, abs=1e-12)
    assert out.sigma_hat == pytest.approx(SQRT024, abs=1e-12)
    assert np.asarray(out.x_hat_seq) == pytest.approx(
        np.array([[0.6], [0.8]]), abs=1e-12
    )


def test_chain_frozen_values_banded_path():
    dae, bounds = scalar_chain()
    out = variational_estimate(
        dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1), np.ones(1)]
    )
    assert out.solver["path"] == "banded"
    assert out.feasible
    assert out.estimate_value == pytest.approx(0.8, abs=1e-12)
    assert out.sigma_hat == pytest.approx(SQRT024, abs=1e-12)


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
    scale = 1.0 + abs(dense.estimate_value)
    assert abs(banded.estimate_value - dense.estimate_value) <= 1e-9 * scale
    gap = np.max(np.abs(np.asarray(banded.x_hat_seq).reshape(-1) - dense.x_hat))
    assert gap <= 1e-9 * (1.0 + np.max(np.abs(dense.x_hat)))
    if not dense.feasible:
        return "infinite", banded.solver["path"]
    # compare squared radii: sigma is a square root, so roundoff near a
    # genuinely zero radius would otherwise blow up to sqrt(eps)
    assert abs(banded.sigma_hat**2 - dense.sigma_hat**2) <= 1e-9 * (
        1.0 + dense.sigma_hat**2
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
    import descriptor_minimax.linalg as linalg_mod
    import descriptor_minimax.static as static_mod

    calls = {"lstsq": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    lstsq = counted("lstsq", linalg_mod.solve_least_squares)
    monkeypatch.setattr(linalg_mod, "solve_least_squares", lstsq)
    monkeypatch.setattr(static_mod, "solve_least_squares", lstsq)
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
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
    assert out.feasible and np.isfinite(out.sigma_hat)
    assert calls == {"lstsq": 0, "factor": 1}


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
        assert np.asarray(out.x_hat_seq) == pytest.approx(expected, abs=1e-8)


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
    assert traj.estimate_value == pytest.approx(direct.estimate_value, abs=1e-10)
    assert traj.sigma_hat == pytest.approx(direct.sigma_hat, abs=1e-10)


def test_stacking_helpers():
    dae, _ = scalar_chain()
    ell = stack_functional(dae, [np.array([2.0]), np.array([3.0])])
    assert ell == pytest.approx([2.0, 3.0])
    y = stack_observations(dae, [np.array([1.0]), np.array([4.0])])
    assert y == pytest.approx([1.0, 4.0])
    with pytest.raises(InvalidInput):
        stack_functional(dae, [np.array([2.0])])


def test_inconsistent_chain_data():
    dae, bounds = scalar_chain()
    with pytest.raises(InconsistentData):
        variational_estimate(
            dae, bounds, [np.zeros(1), np.ones(1)], [np.ones(1) * 9, np.ones(1) * -9]
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
    assert out.sigma_hat == np.inf
