"""Recursive information-form filter for the terminal readout.

Frozen chain values: for the two-step scalar chain the information
recursion gives P_0 = 1/2, then D = (1 + 1/2)^-1 = 2/3,
P_1 = (2/3 + 1)^-1 = 3/5, and x_hat_1 = P_1 (D x_hat_0 + y_1)
= 0.6 (2/3 * 0.5 y_0 + y_1) = 0.2 y_0 + 0.6 y_1.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import descriptor_minimax.continuous as continuous_mod
import descriptor_minimax.discrete as discrete_mod
import descriptor_minimax.filtering as filtering_mod
import descriptor_minimax.linalg as linalg_mod
import descriptor_minimax.simulate as simulate_mod
from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    EstimationError,
    InconsistentData,
    InvalidInput,
    NumericalBreakdown,
    RankDeficient,
    ContinuousDAE,
    ContinuousEllipsoid,
    TableFunction,
    TimeGrid,
    apriori_horizon_estimate,
    discretize,
    filter_run,
    riccati_filter,
    simulate,
    variational_estimate,
)
from descriptor_minimax.filtering import prepare_filter
from descriptor_minimax.linalg import spd_solve, symmetrize

from conftest import (
    dense_reference,
    make_discrete,
    random_spd,
    rng_for,
    scalar_chain,
    within_bound,
)


def _full_column_rank(F, H):
    """Whether [F; H] has full column rank, by one SVD."""
    stacked = np.vstack([F, H])
    if stacked.shape[0] < stacked.shape[1]:
        return False
    s = np.linalg.svd(stacked, compute_uv=False)
    return s[-1] > 1e-10 * s[0]


def _precondition_holds(dae):
    return all(_full_column_rank(dae.F_seq[k], dae.H_seq[k]) for k in range(dae.horizon + 1))


def test_chain_frozen_covariance_and_center():
    dae, bounds = scalar_chain()
    out = filter_run(dae, bounds, [np.ones(1), np.ones(1)], np.ones(1))
    assert out.outputs["P_final"] == pytest.approx(np.array([[0.6]]), abs=1e-15)
    assert out.outputs["x_hat_final"] == pytest.approx([0.8], abs=1e-15)
    assert out.estimate == pytest.approx(0.8, abs=1e-15)


def test_chain_center_is_linear_in_data():
    dae, bounds = scalar_chain()
    from_y0 = filter_run(dae, bounds, [np.ones(1), np.zeros(1)], np.ones(1))
    from_y1 = filter_run(dae, bounds, [np.zeros(1), np.ones(1)], np.ones(1))
    assert from_y0.outputs["x_hat_final"] == pytest.approx([0.2], abs=1e-15)
    assert from_y1.outputs["x_hat_final"] == pytest.approx([0.6], abs=1e-15)


def _truncated(dae, bounds, k):
    """The chain and its bounds cut after step k."""
    return (
        DiscreteDAE(
            F_seq=dae.F_seq[: k + 1],
            C_seq=dae.C_seq[:k],
            B_seq=dae.B_seq[:k],
            S=dae.S,
            H_seq=dae.H_seq[: k + 1],
        ),
        DAEEllipsoid(Q0=bounds.Q0, Q1_seq=bounds.Q1_seq[:k], Q2_seq=bounds.Q2_seq[: k + 1]),
    )


def test_covariance_symmetric_positive_definite_along_run(monkeypatch):
    # P_k of the chain cut after step k, on both paths (an unreachable
    # floor turns the information sweep down)
    rng = rng_for(42)
    for trial in range(20):
        floor = np.inf if trial % 2 else linalg_mod.INFORMATION_RCOND_FLOOR
        monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
        n = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        dae, bounds = make_discrete(rng, n=n, m=n, l=l, N=N, identity_b=True)
        if not _precondition_holds(dae):
            continue
        y_seq = rng.standard_normal((N + 1, l)) * 0.1
        full = filter_run(dae, bounds, y_seq, np.ones(n))
        for k in range(N + 1):
            run = filter_run(*_truncated(dae, bounds, k), y_seq[: k + 1], np.ones(n))
            P = run.outputs["P_final"]
            assert np.linalg.norm(P - P.T) <= 1e-12 * (1.0 + np.linalg.norm(P))
            assert np.min(np.linalg.eigvalsh(P)) > 0.0
            # the filtered center of step k uses y_0 .. y_k only
            x_k = full.outputs["x_hat_seq"][k]
            scale = np.abs(x_k).max()
            assert run.outputs["x_hat_final"] == pytest.approx(x_k, abs=1e-10 * scale)


def test_filter_matches_variational_on_random_systems():
    rng = rng_for(777)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        dae, bounds = make_discrete(rng, n=n, m=n, l=l, N=N, identity_b=True)
        if not _precondition_holds(dae):
            continue
        y_seq = [rng.standard_normal(l) * 0.05 for _ in range(N + 1)]
        ell = rng.standard_normal(n)
        ell_seq = [np.zeros(n) for _ in range(N)] + [ell]
        try:
            var = variational_estimate(dae, bounds, ell_seq, y_seq)
        except InconsistentData:
            continue  # data energy exceeded the budget: redraw
        run = filter_run(dae, bounds, y_seq, ell)
        scale = 1.0 + abs(var.estimate)
        assert abs(run.estimate - var.estimate) <= 1e-8 * scale
        assert run.radius == pytest.approx(var.radius, rel=1e-10)
        done += 1


def test_information_filter_against_full_normal_equations():
    # F = I with constant coefficients: P_N must equal the terminal block
    # of the inverse of the full-horizon information matrix, and the center
    # must match the full least-squares trajectory.
    rng = rng_for(123)
    n, l, N = 3, 2, 6
    eye_seq = np.broadcast_to(np.eye(n), (N + 1, n, n)).copy()
    C = rng.standard_normal((n, n)) * 0.4
    H = rng.standard_normal((l, n))
    dae = DiscreteDAE(
        F_seq=eye_seq,
        C_seq=np.broadcast_to(C, (N, n, n)).copy(),
        B_seq=eye_seq[:N].copy(),
        S=np.eye(n),
        H_seq=np.broadcast_to(H, (N + 1, l, n)).copy(),
    )
    Q0 = random_spd(rng, n)
    Q1 = random_spd(rng, n)
    Q2 = random_spd(rng, l)
    bounds = DAEEllipsoid(
        Q0=Q0,
        Q1_seq=np.broadcast_to(Q1, (N, n, n)).copy(),
        Q2_seq=np.broadcast_to(Q2, (N + 1, l, l)).copy(),
    )
    y_seq = within_bound([rng.standard_normal(l) for _ in range(N + 1)], bounds)

    dim = n * (N + 1)
    A = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    A[:n, :n] += Q0
    for k in range(N):
        s0 = slice(n * k, n * (k + 1))
        s1 = slice(n * (k + 1), n * (k + 2))
        A[s1, s1] += Q1
        A[s1, s0] -= Q1 @ C
        A[s0, s1] -= C.T @ Q1
        A[s0, s0] += C.T @ Q1 @ C
    for k in range(N + 1):
        s = slice(n * k, n * (k + 1))
        A[s, s] += H.T @ Q2 @ H
        rhs[s] += H.T @ Q2 @ y_seq[k]
    x_full = np.linalg.solve(A, rhs)
    P_marginal = np.linalg.inv(A)[n * N :, n * N :]

    run = filter_run(dae, bounds, y_seq, np.zeros(n))
    assert run.outputs["x_hat_final"] == pytest.approx(x_full[n * N :], abs=1e-10)
    assert run.outputs["P_final"] == pytest.approx(P_marginal, abs=1e-10)


def test_filter_handles_invertible_b_and_s():
    # square invertible B_k and S are folded into effective weights; the
    # result must match the variational path on the same problem
    rng = rng_for(9)
    done = 0
    while done < 10:
        n, l, N = 2, 2, 4
        dae, bounds = make_discrete(rng, n=n, m=n, p=n, l=l, N=N)
        # force well-conditioned square B_k and S
        B_seq = np.stack(
            [rng.standard_normal((n, n)) + 3.0 * np.eye(n) for _ in range(N)]
        )
        dae = DiscreteDAE(
            F_seq=dae.F_seq, C_seq=dae.C_seq, B_seq=B_seq, S=dae.S, H_seq=dae.H_seq
        )
        if not _precondition_holds(dae):
            continue
        y_seq = [rng.standard_normal(l) * 0.05 for _ in range(N + 1)]
        ell = rng.standard_normal(n)
        ell_seq = [np.zeros(n) for _ in range(N)] + [ell]
        try:
            var = variational_estimate(dae, bounds, ell_seq, y_seq)
        except InconsistentData:
            continue
        run = filter_run(dae, bounds, y_seq, ell)
        assert abs(run.estimate - var.estimate) <= 1e-8 * (
            1.0 + abs(var.estimate)
        )
        done += 1


def test_near_identity_b_and_s_keep_the_radius():
    # B_k = S = (1 + 5e-6) I is folded in like any invertible B: the
    # filter's ell'P_N ell is the one-shot a priori radius
    rng = rng_for(5)
    n, N = 2, 5
    dae, bounds = make_discrete(rng, n=n, l=1, N=N, identity_b=True)
    near = (1.0 + 5e-6) * np.eye(n)
    dae = DiscreteDAE(
        F_seq=dae.F_seq,
        C_seq=dae.C_seq,
        B_seq=np.broadcast_to(near, (N, n, n)),
        S=near,
        H_seq=dae.H_seq,
    )
    ell = np.array([1.0, -0.5])
    run = filter_run(dae, bounds, np.zeros((N + 1, 1)), ell)
    ell_seq = np.zeros((N + 1, n))
    ell_seq[-1] = ell
    sigma = apriori_horizon_estimate(dae, bounds, ell_seq).worst_case_mse
    assert ell @ run.outputs["P_final"] @ ell == pytest.approx(sigma, rel=1e-12)
    assert run.radius == np.sqrt(ell @ run.outputs["P_final"] @ ell)


def test_rank_precondition_detects_deficiency():
    # [F_0; H_0] = 0: R_0 = 0, so the QR steps stop at step 0
    one = np.ones((1, 1))
    zero = np.zeros((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([zero, one]),
        C_seq=np.stack([one]),
        B_seq=np.stack([one]),
        S=one,
        H_seq=np.stack([zero, one]),
    )
    bounds = DAEEllipsoid(
        Q0=one, Q1_seq=np.stack([one]), Q2_seq=np.stack([one, one])
    )
    with pytest.raises(RankDeficient) as error:
        filter_run(dae, bounds, [np.zeros(1), np.zeros(1)], np.ones(1))
    assert str(error.value) == (
        "information matrix at step 0 is singular: s_min/s_max of R_0 is 0.0e+00, cutoff 1e-05"
    )


def test_qr_steps_name_a_step_whose_factor_overflows():
    # F_1 and H_1 both read x_1 at 1e308, finite rows whose QR overflows:
    # the step is named instead of its factor going to the SVD
    eye = np.eye(2)
    big = np.diag([1e308, 1.0])
    dae = DiscreteDAE(
        F_seq=np.stack([eye, big]),
        C_seq=np.array([[[0.0, 1.0], [0.0, 0.5]]]),
        B_seq=np.stack([eye]),
        S=eye,
        H_seq=np.stack([eye, big]),
    )
    bounds = DAEEllipsoid(Q0=eye, Q1_seq=np.stack([eye]), Q2_seq=np.stack([eye, eye]))
    with pytest.raises(NumericalBreakdown) as error:
        filter_run(dae, bounds, np.full((2, 2), 0.01), [1.0, 0.0])
    assert str(error.value) == "information matrix at step 1 is not finite in floating point"


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
def test_filter_is_scale_free(scale, monkeypatch):
    # weights times s and data times 1/sqrt(s) leave every center * sqrt(s)
    # and radius * sqrt(s) as they were, on both paths: no decision of the
    # filter reads an absolute scale
    rng = rng_for(19)
    default_floor = filtering_mod.INFORMATION_RCOND_FLOOR
    for trial in range(8):
        n = int(rng.integers(1, 5))
        m = n + 1 if trial % 2 else n
        N = int(rng.integers(1, 40))
        dae, bounds = make_discrete(rng, n=n, m=m, l=int(rng.integers(1, 4)), N=N)
        y_seq = within_bound(rng.standard_normal((N + 1, dae.observation_dim)) * 0.1, bounds)
        ell = rng.standard_normal(n)
        scaled = DAEEllipsoid(
            Q0=scale * bounds.Q0, Q1_seq=scale * bounds.Q1_seq, Q2_seq=scale * bounds.Q2_seq
        )
        for floor in (default_floor, np.inf):
            monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
            base = filter_run(dae, bounds, y_seq, ell)
            run = filter_run(dae, scaled, y_seq / np.sqrt(scale), ell)
            assert run.solver["path"] == base.solver["path"]
            x_base = base.outputs["x_hat_seq"]
            size = np.abs(x_base).max()
            assert np.abs(run.outputs["x_hat_seq"] * np.sqrt(scale) - x_base).max() <= 1e-10 * size
            assert run.radius * np.sqrt(scale) == pytest.approx(base.radius, rel=1e-10)


def test_rectangular_b_rejected():
    one = np.ones((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, one]),
        C_seq=np.stack([one]),
        B_seq=np.ones((1, 1, 2)),
        S=one,
        H_seq=np.stack([one, one]),
    )
    bounds = DAEEllipsoid(
        Q0=one, Q1_seq=np.stack([np.eye(2)]), Q2_seq=np.stack([one, one])
    )
    with pytest.raises(InvalidInput):
        filter_run(dae, bounds, [np.zeros(1), np.zeros(1)], np.ones(1))


def _two_step_vanishing_inner_matrix(B, Q1):
    """Two scalar steps with C = 0: the inner matrix B Q1^{-1} B' + C P C'
    of the covariance recursion is B^2/Q1."""
    one = np.ones((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, one]),
        C_seq=np.stack([np.zeros((1, 1))]),
        B_seq=np.stack([one * B]),
        S=one,
        H_seq=np.stack([one, one]),
    )
    bounds = DAEEllipsoid(Q0=one, Q1_seq=np.stack([one * Q1]), Q2_seq=np.stack([one, one]))
    return dae, bounds


def test_numerical_breakdown_on_vanishing_inner_matrix():
    # B^2/Q1 = 1e-700 vanishes in floating point: the whitened weight
    # chol(Q1)'B^{-1} = 1e350 overflows, and prepare_filter names B_0
    dae, bounds = _two_step_vanishing_inner_matrix(1e-200, 1e300)
    with pytest.raises(NumericalBreakdown, match="^the whitened weight of B_0 is not finite$"):
        filter_run(dae, bounds, [np.zeros(1), np.zeros(1)], np.ones(1))


# ---------------------------------------------------------------------------
# The prepared filter against the per-step formulas


def _reference_filter(dae, bounds, y_seq):
    """The filter as one loop that re-derives every model term per step.

    Kept as the oracle for :func:`prepare_filter`: the effective weights
    fold S and B_k in per step (Q' = (B Q^{-1} B')^{-1}), and the rank
    precondition is one SVD per step. Returns the centers and P_N, or
    the exception class and the step at which the loop stopped.
    """
    m = dae.equation_dim

    def fold(B, Q):
        if B.shape == (m, m) and np.allclose(B, np.eye(m)):
            return Q
        if B.shape != (m, m) or np.linalg.matrix_rank(B, tol=1e-10 * np.linalg.norm(B, 2)) < m:
            return None
        return symmetrize(np.linalg.inv(B @ spd_solve(Q, B.T)))

    def invert(info):
        info = symmetrize(info)
        eigs = np.linalg.eigvalsh(info)
        if eigs[0] <= 1e-10 * max(float(eigs[-1]), 1.0):
            raise RankDeficient
        return symmetrize(np.linalg.inv(info))

    xs = []
    for k in range(dae.horizon + 1):
        F, H, Q2 = dae.F_seq[k], dae.H_seq[k], bounds.Q2_seq[k]
        if not _full_column_rank(F, H):
            return RankDeficient, k
        if k == 0:
            q0 = fold(dae.S, bounds.Q0)
            if q0 is None:
                return InvalidInput, 0
            P = invert(F.T @ q0 @ F + H.T @ Q2 @ H)
            x = P @ (H.T @ (Q2 @ y_seq[0]))
        else:
            q1 = fold(dae.B_seq[k - 1], bounds.Q1_seq[k - 1])
            if q1 is None:
                return InvalidInput, k
            C = dae.C_seq[k - 1]
            inner = symmetrize(spd_solve(q1, np.eye(m)) + C @ P @ C.T)
            D = symmetrize(np.linalg.inv(inner))
            P = invert(F.T @ D @ F + H.T @ Q2 @ H)
            x = P @ (F.T @ (D @ (C @ x)) + H.T @ (Q2 @ y_seq[k]))
        xs.append(x)
    return np.array(xs), P


def _with_b(dae, B_seq):
    return DiscreteDAE(F_seq=dae.F_seq, C_seq=dae.C_seq, B_seq=B_seq, S=dae.S, H_seq=dae.H_seq)


def test_prepared_filter_matches_per_step_formulas():
    rng = rng_for(2024)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(1, 5))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(1, 25))
        dae, bounds = make_discrete(rng, n=n, m=n, p=n, l=l, N=N)  # S != I
        if trial % 3:
            dae = _with_b(dae, rng.standard_normal((N, n, n)) + 3.0 * np.eye(n))
        else:
            dae = _with_b(dae, np.broadcast_to(np.eye(n), (N, n, n)))
        y_seq = within_bound([rng.standard_normal(l) * 0.1 for _ in range(N + 1)], bounds)
        x_ref, P_ref = _reference_filter(dae, bounds, y_seq)
        run = filter_run(dae, bounds, y_seq, np.ones(n))
        x_hat, P = run.outputs["x_hat_seq"], run.outputs["P_final"]
        assert x_hat == pytest.approx(x_ref, rel=1e-11, abs=1e-11 * np.abs(x_ref).max())
        assert P == pytest.approx(P_ref, rel=1e-11, abs=1e-11 * np.abs(P_ref).max())
        checked += 1
    assert checked == 60


def test_prepared_filter_stops_where_the_loop_stops():
    rng = rng_for(31)
    n, l, N = 2, 1, 12
    dae, bounds = make_discrete(rng, n=n, m=n, p=n, l=l, N=N, identity_b=True)
    y_seq = [np.zeros(l)] * (N + 1)
    # rank-deficient [F_k; H_k] at an interior step
    F = np.array(dae.F_seq)
    F[7] = np.outer(F[7][:, 0], [1.0, 0.0])
    H = np.array(dae.H_seq)
    H[7] = np.array([[1.0, 0.0]])
    broken = DiscreteDAE(F_seq=F, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=H)
    assert _reference_filter(broken, bounds, y_seq) == (RankDeficient, 7)
    with pytest.raises(RankDeficient, match="^information matrix at step 7 is singular: "):
        filter_run(broken, bounds, y_seq, np.ones(n))
    # singular B_4 alone: the loop stops at step 5, the one that uses it
    B = np.array(dae.B_seq)
    B[4] = np.outer([1.0, 2.0], [1.0, 1.0])
    assert _reference_filter(_with_b(dae, B), bounds, y_seq) == (InvalidInput, 5)
    with pytest.raises(InvalidInput, match="B_4 is not square invertible"):
        prepare_filter(_with_b(dae, B), bounds)
    # singular S alone: the loop stops at step 0
    singular_s = np.outer([1.0, 2.0], [1.0, 1.0])
    broken_s = DiscreteDAE(
        F_seq=dae.F_seq, C_seq=dae.C_seq, B_seq=B, S=singular_s, H_seq=dae.H_seq
    )
    assert _reference_filter(broken_s, bounds, y_seq) == (InvalidInput, 0)
    # two faults: S, then the B_k, are judged before any step runs, so
    # before the rank of any information matrix
    with pytest.raises(InvalidInput, match="S is not square invertible"):
        prepare_filter(broken_s, bounds)
    with pytest.raises(InvalidInput, match="B_4 is not square invertible"):
        filter_run(_with_b(broken, B), bounds, y_seq, np.ones(n))


# ---------------------------------------------------------------------------
# Blocks of steps: the same answers and verdicts at every block edge

BLOCK = 64


def _qr_blocks_of(steps, dae, monkeypatch):
    """Blocks of ``steps`` QR steps on this chain, and the sweep turned down."""
    n, m, l = dae.state_dim, dae.equation_dim, dae.observation_dim
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", steps * (n + m + l) * (2 * n + 1))
    # an unreachable floor turns the information sweep down: the QR steps answer
    monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", np.inf)


def _block_edge_chain(rng, N, descriptor):
    n = int(rng.integers(1, 6))
    l = int(rng.integers(1, 6))
    m = n + 1 if descriptor else n
    dae, bounds = make_discrete(rng, n=n, m=m, p=m, l=l, N=N)  # S != I
    # well-conditioned F_k, so that 1e-12 bounds the rounding difference
    # between the reference's route and the filter's
    dae = DiscreteDAE(
        F_seq=np.eye(m, n) + 0.3 * rng.standard_normal((N + 1, m, n)),
        C_seq=dae.C_seq,
        B_seq=rng.standard_normal((N, m, m)) + 3.0 * np.eye(m),
        S=dae.S,
        H_seq=dae.H_seq,
    )
    y_seq = within_bound(rng.standard_normal((N + 1, l)) * 0.1, bounds)
    return dae, bounds, y_seq, rng.standard_normal(n)


def _assert_matches_reference(dae, bounds, y_seq, ell, rel=1e-12):
    x_ref, P_ref = _reference_filter(dae, bounds, y_seq)
    run = filter_run(dae, bounds, y_seq, ell)
    x_hat, P = run.outputs["x_hat_seq"], run.outputs["P_final"]
    assert x_hat == pytest.approx(x_ref, rel=rel, abs=rel * np.abs(x_ref).max())
    assert P == pytest.approx(P_ref, rel=rel, abs=rel * np.abs(P_ref).max())
    scale = np.abs(ell) @ np.abs(x_ref[-1])
    assert run.estimate == pytest.approx(ell @ x_ref[-1], rel=rel, abs=rel * scale)
    assert np.sqrt(ell @ P @ ell) == pytest.approx(np.sqrt(ell @ P_ref @ ell), rel=rel)
    return run


@pytest.mark.parametrize("N", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("descriptor", [False, True])
def test_blocked_filter_matches_per_step_formulas_across_block_edges(N, descriptor, monkeypatch):
    # the QR steps in blocks of BLOCK steps carry R_k and z_k across the edges
    rng = rng_for(N + 1000 * descriptor)
    for _ in range(3):
        dae, bounds, y_seq, ell = _block_edge_chain(rng, N, descriptor)
        _qr_blocks_of(BLOCK, dae, monkeypatch)
        run = _assert_matches_reference(dae, bounds, y_seq, ell)
        assert run.solver["path"] == "recursive"


@pytest.mark.parametrize("N", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("descriptor", [False, True])
def test_information_sweep_matches_per_step_formulas_across_block_edges(
    N, descriptor, monkeypatch
):
    # the sweep with blocks of BLOCK steps carries its pivot and z across
    # the same edges as the QR steps. It answers at least two of each three
    # chains; the others have an rcond estimate below the floor. Its rounding
    # grows as the estimate falls toward the floor: 1.6e-12 relative on one
    # chain at 1.4e-6, hence 1e-11 here
    rng = rng_for(N + 1000 * descriptor)
    paths = []
    for _ in range(3):
        dae, bounds, y_seq, ell = _block_edge_chain(rng, N, descriptor)
        n = dae.state_dim
        monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * BLOCK)
        run = _assert_matches_reference(dae, bounds, y_seq, ell, rel=1e-11)
        paths.append(run.solver["path"])
    assert paths.count("information") >= 2, paths


def _chain_breaking_at_150(fault):
    """A constant 2-state chain of 200 steps with one fault at step 150,
    in the middle of the third block of BLOCK steps."""
    N = 200
    assert 2 * BLOCK < 150 < 3 * BLOCK - 1
    F = np.array(np.broadcast_to(np.eye(2), (N + 1, 2, 2)))
    C = np.array(np.broadcast_to([[0.9, 0.2], [-0.1, 0.8]], (N, 2, 2)))
    H = np.array(np.broadcast_to(np.eye(2), (N + 1, 2, 2)))
    B = np.array(np.broadcast_to(np.eye(2), (N, 2, 2)))
    Q1 = np.array(np.broadcast_to(np.eye(2), (N, 2, 2)))
    if fault in ("breakdown", "overflow", "zero"):
        # C = 0 and an enormous Q1 on the transition into step 150: the
        # covariance recursion saw Q1^{-1} + C P C' with a tiny (or, with
        # B = 1e-200 I, zero) eigenvalue
        Q1[149] *= {"breakdown": 1e16}.get(fault, 1e300)
        C[149] = 0.0
        if fault == "overflow":
            F[150] *= 1e5  # F'G^{-1}F overflows
        if fault == "zero":
            B[149] *= 1e-200  # chol(Q1)'B^{-1} overflows
    if fault in ("rank", "rank_then_zero"):
        F[150] = np.diag([1.0, 1e-6])  # [F; H] keeps full rank, F'DF + W does not
        H[150] = 0.0
        if fault == "rank_then_zero":
            Q1[151] *= 1e300
            C[151] = 0.0
            B[151] *= 1e-200
    dae = DiscreteDAE(F_seq=F, C_seq=C, B_seq=B, S=np.eye(2), H_seq=H)
    bounds = DAEEllipsoid(Q0=np.eye(2), Q1_seq=Q1, Q2_seq=np.broadcast_to(np.eye(2), (N + 1, 2, 2)))
    return dae, bounds


SINGULAR_150 = (
    "information matrix at step 150 is singular: s_min/s_max of R_150 is 1.0e-06, cutoff 1e-05"
)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("zero", NumericalBreakdown, "the whitened weight of B_149 is not finite"),
        ("rank", RankDeficient, SINGULAR_150),
        ("rank_then_zero", NumericalBreakdown, "the whitened weight of B_151 is not finite"),
    ],
)
def test_blocked_filter_fails_at_the_step_that_fails(fault, error, message, monkeypatch):
    # the whitening fails in prepare_filter, before any step; a singular R_k
    # fails at its own step, in the middle of a block of steps
    dae, bounds = _chain_breaking_at_150(fault)
    _qr_blocks_of(BLOCK, dae, monkeypatch)
    with pytest.raises(error) as run_error:
        filter_run(dae, bounds, np.zeros((dae.horizon + 1, 2)), np.ones(2))
    assert str(run_error.value) == message


@pytest.mark.parametrize("fault", ["breakdown", "overflow", "two-step"])
def test_breakdown_chains_answer_as_the_one_shot(fault, monkeypatch):
    # the covariance recursion raised NumericalBreakdown on these chains
    # while the one-shot solve answered; both filter paths answer as it
    # does. On the two-step chain its inner matrix B^2/Q1 = 1e-16 was below
    # its breakdown floor. The band of the breakdown and two-step chains
    # reads an rcond of 9e-17 and 2e-16, so the sweep answers with one
    # corrected step; on the overflow chain F'G^{-1}F overflows and only
    # the QR steps answer. An unreachable floor sends every chain to them
    if fault == "two-step":
        dae, bounds = _two_step_vanishing_inner_matrix(1.0, 1e16)
    else:
        dae, bounds = _chain_breaking_at_150(fault)
    N, n = dae.horizon, dae.state_dim
    rng = rng_for(150)
    y_seq = 0.1 / np.sqrt(N + 1) * rng.standard_normal((N + 1, dae.observation_dim))
    ell = rng.standard_normal(n)
    ell_seq = np.zeros((N + 1, n))
    ell_seq[-1] = ell
    center = variational_estimate(dae, bounds, ell_seq, y_seq).estimate
    squared = apriori_horizon_estimate(dae, bounds, ell_seq).worst_case_mse
    path = "recursive" if fault == "overflow" else "information"
    for floor, expected in ((filtering_mod.INFORMATION_RCOND_FLOOR, path), (np.inf, "recursive")):
        monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
        run = filter_run(dae, bounds, y_seq, ell)
        assert run.solver["path"] == expected
        assert run.estimate == pytest.approx(center, rel=1e-11, abs=1e-14)
        assert ell @ run.outputs["P_final"] @ ell == pytest.approx(squared, rel=1e-11)


# ---------------------------------------------------------------------------
# Two paths against one dense least-squares reference


def _conditioned(rng, count, m, cond):
    """``count`` random m x m matrices, each with singular values spread
    geometrically from sqrt(cond) down to 1/sqrt(cond)."""
    u = np.linalg.qr(rng.standard_normal((count, m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((count, m, m)))[0]
    return (u * np.geomspace(cond**0.5, cond**-0.5, m)) @ np.swapaxes(v, 1, 2)


def _assert_near_reference(run, refs, ell, rel):
    """The run's centers at the steps of ``refs``, {k: (x_hat_k, P_k, beta_k)}
    from :func:`conftest.dense_reference` with k = N last, and its P_N,
    readout and attained radius sqrt(1 - beta_N) sqrt(ell'P_N ell)."""
    for k, (x_ref, P_ref, beta) in refs.items():
        assert np.abs(run.outputs["x_hat_seq"][k] - x_ref).max() <= rel * np.abs(x_ref).max()
    assert np.abs(run.outputs["P_final"] - P_ref).max() <= rel * np.abs(P_ref).max()
    scale = np.abs(ell) @ np.abs(x_ref)
    assert run.estimate == pytest.approx(ell @ x_ref, rel=rel, abs=rel * scale)
    prior = np.sqrt(ell @ P_ref @ ell)
    assert run.radius == pytest.approx(np.sqrt(1.0 - beta) * prior, rel=rel, abs=rel * prior)


def test_information_sweep_matches_the_recursion_on_an_ensemble(monkeypatch):
    # cond(B_k) log-uniform in [1, 1e6] and S != I; every other draw is a
    # descriptor chain (m = n + 1). Each chain runs as it would (either
    # path) and on the QR steps, and both answers must match the dense
    # reference. Every other draw shrinks the blocks of both paths to 1..19
    # steps, so that N (up to 99) crosses their edges
    rng = rng_for(13)
    default_entries = filtering_mod._BAND_ENTRIES
    default_floor = filtering_mod.INFORMATION_RCOND_FLOOR
    paths = {"information": 0, "recursive": 0}
    for trial in range(240):
        n = int(rng.integers(1, 5))
        l = int(rng.integers(1, 4))
        N = int(rng.integers(1, 100))
        m = n + 1 if trial % 4 >= 2 else n
        dae, bounds = make_discrete(rng, n=n, m=m, p=m, l=l, N=N)
        dae = _with_b(dae, _conditioned(rng, N, m, 10 ** rng.uniform(0, 6)))
        y_seq = within_bound(rng.standard_normal((N + 1, l)) * 0.1, bounds)
        ell = rng.standard_normal(n)
        refs = {k: dense_reference(dae, bounds, y_seq, k) for k in (int(rng.integers(0, N)), N)}
        steps = int(rng.integers(1, 20)) if trial % 2 else None
        runs = []
        for floor, per_step in ((default_floor, 2 * n * n), (np.inf, (n + m + l) * (2 * n + 1))):
            monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
            monkeypatch.setattr(
                filtering_mod, "_BAND_ENTRIES", per_step * steps if steps else default_entries
            )
            runs.append(filter_run(dae, bounds, y_seq, ell))
            _assert_near_reference(runs[-1], refs, ell, 1e-9)
        assert runs[1].solver["path"] == "recursive"
        paths[runs[0].solver["path"]] += 1
    assert min(paths.values()) >= 0.2 * sum(paths.values()), paths


def _n32_chain():
    """A constant n=32 chain of 1000 steps, the benchmark's shape."""
    rng = rng_for(32)
    n, N = 32, 1000
    F = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    C = rng.standard_normal((n, n))
    C *= 0.8 / np.linalg.norm(C, 2)
    H = rng.standard_normal((n, n)) / np.sqrt(n)
    dae = DiscreteDAE(
        F_seq=np.broadcast_to(F, (N + 1, n, n)),
        C_seq=np.broadcast_to(C, (N, n, n)),
        B_seq=np.broadcast_to(np.eye(n), (N, n, n)),
        S=np.eye(n),
        H_seq=np.broadcast_to(H, (N + 1, n, n)),
    )
    bounds = DAEEllipsoid(
        Q0=random_spd(rng, n, floor=1.0),
        Q1_seq=np.broadcast_to(random_spd(rng, n, floor=1.0), (N, n, n)),
        Q2_seq=np.broadcast_to(random_spd(rng, n, floor=1.0), (N + 1, n, n)),
    )
    y_seq = within_bound(rng.standard_normal((N + 1, n)) * 0.1, bounds)
    return dae, bounds, y_seq, rng.standard_normal(n)


def test_information_sweep_holds_one_block_at_a_time(monkeypatch):
    # 16 blocks of 64 steps peak at about 5 MB, one band over the whole
    # horizon at 75 MB
    dae, bounds, y_seq, ell = _n32_chain()
    n = dae.state_dim
    assert filtering_mod._block_steps(2 * n * n) == 64
    assert filtering_mod._block_steps(2 * 2 * 2) > 10_000
    runs = []
    for floor in (filtering_mod.INFORMATION_RCOND_FLOOR, np.inf):
        monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
        tracemalloc.start()
        try:
            runs.append(filter_run(dae, bounds, y_seq, ell))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
    assert [run.solver["path"] for run in runs] == ["information", "recursive"]
    sweep, qr = (run.outputs for run in runs)
    for name in ("x_hat_seq", "P_final"):
        assert np.abs(sweep[name] - qr[name]).max() <= 1e-9 * np.abs(qr[name]).max()


# ---------------------------------------------------------------------------
# Steady state: an interior block of a constant chain reuses a settled factor


def _constant_draw(rng, n, descriptor, slow, N=None):
    """A constant chain of N steps, 40 to 120 unless given, each stack one
    broadcast matrix, with S and B not the identity. A descriptor draw has
    m = n + 1; a slow one (||C|| = 0.999, H scaled by 0.05) settles slowly."""
    m = n + 1 if descriptor else n
    l = int(rng.integers(1, 4))
    N = int(rng.integers(40, 121)) if N is None else N
    C = rng.standard_normal((m, n))
    C *= (0.999 if slow else 0.8) / np.linalg.norm(C, 2)
    H = rng.standard_normal((l, n)) / np.sqrt(n) * (0.05 if slow else 1.0)

    def steps(M, count):
        return np.broadcast_to(M, (count,) + M.shape)

    dae = DiscreteDAE(
        F_seq=steps(np.eye(m, n) + 0.3 * rng.standard_normal((m, n)), N + 1),
        C_seq=steps(C, N),
        B_seq=steps(rng.standard_normal((m, m)) + 3.0 * np.eye(m), N),
        S=rng.standard_normal((m, m)) + 3.0 * np.eye(m),
        H_seq=steps(H, N + 1),
    )
    bounds = DAEEllipsoid(
        Q0=random_spd(rng, m),
        Q1_seq=steps(random_spd(rng, m), N),
        Q2_seq=steps(random_spd(rng, l), N + 1),
    )
    y_seq = within_bound(rng.standard_normal((N + 1, l)) * 0.1, bounds)
    return dae, bounds, y_seq, rng.standard_normal(n)


def _materialized(dae, bounds):
    """The same chain with every stack copied out of its broadcast: the
    sweep no longer sees a constant chain and factors every block."""
    return (
        DiscreteDAE(
            F_seq=np.array(dae.F_seq),
            C_seq=np.array(dae.C_seq),
            B_seq=np.array(dae.B_seq),
            S=dae.S,
            H_seq=np.array(dae.H_seq),
        ),
        DAEEllipsoid(Q0=bounds.Q0, Q1_seq=np.array(bounds.Q1_seq), Q2_seq=np.array(bounds.Q2_seq)),
    )


def _assert_same_answer(run, ref, rel=1e-12):
    assert run.solver["path"] == ref.solver["path"] == "information"
    for name in ("x_hat_seq", "P_final"):
        got, want = run.outputs[name], ref.outputs[name]
        assert np.abs(got - want).max() <= rel * np.abs(want).max()
    assert run.radius == pytest.approx(ref.radius, rel=rel)


def test_steady_state_reuse_matches_factoring_every_block(monkeypatch):
    # blocks of 2 to 11 steps; a third of the draws settle slowly
    rng = rng_for(21)
    blocks = reused = 0
    for trial in range(40):
        n = 1 + trial % 5
        dae, bounds, y_seq, ell = _constant_draw(rng, n, trial % 2 == 1, trial % 3 == 0)
        monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * int(rng.integers(2, 12)))
        run = filter_run(dae, bounds, y_seq, ell)
        ref = filter_run(*_materialized(dae, bounds), y_seq, ell)
        _assert_same_answer(run, ref)
        assert ref.solver["blocks_factored"] == ref.solver["blocks"] == run.solver["blocks"]
        blocks += run.solver["blocks"]
        reused += run.solver["blocks"] - run.solver["blocks_factored"]
    assert reused >= 0.4 * blocks, (reused, blocks)


def test_steady_state_reuse_on_the_benchmark_shape(monkeypatch):
    # one dpbtrf, on the first block: its last steps have settled (51 of 64
    # with one BLAS thread), and the other 15 blocks are placed from copies
    # of them, the last with step N's pivot factored alone. Each placed
    # block has a band estimate of its own, so the smallest figure is the
    # one of factoring every block
    dae, bounds, y_seq, ell = _n32_chain()
    real = filtering_mod.factor_spd_banded
    factored = []

    def counting(band, norm1):
        factored.append(band.shape)
        return real(band, norm1)

    monkeypatch.setattr(filtering_mod, "factor_spd_banded", counting)
    run = filter_run(dae, bounds, y_seq, ell)
    assert factored == [(64, 64 * 32)]
    assert run.solver["blocks"] == 16
    assert run.solver["blocks_factored"] == 1
    ref = filter_run(*_materialized(dae, bounds), y_seq, ell)
    _assert_same_answer(run, ref, rel=1e-13)
    assert run.solver["rcond_estimate"] == pytest.approx(ref.solver["rcond_estimate"], rel=1e-9)


def _run_with_every_P(dae, bounds, y_seq, ell):
    """The run, and every filtered P_k it wrote."""
    P = np.empty((dae.horizon + 1, dae.state_dim, dae.state_dim))
    return filter_run(dae, bounds, y_seq, ell, P_seq=P), P


def _gap(one, other) -> float:
    """The largest relative difference between two (run, every P_k) pairs:
    of the centers, of the P_k and of the radius."""
    (run, P), (ref, P_ref) = one, other
    x, x_ref = run.outputs["x_hat_seq"], ref.outputs["x_hat_seq"]
    return max(
        np.abs(x - x_ref).max() / np.abs(x_ref).max(),
        np.abs(P - P_ref).max() / np.abs(P_ref).max(),
        abs(run.radius - ref.radius) / ref.radius,
    )


def _placed_and_factored(dae, bounds, y_seq, ell):
    """The runs of a constant chain and of its materialized copy, after
    checking that they take the same path with the same correction
    verdict."""
    placed = _run_with_every_P(dae, bounds, y_seq, ell)
    factored = _run_with_every_P(*_materialized(dae, bounds), y_seq, ell)
    solver, ref = placed[0].solver, factored[0].solver
    assert solver["path"] == ref["path"]
    assert (solver["correction"] is None) == (ref["correction"] is None)
    return placed, factored


def _assert_placed_as_factored(dae, bounds, y_seq, ell):
    """Every center, every P_k and the radius of a constant chain's run
    within 1e-13 of factoring every block; returns the solver record."""
    placed, factored = _placed_and_factored(dae, bounds, y_seq, ell)
    assert _gap(placed, factored) <= 1e-13
    return placed[0].solver


def _tail_lengths(monkeypatch) -> list:
    """Per block the sweep factors on a constant chain, the length of its
    settled tail (None when it has none), appended as the run goes."""
    real = filtering_mod._settled
    lengths = []

    def settled(half, start):
        tail = real(half, start)
        lengths.append(None if tail is None else tail.P.shape[0])
        return tail

    monkeypatch.setattr(filtering_mod, "_settled", settled)
    return lengths


def test_steady_state_placed_blocks_on_an_ensemble(monkeypatch):
    # 120 constant draws with blocks of 2 to 11 steps, a third slow to
    # settle: every center and P_k of a placed block is within 1e-13 of
    # factoring every block, with the same path and correction verdict.
    # Where the factored run's own rounding is larger than that, the placed
    # run must be as close as it to the QR steps: draw 93 has an rcond
    # estimate of 2.6e-6 and cond(J_k) = 8.2e3, and there the two differ
    # by 4.7e-13 while the QR steps are 1.0e-12 from the placed run and
    # 1.4e-12 from the factored one
    rng = rng_for(23)
    blocks = placed_blocks = beyond = 0
    for trial in range(120):
        n = 1 + trial % 5
        dae, bounds, y_seq, ell = _constant_draw(rng, n, trial % 2 == 1, trial % 3 == 0)
        monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * int(rng.integers(2, 12)))
        placed, factored = _placed_and_factored(dae, bounds, y_seq, ell)
        if _gap(placed, factored) > 1e-13:
            with monkeypatch.context() as qr_only:
                qr_only.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", np.inf)
                qr = _run_with_every_P(*_materialized(dae, bounds), y_seq, ell)
            assert _gap(placed, qr) <= _gap(factored, qr) + 1e-13
            beyond += 1
        solver = placed[0].solver
        if solver["path"] == "information":
            blocks += solver["blocks"]
            placed_blocks += solver["blocks"] - solver["blocks_factored"]
    assert beyond <= 2
    assert placed_blocks >= 0.5 * blocks, (placed_blocks, blocks)


def test_steady_state_tail_settles_in_a_later_block(monkeypatch):
    # a slow chain in blocks of 10: the first blocks have not settled by
    # their last step, so the sweep factors on until one has
    dae, bounds, y_seq, ell = _constant_draw(rng_for(0), 3, True, True, N=80)
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 3 * 3 * 10)
    tails = _tail_lengths(monkeypatch)
    solver = _assert_placed_as_factored(dae, bounds, y_seq, ell)
    assert 1 < solver["blocks_factored"] < solver["blocks"] == 9
    assert tails[:-1] == [None] * (len(tails) - 1) and tails[-1] is not None


def test_steady_state_tail_shorter_than_a_block(monkeypatch):
    # tails of one to three steps: each placed block of 10 holds several
    # seams, each joined by the tail's exit U
    cases = [(rng_for(0), 2, False), (rng_for(4), 3, True), (rng_for(10), 3, True)]
    for rng, n, descriptor in cases:
        dae, bounds, y_seq, ell = _constant_draw(rng, n, descriptor, False, N=80)
        monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * 10)
        tails = _tail_lengths(monkeypatch)
        solver = _assert_placed_as_factored(dae, bounds, y_seq, ell)
        assert solver["blocks_factored"] == len(tails) == 1 and tails[0] <= 5


@pytest.mark.parametrize("after", [0, 1, 4])
def test_steady_state_last_block_lengths(after, monkeypatch):
    # N + 1 = 8 blocks of 9 steps plus ``after``: the last block is a full
    # one (0), step N alone (1) or a short one (4)
    dae, bounds, y_seq, ell = _constant_draw(rng_for(0), 2, False, False, N=8 * 9 + after - 1)
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 2 * 2 * 9)
    solver = _assert_placed_as_factored(dae, bounds, y_seq, ell)
    assert solver["blocks"] == 8 + (after > 0)
    assert solver["blocks_factored"] == 1


def test_steady_state_last_block_below_the_floor(monkeypatch):
    # the placed last block keeps a band estimate of its own. Where it is
    # the smallest, a floor between it and every other block's sends the
    # sweep to the corrected step, as on the materialized chain
    bands = []  # per block: whether it is a placed last block, its estimate
    real_placed, real_factor = filtering_mod._placed, filtering_mod._block_factor

    def placed(model, tail, start, stop):
        half = real_placed(model, tail, start, stop)
        bands.append((stop > model.horizon, half.band))
        return half

    def factored(model, start, stop, U):
        half = real_factor(model, start, stop, U)
        bands.append((False, half.band))
        return half

    monkeypatch.setattr(filtering_mod, "_placed", placed)
    monkeypatch.setattr(filtering_mod, "_block_factor", factored)
    floor = filtering_mod.INFORMATION_RCOND_FLOOR
    rng = rng_for(41)
    corrected = 0
    for trial in range(40):
        n = 1 + trial % 5
        dae, bounds, y_seq, ell = _constant_draw(rng, n, trial % 2 == 1, trial % 3 == 0)
        monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * int(rng.integers(2, 12)))
        bands.clear()
        filter_run(dae, bounds, y_seq, ell)
        (last, band), others = bands[-1], [b for _, b in bands[:-1]]
        if not (last and others and band < min(others)):
            continue
        monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", math.sqrt(band * min(others)))
        solver = _assert_placed_as_factored(dae, bounds, y_seq, ell)
        monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
        corrected += solver["correction"] is not None
    assert corrected >= 5


def test_steady_state_reuse_skips_time_varying_chains(monkeypatch):
    rng = rng_for(22)
    dae, bounds = make_discrete(rng, n=2, m=2, p=2, l=2, N=60, identity_b=True)
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 2 * 2 * 5)
    run = filter_run(dae, bounds, rng.standard_normal((61, 2)) * 0.1, np.ones(2))
    assert run.solver["path"] == "information"
    assert run.solver["blocks"] == run.solver["blocks_factored"] == 13


def test_steady_state_declined_chains_reach_the_qr_steps(monkeypatch):
    # constant chains the sweep turns down answer as their materialized
    # copies do: cond(B_k) = 1e5 on the QR steps, with the one-shot's
    # attained radius, and a second state that no row sees raises at step 0
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 2 * 2 * 3)
    dae, bounds = _constant_chain(30)
    ill = _with_b(dae, np.broadcast_to(np.diag([1.0, 1e-5]), (30, 2, 2)))
    y_seq = within_bound(np.linspace(-1.0, 1.0, 31)[:, None], bounds)
    run = filter_run(ill, bounds, y_seq, np.ones(2))
    ref = filter_run(*_materialized(ill, bounds), y_seq, np.ones(2))
    assert run.solver == ref.solver and run.solver["path"] == "recursive"
    assert np.array_equal(run.outputs["x_hat_seq"], ref.outputs["x_hat_seq"])
    assert np.array_equal(run.outputs["P_final"], ref.outputs["P_final"])
    assert run.radius == ref.radius
    ell_seq = np.zeros((31, 2))
    ell_seq[-1] = 1.0
    one_shot = variational_estimate(ill, bounds, ell_seq, y_seq)
    assert run.radius == pytest.approx(one_shot.radius, rel=1e-10)
    blind = DiscreteDAE(
        F_seq=np.broadcast_to(np.diag([1.0, 0.0]), (31, 2, 2)),
        C_seq=dae.C_seq,
        B_seq=dae.B_seq,
        S=dae.S,
        H_seq=dae.H_seq,
    )
    messages = []
    for chain in ((blind, bounds), _materialized(blind, bounds)):
        with pytest.raises(RankDeficient, match=r"^information matrix at step 0 is singular") as info:
            filter_run(*chain, y_seq, np.ones(2))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# Fine grids: below the band's condition floor the sweep answers with one
# corrected semi-normal step, checked against the QR steps of the same chain


def _fine_chain(problem, steps):
    """The implicit-Euler chain of the unit scalar problem x' = f, y = x + g,
    or of an index-1 problem (F = diag(1, 0), H reading both states), on
    ``steps`` steps of [0, 1], with y = 0.3 sin(3t) and readout e_1."""
    if problem == "scalar":
        F, C, H = [[1.0]], [[0.0]], [[1.0]]
    else:
        F, C, H = np.diag([1.0, 0.0]), [[-1.0, 0.2], [0.3, -1.0]], [[1.0, 0.5]]
    system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
    n = system.state_dim
    bounds = ContinuousEllipsoid(Q0=np.eye(n), Q1=np.eye(n), Q2=np.eye(1))
    grid = TimeGrid(0.0, 1.0, steps)
    dae, dbounds = discretize(system, bounds, grid)
    y_seq = 0.3 * np.sin(3.0 * grid.nodes())[:, None]
    return system, bounds, grid, dae, dbounds, y_seq, np.eye(n)[0]


def _assert_corrected_matches_qr(dae, bounds, y_seq, ell, monkeypatch):
    """The run as it is takes the corrected sweep; with an unreachable floor
    the same chain takes the QR steps. Returns the sweep's solver record."""
    model = prepare_filter(dae, bounds)
    Vy = (model.V @ y_seq[:, :, None])[:, :, 0]
    centers = np.empty((dae.horizon + 1, dae.state_dim))
    run = filter_run(dae, bounds, y_seq, ell)
    beta = filtering_mod._information_sweep(model, Vy, centers)[1]
    monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", np.inf)
    ref = filter_run(dae, bounds, y_seq, ell)
    beta_ref = filtering_mod._qr_steps(model, Vy, centers)[1]
    assert run.solver["path"] == "information" and ref.solver["path"] == "recursive"
    # the band's estimate is below the floor, and the step was small enough
    assert run.solver["rcond_estimate"] < run.solver["rcond_floor"]
    assert 0.0 <= run.solver["correction"] <= linalg_mod.CORRECTION_TOL
    assert ref.solver["correction"] is None
    assert run.radius == pytest.approx(ref.radius, rel=1e-11)
    assert beta == pytest.approx(beta_ref, rel=1e-11)
    P, P_ref = run.outputs["P_final"], ref.outputs["P_final"]
    assert np.abs(P - P_ref).max() <= 1e-11 * np.abs(P_ref).max()
    x, x_ref = run.outputs["x_hat_seq"], ref.outputs["x_hat_seq"]
    assert np.abs(x[-1] - x_ref[-1]).max() <= 1e-11 * ref.radius
    assert np.array_equal(run.outputs["x_hat_final"], x[-1])
    assert np.abs(x[:-1] - x_ref[:-1]).max() <= 1e-9 * np.abs(x_ref).max()
    return run.solver


@pytest.mark.parametrize(
    "problem, steps",
    [("scalar", 1024), ("scalar", 4096), ("scalar", 16384), ("index-1", 512), ("index-1", 2048)],
)
def test_corrected_sweep_matches_the_qr_steps_on_fine_grids(problem, steps, monkeypatch):
    # the band's rcond estimate falls like h^2 (3.8e-7 to 1.5e-9 on the
    # scalar grids); one corrected step gives back the terminal digits, and
    # the interior centers, which it does not correct, keep nine
    *_, dae, dbounds, y_seq, ell = _fine_chain(problem, steps)
    solver = _assert_corrected_matches_qr(dae, dbounds, y_seq, ell, monkeypatch)
    assert solver["blocks"] == solver["blocks_factored"] == 1


@pytest.mark.parametrize("problem, steps, block", [("scalar", 4096, 1024), ("index-1", 2048, 512)])
def test_corrected_sweep_across_block_edges(problem, steps, block, monkeypatch):
    # blocks of ``block`` steps, each with a band estimate below the floor:
    # the step runs its two substitutions across the block edges
    *_, dae, dbounds, y_seq, ell = _fine_chain(problem, steps)
    n = dae.state_dim
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * n * n * block)
    solver = _assert_corrected_matches_qr(dae, dbounds, y_seq, ell, monkeypatch)
    assert solver["blocks"] == solver["blocks_factored"] == steps // block + 1


def test_corrected_sweep_factors_again_the_blocks_it_did_not_keep(monkeypatch):
    # the sweep keeps the model halves from the first block whose band
    # estimate is below the floor; when that is not the first block, the
    # step factors the earlier blocks again, from the U each was factored
    # with, to the same factor. Here the first block's estimate is read as
    # 1, so that block is factored once in the sweep and once per
    # substitution of the step, and the answers are bitwise those of
    # keeping it
    *_, dae, dbounds, y_seq, ell = _fine_chain("scalar", 4096)
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 1024)
    kept = filter_run(dae, dbounds, y_seq, ell)
    real = filtering_mod._block_factor
    starts = []

    def first_block_passes(model, start, stop, U):
        starts.append(start)
        half = real(model, start, stop, U)
        return dataclasses.replace(half, band=1.0) if start == 0 else half

    monkeypatch.setattr(filtering_mod, "_block_factor", first_block_passes)
    again = filter_run(dae, dbounds, y_seq, ell)
    assert starts.count(0) == 3 and len(starts) == 5 + 2
    assert again.solver["correction"] == kept.solver["correction"] is not None
    for name in ("x_hat_seq", "P_final"):
        assert np.array_equal(again.outputs[name], kept.outputs[name])
    assert again.radius == kept.radius and again.estimate == kept.estimate


@pytest.mark.parametrize("problem, steps", [("scalar", 4096), ("index-1", 2048)])
def test_riccati_on_the_corrected_sweep_matches_the_qr_steps(problem, steps, monkeypatch):
    # both chains of riccati take the corrected sweep; the gains read the
    # interior P_k, which the step does not correct
    system, bounds, grid, *_, y_seq, ell = _fine_chain(problem, steps)
    out = riccati_filter(system, bounds, ell, y_seq, grid)
    monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", np.inf)
    ref = riccati_filter(system, bounds, ell, y_seq, grid)
    assert out.solver["path"] == "information" and ref.solver["path"] == "recursive"
    assert out.solver["correction"] <= linalg_mod.CORRECTION_TOL
    assert out.worst_case_mse == pytest.approx(ref.worst_case_mse, rel=1e-11)
    assert np.abs(out.K_nodes - ref.K_nodes).max() <= 1e-8 * np.abs(ref.K_nodes).max()
    assert out.estimate == pytest.approx(ref.estimate, abs=1e-11 * ref.radius)


def _unstable_chain(case):
    """ROADMAP item 18's chains, with unit weights: F = 1, C = 50, H = 0 on
    1000 steps; "late drift", C = -1 then 60 from t = 0.5, H = 0 on 400;
    "regular 2-D", C = [[30, 1], [0, -2]], H = [0, 1] on 500."""
    F, C, H, steps = {
        "C=50": ([[1.0]], [[50.0]], [[0.0]], 1000),
        "late drift": ([[1.0]], TableFunction([0.0, 0.5], [[[-1.0]], [[60.0]]]), [[0.0]], 400),
        "regular 2-D": (np.eye(2), [[30.0, 1.0], [0.0, -2.0]], [[0.0, 1.0]], 500),
    }[case]
    system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
    n, l = system.state_dim, system.observation_dim
    bounds = ContinuousEllipsoid(Q0=np.eye(n), Q1=np.eye(n), Q2=np.eye(l))
    dae, dbounds = discretize(system, bounds, TimeGrid(0.0, 1.0, steps))
    return dae, dbounds, np.zeros((steps + 1, l)), np.eye(n)[0]


@pytest.mark.parametrize("case, lost_step", [("C=50", 383), ("late drift", 325)])
def test_corrected_sweep_leaves_unstable_chains_to_the_qr_steps(case, lost_step):
    # J_k = T_k - U_k'U_k cancels by more than 1e14-fold, and a 1 x 1 J_k
    # reads the same Jacobi-scaled: the digits figure turns the sweep down
    # before any correction (cond_1(J_k) is 1). The QR steps then lose x_k
    # to rounding: R_k falls below 1e-10 of the norm of its column, and
    # every functional gets an infinite radius
    run = filter_run(*_unstable_chain(case))
    assert run.solver["path"] == "recursive" and run.solver["correction"] is None
    assert run.solver["rcond_estimate"] < 1e-16
    assert not run.feasible and run.radius == math.inf
    assert (run.estimate, run.outputs) == (None, {})
    assert run.solver["lost_step"] == lost_step
    assert 9e-11 < run.solver["lost_figure"] <= run.solver["lost_tol"] == 1e-10


@pytest.mark.parametrize("steps", [1, 50, 1001])
def test_lost_direction_keeps_the_other_verdicts(steps, monkeypatch):
    # The lost step and its figure do not depend on how the QR steps are
    # blocked, and the run goes on past it: a step that no row sees (x_600
    # of the C=50 chain with F_600 = 0) still raises its rank verdict, in
    # a later block or in the lost step's own
    dae, bounds, y_seq, ell = _unstable_chain("C=50")
    _qr_blocks_of(steps, dae, monkeypatch)
    run = filter_run(dae, bounds, y_seq, ell)
    assert run.solver["lost_step"] == 383
    assert run.solver["lost_figure"] == pytest.approx(9.732e-11, rel=1e-3)
    F = np.array(dae.F_seq)
    F[600] = 0.0
    with pytest.raises(RankDeficient, match=r"^information matrix at step 600 is singular: "):
        filter_run(dataclasses.replace(dae, F_seq=F), bounds, y_seq, ell)


@pytest.mark.parametrize(
    "chain, message",
    [
        ("rank", SINGULAR_150),
        (
            "regular 2-D",
            "information matrix at step 178 is singular: "
            "s_min/s_max of R_178 is 1.0e-05, cutoff 1e-05",
        ),
    ],
)
def test_corrected_sweep_keeps_the_rank_verdicts(chain, message):
    # the rank tie reads cond_1(J_k) itself, and the chains whose J_k it
    # turns down reach the QR steps, which alone raise the rank verdict,
    # with the same step and margin. On the rank chain it decides alone:
    # cond_1(J_150) is 9e11, while the Jacobi-scaled digits figure reads an
    # amplification of 3.2
    if chain == "rank":
        dae, bounds = _chain_breaking_at_150("rank")
        args = (dae, bounds, np.zeros((dae.horizon + 1, 2)), np.ones(2))
    else:
        args = _unstable_chain(chain)
    with pytest.raises(RankDeficient) as raised:
        filter_run(*args)
    assert str(raised.value) == message


def test_filter_run_at_horizon_zero():
    # no transition: the B and Q1 stacks are empty, P_0 = (F'Q0F + H'Q2H)^-1
    # and x_hat_0 = P_0 H'Q2 y_0
    F, H = np.eye(2), np.array([[1.0, 1.0]])
    dae = DiscreteDAE(F_seq=F[None], C_seq=(), B_seq=(), S=np.eye(2), H_seq=H[None])
    bounds = DAEEllipsoid(Q0=np.eye(2), Q1_seq=(), Q2_seq=np.eye(1)[None])
    run = filter_run(dae, bounds, [[1.0]], [1.0, 0.0])
    P = np.linalg.inv(F.T @ F + H.T @ H)
    assert run.solver["path"] == "information"
    assert run.outputs["P_final"] == pytest.approx(P, abs=1e-15)
    assert run.outputs["x_hat_seq"] == pytest.approx((P @ H.T)[:, 0][None], abs=1e-15)
    assert run.estimate == pytest.approx(P[0] @ H[0], abs=1e-15)
    # y_0 = 1 needs energy beta = (1 + HH')^-1 = 1/3, and P[0, 0] = 2/3
    assert run.radius == pytest.approx(np.sqrt(1.0 - 1.0 / 3.0) * np.sqrt(P[0, 0]), abs=1e-15)


def test_solver_record_names_the_path():
    dae, bounds = _constant_chain(30)
    run = filter_run(dae, bounds, np.zeros((31, 1)), np.ones(2))
    assert run.solver["path"] == "information" and run.solver["correction"] is None
    assert run.solver["rcond_estimate"] >= run.solver["rcond_floor"] == 1e-6
    # cond(B_k) = 1e5 becomes 1e10 in A, and J_k = T_k - U_k'U_k cancels
    # 2.6e10-fold, unscaled or Jacobi-scaled (cond_1(J_k) is only 27): the
    # digits figure turns the sweep down before any corrected step, and the
    # QR steps answer
    B = np.broadcast_to(np.diag([1.0, 1e-5]), (30, 2, 2))
    run = filter_run(_with_b(dae, B), bounds, np.zeros((31, 1)), np.ones(2))
    assert run.solver["path"] == "recursive" and run.solver["correction"] is None
    assert run.solver["rcond_estimate"] < 1e-6


def test_observations_are_checked_as_one_stack():
    dae, bounds = _constant_chain(30)
    y_seq = [np.zeros(1)] * 31
    ragged = y_seq[:17] + [np.zeros(3)] + y_seq[18:]
    with pytest.raises(InvalidInput, match=r"^y_seq\[17\] has length 3, expected 1$"):
        filter_run(dae, bounds, ragged, np.ones(2))
    with_nan = y_seq[:17] + [np.array([np.nan])] + y_seq[18:]
    with pytest.raises(InvalidInput, match=r"^y_seq\[17\] contains non-finite entries$"):
        filter_run(dae, bounds, with_nan, np.ones(2))
    with pytest.raises(InvalidInput, match="^expected 31 observation vectors, got 30$"):
        filter_run(dae, bounds, y_seq[:30], np.ones(2))


# ---------------------------------------------------------------------------
# Model-only work stays out of the recursive loops


def _count_checks(monkeypatch):
    """Count calls of the per-matrix checks wherever a module binds them."""
    counts = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("require_spd", "as_matrix"):
        real = getattr(linalg_mod, name)
        for module in (linalg_mod, discrete_mod, filtering_mod, simulate_mod, continuous_mod):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(np, "allclose", counting("allclose", np.allclose))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    return counts


def _constant_chain(N):
    eye = np.eye(2)
    C = np.array([[0.9, 0.2], [-0.1, 0.8]])
    dae = DiscreteDAE(
        F_seq=np.broadcast_to(eye, (N + 1, 2, 2)),
        C_seq=np.broadcast_to(C, (N, 2, 2)),
        B_seq=np.broadcast_to(eye, (N, 2, 2)),
        S=eye,
        H_seq=np.broadcast_to(eye[:1], (N + 1, 1, 2)),
    )
    bounds = DAEEllipsoid(
        Q0=eye,
        Q1_seq=np.broadcast_to(2.0 * eye, (N, 2, 2)),
        Q2_seq=np.broadcast_to(np.eye(1), (N + 1, 1, 1)),
    )
    return dae, bounds


def test_per_matrix_checks_do_not_grow_with_the_horizon(monkeypatch):
    system = ContinuousDAE(F=[[1.0]], C=[[-0.5]], H=[[1.0]], t_start=0.0, t_end=1.0)
    cbounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[2.0]])
    counts = _count_checks(monkeypatch)
    seen, riccati = [], []
    for N in (10, 1000):
        dae, bounds = _constant_chain(N)
        counts.clear()
        filter_run(dae, bounds, np.zeros((N + 1, 1)), np.ones(2))
        simulate(dae, bounds, seed=1)
        seen.append(dict(counts))
    # riccati runs the filter on two chains; the QR steps judge each block
    # of steps by one SVD, so compare two grids whose chains take the sweep
    for M in (10, 200):
        counts.clear()
        grid = TimeGrid(0.0, 1.0, M)
        out = riccati_filter(system, cbounds, [1.0], np.zeros((M + 1, 1)), grid)
        assert out.solver["path"] == "information"
        riccati.append(dict(counts))
    assert seen[0] == seen[1] and riccati[0] == riccati[1]
    assert "allclose" not in seen[1] and "allclose" not in riccati[1]
    assert all(count <= 5 for count in seen[1].values())


def test_constant_model_terms_are_computed_once():
    model = prepare_filter(*_constant_chain(1000))
    for terms in (model.LF, model.LC, model.VH, model.V):
        assert terms.shape[0] in (1000, 1001) and terms.strides[0] == 0


# ---------------------------------------------------------------------------
# the filter's radius and data verdict are the one-shot's


def test_filter_radius_is_the_one_shot_radius():
    # the attained 0.746994, where sqrt(ell'P_N ell) is 0.774597
    dae, bounds = scalar_chain()
    y_seq = [np.array([0.3]), np.array([0.4])]
    run = filter_run(dae, bounds, y_seq, np.ones(1))
    one_shot = variational_estimate(dae, bounds, [np.zeros(1), np.ones(1)], y_seq)
    assert run.radius == pytest.approx(one_shot.radius, rel=1e-10)


@pytest.mark.parametrize("floor", [filtering_mod.INFORMATION_RCOND_FLOOR, np.inf])
def test_filter_rejects_data_outside_the_bound(floor, monkeypatch):
    # both raise InconsistentData, the filter on either path at the first
    # step: y_0 = 30 alone needs energy 30^2/2 = 450 (an infinite floor
    # sends the run to the QR steps)
    dae, bounds = scalar_chain()
    y_seq = [np.array([30.0]), np.array([40.0])]
    with pytest.raises(InconsistentData):
        variational_estimate(dae, bounds, [np.zeros(1), np.ones(1)], y_seq)
    monkeypatch.setattr(filtering_mod, "INFORMATION_RCOND_FLOOR", floor)
    with pytest.raises(InconsistentData, match=r"at step 0 \(energy overshoot 4\.490e\+02\)"):
        filter_run(dae, bounds, y_seq, np.ones(1))


def test_unstable_chain_radius_is_not_under_reported():
    # the implicit-Euler chain of test_riccati_blowup_detected's problem:
    # past the step that loses x_k to rounding, the QR steps would answer
    # 7.9e12 where the exact radius is 1.9e22; the filter answers infinite
    system = ContinuousDAE(F=[[1.0]], C=[[50.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 1000)
    dae, dbounds = discretize(system, bounds, grid)
    P = 1.0  # the exact chain recursion, with no observation
    for _ in range(grid.steps):
        P = (P + grid.h) / (1.0 - 50.0 * grid.h) ** 2
    try:
        run = filter_run(dae, dbounds, np.zeros((grid.steps + 1, 1)), np.ones(1))
    except EstimationError:
        return
    assert run.radius >= (1.0 - 1e-6) * math.sqrt(P)
