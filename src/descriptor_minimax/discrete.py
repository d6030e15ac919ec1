"""Trajectory estimation for discrete-time descriptor systems.

A horizon-N system carries states x_0 .. x_N coupled by

    F_0 x_0           = S x0g                   (uncertain initial data x0g)
    F_{k+1} x_{k+1}   = C_k x_k + B_k f_k       (k = 0 .. N-1)
    y_k               = H_k x_k + g_k           (k = 0 .. N)

with the joint ellipsoidal bound

    (Q0 x0g, x0g) + sum_k (Q1_k f_k, f_k) + sum_k (Q2_k g_k, g_k) <= 1.

Stacking all states into one vector (:func:`flatten`) turns this into a
static algebraic model, so every result from :mod:`.static` applies
verbatim to trajectory functionals sum_k (ell_k, x_k). The one-shot
estimators solve it on the first of three routes that takes the chain
(:func:`_solved`), the first two in time and memory linear in N:

* **Information.** Where :func:`.filtering.prepare_filter` whitens the
  chain (S and every B_k square invertible), on the filter's banded
  Cholesky factor of the information matrix A = K'K of the whitened rows
  K (:func:`.filtering._one_shot`). Every entry of A scales with the
  weights, so a uniform scaling leaves the route and its answers alone.
* **Band saddle.** Otherwise :func:`horizon_saddle` factors the saddle
  system [[F, -G], [H'Q2H, F']], ordered step by step into a band, once by
  LAPACK dgbtrf. It is trusted when dgbtrf meets no zero pivot, the
  estimated reciprocal condition number reaches :data:`.linalg.RCOND_FLOOR`
  (which rejects every matrix that an SVD cut at DEFAULT_TOL would call
  rank-deficient), and every solution passes the size check of
  :meth:`.linalg.BandedFactor.solve`.
* **Dense.** Otherwise (singular dynamics, non-representable
  functionals, rank-deficient [F_k; H_k] or [F_k, B_k] stacks) the
  flattened model goes to the static estimators, which solve on the null
  space of [F, -B] and decide rank and representability by one SVD of
  the whitened rows. That path is cubic in N.

A regular information or saddle matrix implies ker F ∩ ker H = {0}, so
every functional is representable there. Each estimate
(:class:`.static.Estimate`) carries a ``solver`` record
(:func:`.static.solver_record`) naming the path taken and the condition
estimate that chose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput
from .linalg import (
    as_matrix,
    as_matrix_stack,
    block_diag,
    check_energy,
    factor_banded,
    nonnegative_mse,
    read_only,
    require_spd,
    require_spd_stack,
    vector_stack,
)
from .static import (
    Estimate,
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    solver_record,
)


@dataclass(frozen=True)
class DiscreteDAE:
    """Time-varying descriptor recursion over a finite horizon.

    Each per-step sequence is stored as one read-only stacked array:
    ``F_seq`` (N+1, m, n) and ``H_seq`` (N+1, l, n), one entry per state;
    ``C_seq`` (N, m, n) and ``B_seq`` (N, m, p), one per transition. S is
    (m, m). The constructor accepts any sequence of matrices (or a 3-D
    array) and validates each stack at once; a broadcast stack (one
    matrix repeated with stride 0) stays a broadcast. N = 0 is allowed:
    a single state constrained by F_0 x_0 = S x0g and observed once.
    """

    F_seq: np.ndarray
    C_seq: np.ndarray
    B_seq: np.ndarray
    S: np.ndarray
    H_seq: np.ndarray

    def __post_init__(self):
        F = as_matrix_stack(self.F_seq, "F_seq")
        C = as_matrix_stack(self.C_seq, "C_seq")
        B = as_matrix_stack(self.B_seq, "B_seq")
        H = as_matrix_stack(self.H_seq, "H_seq")
        S = as_matrix(self.S, "S")
        if not F.shape[0]:
            raise InvalidInput("F_seq must contain at least one matrix")
        horizon = F.shape[0] - 1
        if C.shape[0] != horizon or B.shape[0] != horizon:
            raise InvalidInput(
                f"with {horizon + 1} state matrices there must be {horizon} "
                f"transition matrices, got {C.shape[0]} C and {B.shape[0]} B"
            )
        if H.shape[0] != horizon + 1:
            raise InvalidInput(
                f"expected {horizon + 1} observation matrices, got {H.shape[0]}"
            )
        m, n = F.shape[1:]
        if not n:
            raise InvalidInput("F_seq has 0 columns; a chain needs at least one state")
        if not horizon:
            C = read_only(np.zeros((0, m, n)))
            B = read_only(np.zeros((0, m, B.shape[2])))
        _check_stack_shape(C, "C_seq", (m, n))
        _check_stack_shape(B, "B_seq", (m, B.shape[2]))
        _check_stack_shape(H, "H_seq", (H.shape[1], n))
        if S.shape != (m, m):
            raise InvalidInput(f"S has shape {S.shape}, expected {(m, m)}")
        object.__setattr__(self, "F_seq", F)
        object.__setattr__(self, "C_seq", C)
        object.__setattr__(self, "B_seq", B)
        object.__setattr__(self, "H_seq", H)
        object.__setattr__(self, "S", read_only(S, self.S))

    @property
    def horizon(self) -> int:
        return self.F_seq.shape[0] - 1

    @property
    def state_dim(self) -> int:
        return self.F_seq.shape[2]

    @property
    def equation_dim(self) -> int:
        return self.F_seq.shape[1]

    @property
    def disturbance_dim(self) -> int:
        return self.B_seq.shape[2]

    @property
    def observation_dim(self) -> int:
        return self.H_seq.shape[1]


@dataclass(frozen=True)
class DAEEllipsoid:
    """Joint bound on initial data, process and observation disturbances.

    ``Q1_seq`` (N, p, p) and ``Q2_seq`` (N+1, l, l) are read-only stacks,
    each checked SPD by one batched test (:func:`.linalg.require_spd_stack`).
    """

    Q0: np.ndarray
    Q1_seq: np.ndarray
    Q2_seq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q0", read_only(require_spd(self.Q0, "Q0"), self.Q0))
        object.__setattr__(self, "Q1_seq", require_spd_stack(self.Q1_seq, "Q1_seq"))
        object.__setattr__(self, "Q2_seq", require_spd_stack(self.Q2_seq, "Q2_seq"))


def _check_stack_shape(stack: np.ndarray, name: str, shape: tuple) -> None:
    """Every entry of a homogeneous stack has the entry shape of stack[0]."""
    if stack.shape[0] and stack.shape[1:] != shape:
        raise InvalidInput(f"{name}[0] has shape {stack.shape[1:]}, expected {shape}")


def _check_bounds(dae: DiscreteDAE, bounds: DAEEllipsoid) -> None:
    """The weights match the model: one shape comparison per stack."""
    m, p, l, N = dae.equation_dim, dae.disturbance_dim, dae.observation_dim, dae.horizon
    if bounds.Q0.shape != (m, m):
        raise InvalidInput(
            f"Q0 must be {m}x{m} to weight the initial data, got {bounds.Q0.shape}"
        )
    if bounds.Q1_seq.shape[0] != N:
        raise InvalidInput(f"expected {N} process weights, got {bounds.Q1_seq.shape[0]}")
    if bounds.Q2_seq.shape[0] != N + 1:
        raise InvalidInput(
            f"expected {N + 1} observation weights, got {bounds.Q2_seq.shape[0]}"
        )
    _check_stack_shape(bounds.Q1_seq, "Q1_seq", (p, p))
    _check_stack_shape(bounds.Q2_seq, "Q2_seq", (l, l))


def flatten(dae: DiscreteDAE) -> StaticModel:
    """Stack the horizon into one static algebraic model.

    The stacked state is (x_0, ..., x_N). Equation block rows are the
    initial condition followed by the N transitions; the stacked
    disturbance is (x0g, f_0, ..., f_{N-1}).
    """
    n, m = dae.state_dim, dae.equation_dim
    N = dae.horizon
    rows = (N + 1) * m
    cols = (N + 1) * n
    F = np.zeros((rows, cols))
    F[:m, :n] = dae.F_seq[0]
    for k in range(N):
        r = (k + 1) * m
        F[r : r + m, k * n : (k + 1) * n] = -dae.C_seq[k]
        F[r : r + m, (k + 1) * n : (k + 2) * n] = dae.F_seq[k + 1]
    B = block_diag(dae.S, dae.B_seq)
    H = block_diag(dae.H_seq)
    return StaticModel(F=F, B=B, H=H)


def flatten_bounds(dae: DiscreteDAE, bounds: DAEEllipsoid) -> StaticEllipsoid:
    """Block-diagonal weights matching the layout of :func:`flatten`."""
    _check_bounds(dae, bounds)
    return StaticEllipsoid(
        Q1=block_diag(bounds.Q0, bounds.Q1_seq),
        Q2=block_diag(bounds.Q2_seq),
    )


def stack_functional(dae: DiscreteDAE, ell_seq: Sequence) -> np.ndarray:
    """The blocks ell_k concatenated; see :func:`.linalg.vector_stack`."""
    return vector_stack(
        ell_seq, "ell_seq", dae.horizon + 1, dae.state_dim, "functional blocks"
    ).reshape(-1)


def stack_observations(dae: DiscreteDAE, y_seq: Sequence) -> np.ndarray:
    """The observations y_k concatenated; see :func:`.linalg.vector_stack`."""
    return vector_stack(
        y_seq, "y_seq", dae.horizon + 1, dae.observation_dim, "observation vectors"
    ).reshape(-1)


def horizon_saddle(dae: DiscreteDAE, bounds: DAEEllipsoid, adjoint: np.ndarray) -> tuple:
    """Solve the horizon saddle system in band storage, one factor for all
    right-hand sides.

    Unknowns are ordered step by step as (x_0, w_0, x_1, w_1, ...), rows
    as (dynamics_0, adjoint_0, dynamics_1, ...). The step blocks are those
    of the flattened static system [[F, -G], [H'Q2H, F']] in that order:
    dynamics row k reads F_k x_k - C_{k-1} x_{k-1} - G_k w_k with
    G_0 = S Q0^{-1} S' and G_{k+1} = B_k Q1_k^{-1} B_k'; adjoint row k
    reads H_k'Q2_k H_k x_k + F_k' w_k - C_k' w_{k+1}. With s = n + m the
    bandwidths are kl = n + 2m - 1 and ku = 2n + m - 1 (both 5 for
    n = m = 2). Storage is O(N); nothing quadratic in N is allocated. A
    regularized solve adds its penalty to the chain as an observation
    (:func:`.continuous.tikhonov_approximate`), not to this matrix.

    ``adjoint`` (count, N+1, n) holds the right-hand sides: the dynamics
    rows are homogeneous, and adjoint row k of solve j carries
    adjoint[j, k]. Returns the x-blocks (count, N+1, n) of the solutions,
    or None when the band factor is not trusted (see
    :meth:`.linalg.BandedFactor.solve`), and the solver record either way.
    """
    n, m, N = dae.state_dim, dae.equation_dim, dae.horizon
    s = n + m
    dim = (N + 1) * s
    kl, ku = (n + 2 * m - 1, 2 * n + m - 1) if N else (s - 1, s - 1)
    band = np.zeros((2 * kl + ku + 1, dim), order="F")

    F = dae.F_seq
    # an overflowed W fails the regularity test, and the dense path's
    # finiteness check names it
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.swapaxes(dae.H_seq, 1, 2) @ bounds.Q2_seq @ dae.H_seq
    G = np.empty((N + 1, m, m))
    G[0] = dae.S @ np.linalg.solve(bounds.Q0, dae.S.T)
    if N:
        B = dae.B_seq
        G[1:] = B @ np.linalg.solve(bounds.Q1_seq, np.swapaxes(B, 1, 2))

    first = np.arange(N + 1)[:, None] * s
    dyn = first + np.arange(m)          # rows of dynamics_k
    adj = first + m + np.arange(n)      # rows of adjoint_k
    xcol = first + np.arange(n)         # columns of x_k
    wcol = first + n + np.arange(m)     # columns of w_k

    def put(rows, cols, blocks):
        r, c = rows[:, :, None], cols[:, None, :]
        band[kl + ku + r - c, c] = blocks

    put(dyn, xcol, F)
    put(dyn, wcol, -G)
    put(adj, xcol, W)
    put(adj, wcol, np.swapaxes(F, 1, 2))
    if N:
        C = dae.C_seq
        put(dyn[1:], xcol[:-1], -C)
        put(adj[:-1], wcol[1:], -np.swapaxes(C, 1, 2))
    factor = factor_banded(band, kl, ku)

    count = adjoint.shape[0]
    rhs = np.zeros((N + 1, s, count))
    rhs[:, m:, :] = np.moveaxis(adjoint, 0, -1)
    solution = factor.solve(rhs.reshape(dim, count))
    if solution is None:
        return None, solver_record("dense", factor.rcond, factor.floor)
    states = np.moveaxis(solution.reshape(N + 1, s, count)[:, :n, :], -1, 0)
    return states, solver_record("banded", factor.rcond, factor.floor)


def _stacked_inputs(dae: DiscreteDAE, ell_seq: Sequence, y_seq) -> tuple:
    """Validated functional and observations, flat and per step."""
    n, l, N = dae.state_dim, dae.observation_dim, dae.horizon
    ell = stack_functional(dae, ell_seq)
    y = stack_observations(dae, y_seq) if y_seq is not None else None
    return ell, y, ell.reshape(N + 1, n), (y.reshape(N + 1, l) if y is not None else None)


def _solved(dae: DiscreteDAE, bounds: DAEEllipsoid, ells: np.ndarray, ys, dense) -> tuple:
    """The routes of the module docstring in order, for the columns
    [b, ell] (b_k = H_k'Q2_ky_k; [ell] alone when ``ys`` is None): the
    solutions' x-blocks (columns, N + 1, n) and the solver record, or
    ``dense()`` with the band's record."""
    from .filtering import _one_shot  # filtering imports this module

    solved = _one_shot(dae, bounds, ells, ys)
    if solved is not None:
        return solved
    data = [] if ys is None else [np.einsum("kji,kjl,kl->ki", dae.H_seq, bounds.Q2_seq, ys)]
    states, solver = horizon_saddle(dae, bounds, np.stack(data + [ells]))
    return (states, solver) if states is not None else replace(dense(), solver=solver)


def variational_estimate(
    dae: DiscreteDAE, bounds: DAEEllipsoid, ell_seq: Sequence, y_seq: Sequence
) -> Estimate:
    """Chebyshev-center estimate of sum_k (ell_k, x_k) over the horizon.

    One factorization (:func:`_solved`) gives the center x_hat for the data
    H_k'Q2_k y_k and the a priori direction p for ell_k, one row per step.
    The radius is sqrt(1 - beta) sqrt((ell, p)) as in
    :func:`.static.aposteriori_estimate`, with the least data energy beta =
    sum_k (y_k - H_k x_k, Q2_k y_k) and (ell, p) judged by
    :func:`.linalg.nonnegative_mse`.
    """
    _check_bounds(dae, bounds)
    ell, _, ells, ys = _stacked_inputs(dae, ell_seq, y_seq)
    solved = _solved(
        dae, bounds, ells, ys, lambda: _dense(dae, bounds, ell_seq, y_seq, aposteriori_estimate)
    )
    if isinstance(solved, Estimate):
        return solved
    (x_seq, p_seq), solver = solved
    q2y = np.einsum("kij,kj->ki", bounds.Q2_seq, ys)
    beta = float(np.sum((ys - np.einsum("kij,kj->ki", dae.H_seq, x_seq)) * q2y))
    check_energy(beta)
    sigma_sq = nonnegative_mse(float(np.sum(ells * p_seq)), ell)
    return Estimate(
        feasible=True,
        estimate=float(np.sum(ells * x_seq)),
        radius=math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(sigma_sq),
        outputs={"x_hat_seq": x_seq},
        solver=solver,
        p=p_seq,
    )


def apriori_horizon_estimate(
    dae: DiscreteDAE,
    bounds: DAEEllipsoid,
    ell_seq: Sequence,
    y_seq: Optional[Sequence] = None,
) -> Estimate:
    """Minimax linear readout of sum_k (ell_k, x_k) chosen before data.

    One solve with right-hand side ell (:func:`_solved`) gives p; the
    readout is u_hat_k = Q2_k H_k p_k and its worst-case mean-squared
    error (ell, p). The output ``u_hat`` is the readout of every step
    concatenated, and ``p`` holds one row per step. With ``y_seq`` the
    readout is applied to the data as ``estimate``.
    """
    _check_bounds(dae, bounds)
    ell, _, ells, ys = _stacked_inputs(dae, ell_seq, y_seq)
    solved = _solved(dae, bounds, ells, None, lambda: _dense(dae, bounds, ell_seq, y_seq))
    if isinstance(solved, Estimate):
        return solved
    (p_seq,), solver = solved
    sigma_sq = nonnegative_mse(float(np.sum(ells * p_seq)), ell)
    hp = np.einsum("kij,kj->ki", dae.H_seq, p_seq)
    u_seq = np.einsum("kij,kj->ki", bounds.Q2_seq, hp)
    return Estimate(
        feasible=True,
        estimate=float(np.sum(u_seq * ys)) if ys is not None else None,
        radius=math.sqrt(sigma_sq),
        worst_case_mse=sigma_sq,
        outputs={"u_hat": u_seq.reshape(-1)},
        solver=solver,
        p=p_seq,
    )


def _dense(
    dae: DiscreteDAE, bounds: DAEEllipsoid, ell_seq, y_seq=None, estimator=apriori_estimate
) -> Estimate:
    """``estimator`` (a priori, or a posteriori for ``x_hat_seq``) of
    :mod:`.static` on the flattened chain, the one-shots' last route, with
    ``p`` and ``x_hat_seq`` per step and ``u_hat`` of every step in one."""
    ell, y, ells, _ = _stacked_inputs(dae, ell_seq, y_seq)
    dense = estimator(flatten(dae), flatten_bounds(dae, bounds), ell, y)
    x_hat = dense.outputs.get("x_hat")
    outputs = {"u_hat": dense.outputs["u_hat"]} if dense.feasible else {}
    return replace(
        dense,
        outputs=outputs if x_hat is None else {"x_hat_seq": x_hat.reshape(ells.shape)},
        p=None if dense.p is None else dense.p.reshape(ells.shape),
    )
