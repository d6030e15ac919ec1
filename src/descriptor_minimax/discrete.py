"""Trajectory estimation for discrete-time descriptor systems.

A horizon-N system carries states x_0 .. x_N coupled by

    F_0 x_0           = S x0g                   (uncertain initial data x0g)
    F_{k+1} x_{k+1}   = C_k x_k + B_k f_k       (k = 0 .. N-1)
    y_k               = H_k x_k + g_k           (k = 0 .. N)

with the joint ellipsoidal bound

    (Q0 x0g, x0g) + sum_k (Q1_k f_k, f_k) + sum_k (Q2_k g_k, g_k) <= 1.

Stacking all states into one vector (:func:`flatten`) turns this into a
static algebraic model, so every result from :mod:`.static` applies
verbatim to trajectory functionals sum_k (ell_k, x_k). The estimators
here solve the same saddle-point system without forming it densely:

* **Band ordering.** Unknowns are ordered step by step as (x_k, w_k) and
  rows as (dynamics_k, adjoint_k). Each row then touches only steps
  k-1, k and k+1, so the (N+1)(n+m) square matrix is banded with
  kl = n + 2m - 1 and ku = 2n + m - 1 (:func:`horizon_saddle`). It is
  assembled straight from the step matrices and factored once by LAPACK
  dgbtrf; every right-hand side (center, radius) is one dgbtrs pass.
  Time and memory are linear in N.
* **Regularity test.** The banded path is taken only when dgbtrf meets
  no zero pivot, the estimated reciprocal condition number reaches
  :data:`.linalg.RCOND_FLOOR`, and every solution passes the
  deterministic size check of :meth:`.linalg.BandedFactor.solve`. The
  floor rejects every matrix the dense minimum-norm least-squares solver
  would treat as rank-deficient. A regular saddle matrix implies
  ker F ∩ ker H = {0}, so every functional is representable and no
  separate representability test is needed.
* **Fallback.** Otherwise (singular dynamics, non-representable
  functionals, rank-deficient [F_k; H_k] or [F_k, B_k] stacks) the
  flattened model goes to the dense static solver, which decides rank
  and representability by SVD. That path is cubic in N.

Each result carries a ``solver`` record (:func:`solver_record`) naming
the path taken and the condition estimate that chose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InconsistentData, InvalidInput, NumericalBreakdown
from .linalg import (
    NEGATIVE_FLOOR,
    RCOND_FLOOR,
    BandedFactor,
    as_matrix,
    as_matrix_stack,
    block_diag,
    factor_banded,
    read_only,
    require_spd,
    require_spd_stack,
    spd_solve,
    vector_stack,
)
from .static import (
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
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


def observation_information(H: np.ndarray, Q2: np.ndarray) -> tuple:
    """Per step, H_k'Q2_k (which maps y_k to its information) and the
    information H_k'Q2_kH_k of observation k."""
    HtQ2 = np.swapaxes(H, 1, 2) @ Q2
    return HtQ2, HtQ2 @ H


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


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Chebyshev-center trajectory with the error radius of the functional.

    ``solver`` records how the saddle system was solved; see
    :func:`solver_record`.
    """

    feasible: bool
    sigma_hat: float
    estimate_value: float
    x_hat_seq: np.ndarray
    p_seq: Optional[np.ndarray] = None
    solver: Optional[dict] = None


@dataclass(frozen=True)
class HorizonApriori:
    """Minimax linear readout of a horizon functional, chosen before data.

    ``sigma_hat`` is the worst-case mean-squared error (quadratic in the
    functional), infinite with feasible=False when the functional is not
    representable. ``u_hat_seq[k]`` weights observation y_k, so the
    readout is sum_k (u_hat_seq[k], y_k).
    """

    feasible: bool
    sigma_hat: float
    u_hat_seq: Optional[np.ndarray] = None
    p_seq: Optional[np.ndarray] = None
    estimate_value: Optional[float] = None
    solver: Optional[dict] = None


def solver_record(
    path: str, rcond: Optional[float] = None, floor: float = RCOND_FLOOR
) -> dict:
    """The ``diagnostics.solver`` entry of a report.

    ``path`` names the route taken: "banded" or "dense" for a saddle
    solve, "information" or "recursive" for the filter. ``rcond_estimate``
    is the estimated reciprocal condition number of the factored matrix
    (None where no band factorization was attempted) and ``rcond_floor``
    the level it had to reach for the fast route.
    """
    return {"path": path, "rcond_estimate": rcond, "rcond_floor": floor}


@dataclass(frozen=True)
class HorizonSaddle:
    """The factored horizon saddle matrix.

    Unknowns are ordered step by step as (x_0, w_0, x_1, w_1, ...), rows
    as (dynamics_0, adjoint_0, dynamics_1, ...), so the matrix is banded.
    """

    factor: BandedFactor
    n: int
    m: int

    def rhs(self, adjoint: np.ndarray) -> np.ndarray:
        """Right-hand sides, one column per (N+1, n) block of ``adjoint``.

        The dynamics rows are homogeneous; adjoint row k carries
        adjoint[j, k] in column j.
        """
        count, steps = adjoint.shape[0], adjoint.shape[1]
        b = np.zeros((steps, self.n + self.m, count))
        b[:, self.m :, :] = np.moveaxis(adjoint, 0, -1)
        return b.reshape(steps * (self.n + self.m), count)

    def states(self, solution: np.ndarray) -> np.ndarray:
        """The x_k blocks of each solution column, shape (count, N+1, n)."""
        count = solution.shape[1]
        blocks = solution.reshape(-1, self.n + self.m, count)[:, : self.n, :]
        return np.moveaxis(blocks, -1, 0)


def horizon_saddle(dae: DiscreteDAE, bounds: DAEEllipsoid) -> HorizonSaddle:
    """Assemble the horizon saddle matrix in band storage and factor it once.

    The step blocks are those of the flattened static system
    [[F, -G], [H'Q2H, F']], permuted to the step ordering of
    :class:`HorizonSaddle`: dynamics row k reads F_k x_k - C_{k-1} x_{k-1}
    - G_k w_k with G_0 = S Q0^{-1} S' and G_{k+1} = B_k Q1_k^{-1} B_k';
    adjoint row k reads H_k'Q2_k H_k x_k + F_k' w_k - C_k' w_{k+1}. With
    s = n + m the bandwidths are kl = n + 2m - 1 and ku = 2n + m - 1
    (both 5 for n = m = 2). Storage is O(N); nothing quadratic in N is
    allocated. :func:`_banded_solve` is its one caller; a regularized
    solve adds its penalty to the chain as an observation
    (:func:`.continuous.tikhonov_approximate`), not to this matrix.
    """
    n, m, N = dae.state_dim, dae.equation_dim, dae.horizon
    s = n + m
    dim = (N + 1) * s
    kl, ku = (n + 2 * m - 1, 2 * n + m - 1) if N else (s - 1, s - 1)
    band = np.zeros((2 * kl + ku + 1, dim), order="F")

    F = dae.F_seq
    _, W = observation_information(dae.H_seq, bounds.Q2_seq)
    G = np.empty((N + 1, m, m))
    G[0] = dae.S @ spd_solve(bounds.Q0, dae.S.T)
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
    return HorizonSaddle(factor_banded(band, kl, ku), n, m)


def _stacked_inputs(dae: DiscreteDAE, ell_seq: Sequence, y_seq) -> tuple:
    """Validated functional and observations, flat and per step."""
    n, l, N = dae.state_dim, dae.observation_dim, dae.horizon
    ell = stack_functional(dae, ell_seq)
    y = stack_observations(dae, y_seq) if y_seq is not None else None
    return ell, y, ell.reshape(N + 1, n), (y.reshape(N + 1, l) if y is not None else None)


def _banded_solve(dae, bounds, adjoint):
    """x-blocks of the saddle solutions for the given adjoint right-hand
    sides, or None when the band factorization is not trusted; plus the
    solver record either way."""
    saddle = horizon_saddle(dae, bounds)
    factor = saddle.factor
    solution = factor.solve(saddle.rhs(adjoint))
    if solution is None:
        return None, solver_record("dense", factor.rcond, factor.floor)
    return saddle.states(solution), solver_record("banded", factor.rcond, factor.floor)


def variational_estimate(
    dae: DiscreteDAE, bounds: DAEEllipsoid, ell_seq: Sequence, y_seq: Sequence
) -> TrajectoryEstimate:
    """Chebyshev-center estimate of sum_k (ell_k, x_k) over the horizon.

    Solves the saddle system twice on one band factorization: with the
    data H_k'Q2_k y_k for the center x_hat, and with ell_k for the a
    priori direction p. The radius is sqrt(slack) * sqrt((ell, p)) as in
    :func:`.static.aposteriori_estimate`. A regular saddle matrix has
    ker F ∩ ker H = {0}, so every functional is representable there.
    When the band factorization is not trusted, the flattened model goes
    to the dense static solver, which decides representability itself.
    """
    _check_bounds(dae, bounds)
    ell, y, ells, ys = _stacked_inputs(dae, ell_seq, y_seq)
    H = dae.H_seq
    q2y = np.einsum("kij,kj->ki", bounds.Q2_seq, ys)
    data = np.einsum("kji,kj->ki", H, q2y)
    states, solver = _banded_solve(dae, bounds, np.stack([data, ells]))
    if states is None:
        return _dense_variational(dae, bounds, ell, y, solver)

    x_seq, p_seq = states
    slack = 1.0 - float(np.sum((ys - np.einsum("kij,kj->ki", H, x_seq)) * q2y))
    if slack < -NEGATIVE_FLOOR:
        raise InconsistentData(
            f"observations are inconsistent with the disturbance bound "
            f"(energy overshoot {-slack:.3e})"
        )
    sigma_sq = max(float(np.sum(ells * p_seq)), 0.0)
    return TrajectoryEstimate(
        feasible=True,
        sigma_hat=math.sqrt(max(slack, 0.0)) * math.sqrt(sigma_sq),
        estimate_value=float(np.sum(ells * x_seq)),
        x_hat_seq=x_seq,
        p_seq=p_seq,
        solver=solver,
    )


def _dense_variational(dae, bounds, ell, y, solver) -> TrajectoryEstimate:
    model = flatten(dae)
    static_bounds = flatten_bounds(dae, bounds)
    report = aposteriori_estimate(model, static_bounds, ell, y)
    n, N = dae.state_dim, dae.horizon
    return TrajectoryEstimate(
        feasible=report.feasible,
        sigma_hat=report.sigma_hat,
        estimate_value=report.estimate_value,
        x_hat_seq=report.x_hat.reshape(N + 1, n),
        p_seq=report.p.reshape(N + 1, n) if report.p is not None else None,
        solver=solver,
    )


def apriori_horizon_estimate(
    dae: DiscreteDAE,
    bounds: DAEEllipsoid,
    ell_seq: Sequence,
    y_seq: Optional[Sequence] = None,
) -> HorizonApriori:
    """Minimax linear readout of sum_k (ell_k, x_k) chosen before data.

    One banded solve with right-hand side ell gives p; the readout is
    u_hat_k = Q2_k H_k p_k and its worst-case mean-squared error (ell, p).
    When the band factorization is not trusted, the flattened model goes
    to :func:`.static.apriori_estimate`. With ``y_seq`` the readout is
    applied to the data as ``estimate_value``.
    """
    _check_bounds(dae, bounds)
    ell, y, ells, ys = _stacked_inputs(dae, ell_seq, y_seq)
    states, solver = _banded_solve(dae, bounds, ells[None])
    n, l, N = dae.state_dim, dae.observation_dim, dae.horizon
    if states is None:
        report = apriori_estimate(
            flatten(dae), flatten_bounds(dae, bounds), ell, y
        )
        if not report.feasible:
            return HorizonApriori(feasible=False, sigma_hat=math.inf, solver=solver)
        return HorizonApriori(
            feasible=True,
            sigma_hat=report.sigma_hat,
            u_hat_seq=report.u_hat.reshape(N + 1, l),
            p_seq=report.p.reshape(N + 1, n),
            estimate_value=report.estimate_value,
            solver=solver,
        )

    p_seq = states[0]
    sigma_sq = float(np.sum(ells * p_seq))
    if sigma_sq < -NEGATIVE_FLOOR * (float(ell @ ell) + 1.0):
        raise NumericalBreakdown(
            f"worst-case mean-squared error came out negative ({sigma_sq:.3e})"
        )
    hp = np.einsum("kij,kj->ki", dae.H_seq, p_seq)
    u_seq = np.einsum("kij,kj->ki", bounds.Q2_seq, hp)
    return HorizonApriori(
        feasible=True,
        sigma_hat=max(sigma_sq, 0.0),
        u_hat_seq=u_seq,
        p_seq=p_seq,
        estimate_value=float(np.sum(u_seq * ys)) if ys is not None else None,
        solver=solver,
    )
