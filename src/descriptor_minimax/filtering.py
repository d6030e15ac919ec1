"""Recursive information filter for discrete descriptor systems.

Under a rank precondition the Chebyshev-center trajectory of
:func:`descriptor_minimax.discrete.variational_estimate` can be produced
one step at a time. The filter propagates the pair (x_hat_k, P_k), where
P_k is the k-th diagonal block of the inverse of the full-horizon
information matrix, so terminal functionals satisfy

    sigma_hat(ell)^2 = ell' P_N ell        (a priori radius at step N)

and x_hat_k equals the k-th block of the batch center restricted to the
data seen so far.

The recursion assumes each transition injects its process disturbance
directly, B_k = I. A square invertible B_k (and S) is reduced to that
case by re-weighting: f' = B f carries energy (Q' f', f') with
Q' = B^{-T} Q1 B^{-1}, and the initial row likewise absorbs S into Q0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete import DAEEllipsoid, DiscreteDAE, _check_bounds, observation_information
from .errors import InvalidInput, NumericalBreakdown, RankDeficient
from .linalg import (
    BREAKDOWN_EIG_FLOOR,
    DEFAULT_TOL,
    per_entry,
    sized_vector,
    symmetrize,
)


@dataclass(frozen=True)
class FilterState:
    """Filtered center and uncertainty shape after absorbing y_0 .. y_k."""

    k: int
    x_hat: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class FilterRunResult:
    """Terminal readout (ell, x_N) with its radius sqrt(ell' P_N ell)."""

    estimate_value: float
    sigma_hat: float
    final: FilterState
    x_hat_seq: np.ndarray


def _full_column_rank(F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Per step, whether [F_k; H_k] has full column rank: one batched SVD."""
    stacked = np.concatenate([F, H], axis=1)
    count, rows, cols = stacked.shape
    if rows < cols:
        return np.zeros(count, dtype=bool)
    if cols == 0:
        return np.ones(count, dtype=bool)
    s = np.linalg.svd(stacked, compute_uv=False)
    return s[:, -1] > DEFAULT_TOL * s[:, 0]


def rank_precondition(F_k, H_k) -> bool:
    """Whether the stacked matrix [F_k; H_k] has full column rank.

    This is what makes each filtered information matrix invertible, so
    the recursion can hand a finite P_k to the next step.
    """
    F = np.atleast_2d(np.asarray(F_k, dtype=float))
    H = np.atleast_2d(np.asarray(H_k, dtype=float))
    return bool(_full_column_rank(F[None], H[None])[0])


def _fold_weights(B: np.ndarray, Q: np.ndarray, label: str) -> np.ndarray:
    """Inverse effective weights B Q^{-1} B' of disturbances entering through B.

    Per entry, f' = B f carries energy (Q' f', f') with Q' = B^{-T} Q B^{-1},
    whose inverse is B Q^{-1} B'. Raises InvalidInput naming the first
    entry k, as ``label.format(k)``, whose B is not square invertible.
    """
    count, m, p = B.shape
    invertible = _full_column_rank(B, B[:, :0]) if m == p else np.zeros(count, dtype=bool)
    if not invertible.all():
        raise InvalidInput(f"{label.format(np.argmin(invertible))} is not square invertible")
    return symmetrize(B @ np.linalg.solve(Q, np.swapaxes(B, 1, 2)))


@dataclass(frozen=True)
class FilterModel:
    """Model-only terms of the filter, computed once for all steps.

    ``q0`` is the initial weight with S folded in, S^{-T} Q0 S^{-1}, and
    ``q1_inv[k]`` the inverse of the effective weight of transition k,
    B_k Q1_k^{-1} B_k'. ``W[k]`` is H_k'Q2_kH_k and ``HtQ2[k]`` is
    H_k'Q2_k, which maps y_k to its information. Only
    :func:`prepare_filter` builds one, so every model check has passed.
    """

    F: np.ndarray
    C: np.ndarray
    q0: np.ndarray
    q1_inv: np.ndarray
    W: np.ndarray
    HtQ2: np.ndarray

    @property
    def horizon(self) -> int:
        return self.F.shape[0] - 1

    @property
    def observation_dim(self) -> int:
        return self.HtQ2.shape[2]


def prepare_filter(dae: DiscreteDAE, bounds: DAEEllipsoid) -> FilterModel:
    """Everything the filter needs that does not depend on the data.

    Every model check runs here, before the first step, and the first
    failure raises at once, in this order: the rank precondition on
    [F_k; H_k] for every k by one batched SVD (RankDeficient naming
    ``[F_k; H_k]``), then S, then the B_k, each square invertible
    (InvalidInput naming ``S`` or ``B_k``). S and the B_k are folded into
    effective weights in batched form. The recursion of
    :func:`filter_init` and :func:`filter_step` then only reads these
    arrays.
    """
    _check_bounds(dae, bounds)
    full_rank = per_entry(_full_column_rank, dae.F_seq, dae.H_seq)
    if not full_rank.all():
        k = int(np.argmin(full_rank))
        raise RankDeficient(f"[F_{k}; H_{k}] does not have full column rank")
    s_inv = _fold_weights(dae.S[None], bounds.Q0[None], "S")[0]
    q1_inv = per_entry(lambda B, Q: _fold_weights(B, Q, "B_{}"), dae.B_seq, bounds.Q1_seq)
    HtQ2, W = per_entry(observation_information, dae.H_seq, bounds.Q2_seq)
    return FilterModel(
        F=dae.F_seq,
        C=dae.C_seq,
        q0=symmetrize(np.linalg.inv(s_inv)),
        q1_inv=q1_inv,
        W=W,
        HtQ2=HtQ2,
    )


def _invert_information(info: np.ndarray, k: int) -> np.ndarray:
    info = symmetrize(info)
    eigs = np.linalg.eigvalsh(info)
    scale = max(float(eigs[-1]), 1.0)
    if eigs[0] <= DEFAULT_TOL * scale:
        raise RankDeficient(
            f"information matrix at step {k} is singular; the rank "
            f"precondition on [F_k; H_k] fails"
        )
    return symmetrize(np.linalg.inv(info))


def filter_init(model: FilterModel, y0) -> FilterState:
    """State after absorbing the initial constraint and the first observation.

    P_0 = (F_0' Q0 F_0 + H_0' Q2_0 H_0)^{-1}
    x_hat_0 = P_0 H_0' Q2_0 y_0
    """
    y0 = sized_vector(y0, "y0", model.observation_dim)
    F0 = model.F[0]
    P = _invert_information(F0.T @ model.q0 @ F0 + model.W[0], 0)
    return FilterState(k=0, x_hat=P @ (model.HtQ2[0] @ y0), P=P)


def filter_step(state: FilterState, model: FilterModel, y_next) -> FilterState:
    """Advance the filter by one transition and one observation.

    With D = (Q1_{k-1}^{-1} + C_{k-1} P_{k-1} C_{k-1}')^{-1},

        P_k     = (F_k' D F_k + H_k' Q2_k H_k)^{-1}
        x_hat_k = P_k (F_k' D C_{k-1} x_hat_{k-1} + H_k' Q2_k y_k).

    D blends the fresh process uncertainty with the propagated shape of
    the previous estimate; the outer inversion is the usual information
    update against the new observation. Q1^{-1} (with B folded in),
    H'Q2H and H'Q2 come precomputed from :func:`prepare_filter`.
    """
    k = state.k + 1
    if k > model.horizon:
        raise InvalidInput(f"step {k} exceeds horizon {model.horizon}")
    y = sized_vector(y_next, "y_next", model.observation_dim)
    C_prev = model.C[k - 1]
    inner = symmetrize(model.q1_inv[k - 1] + C_prev @ state.P @ C_prev.T)
    inner_eigs = np.linalg.eigvalsh(inner)
    if inner_eigs[0] < BREAKDOWN_EIG_FLOOR:
        raise NumericalBreakdown(
            f"propagated covariance at step {k} has eigenvalue "
            f"{inner_eigs[0]:.3e} below {BREAKDOWN_EIG_FLOOR}"
        )
    D = symmetrize(np.linalg.inv(inner))
    F_k = model.F[k]
    P = _invert_information(F_k.T @ D @ F_k + model.W[k], k)
    x = P @ (F_k.T @ (D @ (C_prev @ state.x_hat)) + model.HtQ2[k] @ y)
    return FilterState(k=k, x_hat=x, P=P)


def filter_run(
    dae: DiscreteDAE, bounds: DAEEllipsoid, y_seq: Sequence, ell
) -> FilterRunResult:
    """Run the filter across the horizon and read out (ell, x_N).

    Returns the terminal readout, its radius sqrt(ell' P_N ell), the
    final state and the filtered centers at every step. Note
    the intermediate x_hat_k use only y_0 .. y_k; they match the batch
    center of the truncated problem, not of the full horizon.
    """
    if len(y_seq) != dae.horizon + 1:
        raise InvalidInput(
            f"expected {dae.horizon + 1} observation vectors, got {len(y_seq)}"
        )
    ell = sized_vector(ell, "ell", dae.state_dim)
    model = prepare_filter(dae, bounds)
    state = filter_init(model, y_seq[0])
    x_seq = np.empty((dae.horizon + 1, dae.state_dim))
    x_seq[0] = state.x_hat
    for k in range(1, dae.horizon + 1):
        state = filter_step(state, model, y_seq[k])
        x_seq[k] = state.x_hat
    return FilterRunResult(
        estimate_value=float(ell @ state.x_hat),
        sigma_hat=math.sqrt(max(float(ell @ (state.P @ ell)), 0.0)),
        final=state,
        x_hat_seq=x_seq,
    )
