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

:func:`filter_run` walks the horizon in blocks of ``_BLOCK`` steps.
Within a block only the two inversions of each step, D_k and P_k, run
one step at a time. The block's checks (one batched eigvalsh over its
propagated covariances, one over its information matrices), its gains
G_k = P_k F_k' D_k C_{k-1} and its terms b_k = P_k H_k'Q2_k y_k are each
one batched call, and the centers follow from the data recursion
x_k = G_k x_{k-1} + b_k. Memory beyond the outputs is O(_BLOCK n^2).
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

# Steps per block: the covariance recursion runs one step at a time, the
# checks, the gains and the center update once per block.
_BLOCK = 64


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


def _check_block(start: int, inner: np.ndarray, info: np.ndarray) -> None:
    """Raise the verdict of the first failing step among start, start + 1, ...

    ``inner[i]`` is Q1^{-1} + C P C' and ``info[i]`` is F'DF + W at step
    start + i. Step 0 absorbs no transition, so its ``inner`` is not
    judged, and ``info`` ends one step early where inverting the last
    ``inner`` failed. At each step the propagated covariance is judged
    before the information matrix, each by one batched eigvalsh for the
    block. Should LAPACK fail on some entry, which is then non-finite, the
    steps are judged one at a time, so that a failing step before it
    still raises its own verdict.
    """
    try:
        low = np.linalg.eigvalsh(inner)[:, 0]
        if start == 0:
            low[0] = np.inf
        broken = low < BREAKDOWN_EIG_FLOOR
        stop = int(np.argmax(broken)) if broken.any() else len(inner)
        eigs = np.linalg.eigvalsh(info[:stop])
    except np.linalg.LinAlgError:
        if len(inner) < 2:
            raise
        for i in range(len(inner)):
            _check_block(start + i, inner[i : i + 1], info[i : i + 1])
        raise
    singular = eigs[:, 0] <= DEFAULT_TOL * np.maximum(eigs[:, -1], 1.0)
    if singular.any():
        raise RankDeficient(
            f"information matrix at step {start + int(np.argmax(singular))} is "
            f"singular; the rank precondition on [F_k; H_k] fails"
        )
    if stop < len(inner):
        raise NumericalBreakdown(
            f"propagated covariance at step {start + stop} has eigenvalue "
            f"{low[stop]:.3e} below {BREAKDOWN_EIG_FLOOR}"
        )


def _filter_block(model: FilterModel, start: int, P, x, Y: np.ndarray, out: np.ndarray):
    """Steps start .. start + len(Y) - 1 of the filter; returns P at the last one.

    (P, x) is the state at step start - 1, unused at step 0. Only the two
    inversions of each step, which need the step before, run one step at
    a time; their operands go into (B, ., .) buffers. Then
    :func:`_check_block` judges the block, one batched product forms the
    gains G_k = P_k F_k' D_k C_{k-1} and the terms b_k = P_k H_k'Q2_k y_k,
    and the centers x_k = G_k x_{k-1} + b_k are written into ``out``.
    """
    count = len(Y)
    stop = start + count
    F, W = model.F[start:stop], model.W[start:stop]
    m, n = F.shape[1:]
    first = 1 if start == 0 else 0  # step 0 absorbs no transition: D_0 = q0
    C = model.C[start + first - 1 : stop - 1]
    q1_inv = model.q1_inv[start + first - 1 : stop - 1]
    inner = np.zeros((count, m, m))  # step 0's row stays 0 but is passed to eigvalsh
    D = np.empty((count, m, m))
    info = np.empty((count, n, n))
    Ps = np.empty((count, n, n))
    if first:
        d = D[0] = model.q0
    formed = 0
    # steps after a failing one may overflow before the block is judged
    with np.errstate(all="ignore"):
        try:
            for i in range(count):
                if i >= first:
                    c = C[i - first]
                    a = inner[i] = symmetrize(q1_inv[i - first] + c @ P @ c.T)
                    d = D[i] = symmetrize(np.linalg.inv(a))
                f = F[i]
                a = info[i] = symmetrize(f.T @ d @ f + W[i])
                formed = i + 1
                P = Ps[i] = symmetrize(np.linalg.inv(a))
        except np.linalg.LinAlgError:
            _check_block(start, inner[: i + 1], info[:formed])
            raise
    _check_block(start, inner, info)

    G = np.zeros((count, n, n))
    G[first:] = Ps[first:] @ (np.swapaxes(F[first:], 1, 2) @ (D[first:] @ C))
    b = (Ps @ (model.HtQ2[start:stop] @ Y[:, :, None]))[:, :, 0]
    if first:
        x = np.zeros(n)
    for i in range(count):
        x = out[i] = G[i] @ x + b[i]
    return P


def filter_init(model: FilterModel, y0) -> FilterState:
    """State after absorbing the initial constraint and the first observation.

    P_0 = (F_0' Q0 F_0 + H_0' Q2_0 H_0)^{-1}
    x_hat_0 = P_0 H_0' Q2_0 y_0
    """
    y0 = sized_vector(y0, "y0", model.observation_dim)
    x = np.empty((1, model.F.shape[2]))
    P = _filter_block(model, 0, None, None, y0[None], x)
    return FilterState(k=0, x_hat=x[0], P=P)


def filter_step(state: FilterState, model: FilterModel, y_next) -> FilterState:
    """Advance the filter by one transition and one observation.

    With D = (Q1_{k-1}^{-1} + C_{k-1} P_{k-1} C_{k-1}')^{-1},

        P_k     = (F_k' D F_k + H_k' Q2_k H_k)^{-1}
        x_hat_k = P_k (F_k' D C_{k-1} x_hat_{k-1} + H_k' Q2_k y_k).

    D blends the fresh process uncertainty with the propagated shape of
    the previous estimate; the outer inversion is the usual information
    update against the new observation. Q1^{-1} (with B folded in),
    H'Q2H and H'Q2 come precomputed from :func:`prepare_filter`. This is
    a block of one step of the routine that :func:`filter_run` runs.
    """
    k = state.k + 1
    if k > model.horizon:
        raise InvalidInput(f"step {k} exceeds horizon {model.horizon}")
    y = sized_vector(y_next, "y_next", model.observation_dim)
    x = np.empty((1, model.F.shape[2]))
    P = _filter_block(model, k, state.P, state.x_hat, y[None], x)
    return FilterState(k=k, x_hat=x[0], P=P)


def _observation_stack(y_seq, size: int) -> np.ndarray:
    """``y_seq`` as one (count, size) finite array: one conversion, one test.

    Only when that test fails are the rows scanned, to name the first bad
    one (``y_seq[17] has length 3, expected 2``).
    """
    try:
        Y = np.asarray(y_seq, dtype=float)
        if Y.shape == (len(y_seq), size) and np.isfinite(Y).all():
            return Y
    except (TypeError, ValueError):
        pass
    return np.array([sized_vector(y, f"y_seq[{k}]", size) for k, y in enumerate(y_seq)])


def filter_run(
    dae: DiscreteDAE, bounds: DAEEllipsoid, y_seq: Sequence, ell
) -> FilterRunResult:
    """Run the filter across the horizon and read out (ell, x_N).

    Returns the terminal readout, its radius sqrt(ell' P_N ell), the
    final state and the filtered centers at every step. Note
    the intermediate x_hat_k use only y_0 .. y_k; they match the batch
    center of the truncated problem, not of the full horizon. The steps
    run in blocks of ``_BLOCK``, so beyond its outputs the run holds
    O(_BLOCK n^2) memory.
    """
    count = dae.horizon + 1
    if len(y_seq) != count:
        raise InvalidInput(f"expected {count} observation vectors, got {len(y_seq)}")
    ell = sized_vector(ell, "ell", dae.state_dim)
    model = prepare_filter(dae, bounds)
    Y = _observation_stack(y_seq, model.observation_dim)
    x_seq = np.empty((count, dae.state_dim))
    P = None
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        P = _filter_block(model, start, P, x_seq[start - 1], Y[start:stop], x_seq[start:stop])
    final = FilterState(k=dae.horizon, x_hat=x_seq[-1].copy(), P=P)
    return FilterRunResult(
        estimate_value=float(ell @ final.x_hat),
        sigma_hat=math.sqrt(max(float(ell @ (P @ ell)), 0.0)),
        final=final,
        x_hat_seq=x_seq,
    )
