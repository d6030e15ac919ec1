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

:func:`filter_run` has two paths, and its ``solver`` record names the
one it took.

* **Information sweep** (``"information"``). The filtered centers are
  the forward half of a banded Cholesky factor of the block-tridiagonal
  information matrix A = Phi'G^{-1}Phi + H'Q2H of the whole horizon;
  the back half would be the Rauch-Tung-Striebel smoother (AIAA J.
  3(8), 1965). :func:`_information_sweep` factors A in blocks whose band
  holds about ``_BAND_ENTRIES`` entries, one LAPACK dpbtrf and one
  dtbtrs per block, with no Python loop over steps. It is kept only
  when every G_k = B_k Q1_k^{-1} B_k' has smallest eigenvalue at least
  BREAKDOWN_EIG_FLOOR, every block's reciprocal condition estimate and
  the rounding figure of every filtered information matrix reach
  INFORMATION_RCOND_FLOOR, and every filtered information matrix passes
  the recursion's DEFAULT_TOL test. Well-conditioned chains take it;
  since forming G^{-1} squares cond(B_k), chains with ill-conditioned
  B_k do not.
* **Recursion** (``"recursive"``). Otherwise the run starts again in
  blocks of ``_BLOCK`` steps. Within a block only the two inversions of
  each step, D_k and P_k, run one step at a time. The block's checks
  (one batched eigvalsh over its propagated covariances, one over its
  information matrices), its gains G_k = P_k F_k' D_k C_{k-1} and its
  terms b_k = P_k H_k'Q2_k y_k are each one batched call, and the
  centers follow from the data recursion x_k = G_k x_{k-1} + b_k.
  :func:`filter_init` and :func:`filter_step` run the same routine on a
  block of one step.

Only the recursion raises errors, so a chain the sweep turns down gets
the recursion's verdict, message and failing step. Beyond its outputs
and the per-step model arrays, either path holds O(block) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .discrete import (
    DAEEllipsoid,
    DiscreteDAE,
    _check_bounds,
    observation_information,
    solver_record,
)
from .errors import InvalidInput, NumericalBreakdown, RankDeficient
from .linalg import (
    BREAKDOWN_EIG_FLOOR,
    DEFAULT_TOL,
    INFORMATION_RCOND_FLOOR,
    factor_spd_banded,
    per_entry,
    sized_vector,
    symmetrize,
    vector_stack,
)

# Steps per block: the covariance recursion runs one step at a time, the
# checks, the gains and the center update once per block.
_BLOCK = 64
# Information sweep: each block's band of A holds about this many entries,
# which bounds its memory at any horizon (one block at n=2 and N=10^4, 64
# steps at n=32).
_BAND_ENTRIES = 2**17


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
    solver: dict


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


def _singular(eigs: np.ndarray) -> np.ndarray:
    """Per information matrix, from its ascending eigenvalues, whether it
    is singular: its least eigenvalue is at most DEFAULT_TOL times the
    larger of its greatest and 1."""
    return eigs[:, 0] <= DEFAULT_TOL * np.maximum(eigs[:, -1], 1.0)


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
    singular = _singular(eigs)
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


def _information(F: np.ndarray, g_inv: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per step, F_k'G_{k-1}^{-1}F_k + W_k: the information of step k
    given x_{k-1}."""
    return symmetrize(np.swapaxes(F, 1, 2) @ g_inv @ F + W)


def _coupling(C: np.ndarray, g_inv: np.ndarray, F_next: np.ndarray) -> tuple:
    """Per transition k, C_k'G_k^{-1}C_k (added to A's diagonal block k)
    and A's block (k, k+1), -C_k'G_k^{-1}F_{k+1}."""
    CtG = np.swapaxes(C, 1, 2) @ g_inv
    return symmetrize(CtG @ C), -(CtG @ F_next)


def _norm1(M: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the 1-norm (largest column sum of |M|)."""
    return np.abs(M).sum(axis=1).max(axis=1)


def _information_steps(n: int) -> int:
    """Steps per block of the information sweep: a block's band holds 2n
    rows of n entries per step, about _BAND_ENTRIES in all."""
    return max(1, _BAND_ENTRIES // (2 * n * n))


def _information_sweep(model: FilterModel, Y: np.ndarray, out):
    """The filter as the forward half of a banded Cholesky factor of A.

    A = Phi'G^{-1}Phi + H'Q2H is the block-tridiagonal information matrix
    of the whole horizon, A = R'R with R upper block-bidiagonal. Writing
    U_k = R_{k-1,k} and solving R'z = b for b_k = H_k'Q2_k y_k, the filtered
    information and center of step k are

        J_k = F_k'G_{k-1}^{-1}F_k + W_k - U_k'U_k,
        x_hat_k = J_k^{-1} (b_k - U_k' z_{k-1}),

    and P_N = J_N^{-1}. G_k^{-1} is the inverse of ``model.q1_inv[k]``,
    formed once for a constant model. The horizon is factored in blocks of
    :func:`_information_steps` by :func:`_information_block`; only U and z
    of a block's last step carry into the next, so beyond the outputs and
    the per-step model arrays memory is O(block).

    The centers go into ``out``. Returns (P_N, rcond), where rcond is the
    smallest figure judged over the blocks factored (None if none was).
    P_N is None, and ``out`` partly written, unless every lambda_min(G_k)
    reaches BREAKDOWN_EIG_FLOOR, every block's reciprocal condition
    estimate and every 1/((||T_k|| + ||U_k'U_k||) ||J_k^-1||), with T_k
    = F_k'G_{k-1}^{-1}F_k + W_k, reach INFORMATION_RCOND_FLOOR, and every
    J_k passes the test of :func:`_singular`.
    """
    N, n = model.horizon, model.F.shape[2]
    rcond = P = None
    # a model the recursion rejects may overflow here; the checks catch it
    with np.errstate(all="ignore"):
        g_low = per_entry(lambda G: np.linalg.eigvalsh(G)[:, 0], model.q1_inv)
        if not (g_low >= BREAKDOWN_EIG_FLOOR).all():
            return None, None
        g_inv = per_entry(lambda G: symmetrize(np.linalg.inv(G)), model.q1_inv)
        carry = (np.zeros((n, n)), np.zeros(n))
        steps = _information_steps(n)
        for start in range(0, N + 1, steps):
            stop = min(start + steps, N + 1)
            block_rcond, P, carry = _information_block(model, g_inv, start, stop, Y, out, carry)
            rcond = block_rcond if rcond is None else min(rcond, block_rcond)
            if P is None:
                break
    return P, rcond


def _information_block(model: FilterModel, g_inv, start: int, stop: int, Y, out, carry) -> tuple:
    """Steps start .. stop - 1 of :func:`_information_sweep`.

    ``carry`` is (U_start, z_{start-1}), zeros at step 0. Forms the block's
    band of A, its first diagonal block reduced by U_start'U_start,
    factors it by one dpbtrf (:func:`.linalg.factor_spd_banded`), solves for
    z by one dtbtrs and writes the centers into ``out``. Returns (rcond,
    P, carry): rcond is the smallest figure judged, P is P_{stop-1}, or
    None when the block fails a check, and ``carry`` is (U_stop,
    z_{stop-1}) for the next block.
    """
    N, n = model.horizon, model.F.shape[2]
    count, last = stop - start, min(stop, N)  # transitions start .. last - 1
    U, z_before = carry
    lo = max(start, 1)
    T = per_entry(_information, model.F[lo:stop], g_inv[lo - 1 : stop - 1], model.W[lo:stop])
    if start == 0:
        T = np.concatenate([_information(model.F[:1], model.q0[None], model.W[:1]), T])
    F_next = model.F[start + 1 : last + 1]
    Cn, off = per_entry(_coupling, model.C[start:last], g_inv[start:last], F_next)
    inner = off[: count - 1]
    UtU = np.empty((count, n, n))  # U_k'U_k
    UtU[0] = U.T @ U
    diag = np.array(T)  # A's diagonal blocks, the first reduced by the blocks before
    diag[0] -= UtU[0]
    diag[: last - start] += Cn
    # The band, column by column: cols[i, c, r] = A[i n + c + r - 2n + 1, i n + c],
    # so rows r = n - 1 + a - c hold block (i - 1, i) and rows r = 2n - 1 + a - c,
    # a <= c, the upper triangle of block (i, i).
    cols = np.zeros((count, n, 2 * n))
    for c in range(n):
        cols[:, c, 2 * n - 1 - c :] = diag[:, : c + 1, c]
        cols[1:, c, n - 1 - c : 2 * n - 1 - c] = inner[:, :, c]
    column = np.abs(diag).sum(axis=1)
    column[1:] += np.abs(inner).sum(axis=1)
    column[:-1] += np.abs(inner).sum(axis=2)
    R, rcond = factor_spd_banded(cols.reshape(count * n, 2 * n).T, float(column.max()))
    if not rcond >= INFORMATION_RCOND_FLOOR:
        return rcond, None, None
    b = (model.HtQ2[start:stop] @ Y[start:stop, :, None])[:, :, 0]
    b[0] -= U.T @ z_before
    z = lapack.dtbtrs(R, b.reshape(-1, 1), trans="T")[0].reshape(count, n)
    cols = R.T.reshape(count, n, 2 * n)
    Ut = np.empty((count - 1, n, n))  # Ut[i - 1] = R_{i-1,i}'
    for c in range(n):
        Ut[:, c] = cols[1:, c, n - 1 - c : 2 * n - 1 - c]
    UtU[1:] = Ut @ np.ascontiguousarray(np.swapaxes(Ut, 1, 2))
    J = symmetrize(T - UtU)
    try:
        P = np.linalg.inv(J)
    except np.linalg.LinAlgError:  # some J_k is exactly singular
        return 0.0, None, None
    norm_J, norm_P = _norm1(J), _norm1(P)
    # J_k is a difference: (||T_k|| + ||U_k'U_k||) ||J_k^-1|| amplifies the
    # rounding in its terms, which a short block's estimate of A misses
    amplification = float(((_norm1(T) + _norm1(UtU)) * norm_P).max())
    rcond = min(rcond, 1.0 / amplification if amplification < np.inf else 0.0)
    if not rcond >= INFORMATION_RCOND_FLOOR:
        return rcond, None, None
    # lambda_max(J) <= ||J||_1 and lambda_min(J) >= 1/||P||_1 pass most J
    # through _singular's test; eigvalsh decides the rest
    unsure = ~(norm_P * DEFAULT_TOL * np.maximum(norm_J, 1.0) < 1.0)
    if _singular(np.linalg.eigvalsh(J[unsure])).any():
        return rcond, None, None
    b[1:] -= (Ut @ z[:-1, :, None])[:, :, 0]
    out[start:stop] = (P @ b[:, :, None])[:, :, 0]
    if stop <= N:
        pivot = np.zeros((n, n))  # R_{stop-1,stop-1}
        for c in range(n):
            pivot[: c + 1, c] = cols[-1, c, 2 * n - 1 - c :]
        U = scipy.linalg.solve_triangular(pivot, off[-1], trans="T", check_finite=False)
    return rcond, symmetrize(P[-1]), (U, z[-1])


def filter_run(
    dae: DiscreteDAE, bounds: DAEEllipsoid, y_seq: Sequence, ell
) -> FilterRunResult:
    """Run the filter across the horizon and read out (ell, x_N).

    Returns the terminal readout, its radius sqrt(ell' P_N ell), the
    final state, the filtered centers at every step and the ``solver``
    record (:func:`.discrete.solver_record`) of the path taken. Note
    the intermediate x_hat_k use only y_0 .. y_k; they match the batch
    center of the truncated problem, not of the full horizon.

    The run first tries :func:`_information_sweep`. When one of its
    checks fails, it restarts on the recursion of :func:`_filter_block`
    in blocks of ``_BLOCK`` steps, which alone decides every error.
    """
    count = dae.horizon + 1
    Y = vector_stack(y_seq, "y_seq", count, dae.observation_dim, "observation vectors")
    ell = sized_vector(ell, "ell", dae.state_dim)
    model = prepare_filter(dae, bounds)
    x_seq = np.empty((count, dae.state_dim))
    P, rcond = _information_sweep(model, Y, x_seq)
    path = "information"
    if P is None:
        path = "recursive"
        for start in range(0, count, _BLOCK):
            stop = min(start + _BLOCK, count)
            P = _filter_block(model, start, P, x_seq[start - 1], Y[start:stop], x_seq[start:stop])
    final = FilterState(k=dae.horizon, x_hat=x_seq[-1].copy(), P=P)
    return FilterRunResult(
        estimate_value=float(ell @ final.x_hat),
        sigma_hat=math.sqrt(max(float(ell @ (P @ ell)), 0.0)),
        final=final,
        x_hat_seq=x_seq,
        solver=solver_record(path, rcond, INFORMATION_RCOND_FLOOR),
    )
