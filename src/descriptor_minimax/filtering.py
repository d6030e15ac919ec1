"""Recursive information filter for discrete descriptor systems.

The Chebyshev-center trajectory of
:func:`descriptor_minimax.discrete.variational_estimate` can be produced
one step at a time when every filtered information matrix J_k is
invertible; with S and every B_k square invertible, that is when every
[F_k; H_k] has full column rank. The filter yields the pair
(x_hat_k, P_k), where P_k is the k-th diagonal block of the inverse of
the full-horizon information matrix, and x_hat_k equals the k-th block of
the batch center restricted to the data seen so far. With beta_k the least
energy of a trajectory that explains y_0 .. y_k, terminal functionals
satisfy

    radius(ell) = sqrt(1 - beta_N) sqrt(ell' P_N ell),

the attained radius, as in :func:`.discrete.variational_estimate`; data
with beta_k > 1 (beyond NEGATIVE_FLOOR) at some step are inconsistent.

Both paths solve one least-squares problem. :func:`prepare_filter`
whitens every row of it once: with L_0 = chol(Q0)'S^{-1},
L_k = chol(Q1_k)'B_k^{-1} (each by one solve, so no inverse weight is
formed) and V_k = chol(Q2_k)', the energy of a trajectory is

    ||L_0F_0x_0||^2 + sum_k ||L_k(F_{k+1}x_{k+1} - C_kx_k)||^2
                    + sum_k ||V_k(H_kx_k - y_k)||^2.

:func:`filter_run` has two paths and three outcomes, and its ``solver``
record names the path it took.

* **Information sweep** (``"information"``). The filtered centers are
  the forward half of a banded Cholesky factor of the block-tridiagonal
  information matrix A = Phi'G^{-1}Phi + H'Q2H of the whole horizon,
  formed from the whitened rows (G_k^{-1} = L_k'L_k); the back half
  would be the Rauch-Tung-Striebel smoother (AIAA J. 3(8), 1965).
  :func:`_information_sweep` factors A in blocks whose band holds about
  ``_BAND_ENTRIES`` entries, one LAPACK dpbtrf and one dtbtrs per block,
  with no Python loop over steps. A block has a model half (the band, its
  factor and the J_k^{-1}) and a data half (the dtbtrs and the centers).
  On a constant chain the carried pivot settles to the steady state of
  the Riccati recursion, and the sweep factors blocks only until one has
  settled. Its tail, the trailing steps whose entry U is within
  STEADY_STATE_TOL of the block's exit U (:func:`_settled`), is the exact
  factor of an interior block; every later block is placed from copies
  of it end to end, each seam coupled by the tail's exit U, and runs its
  data half only. The interior blocks share one placed factor and one
  band estimate; the last block is placed up to step N - 1 and factors
  step N's pivot alone. The ``solver`` record counts the blocks and those
  factored.

  Every filtered information J_k = T_k - U_k'U_k is judged by two
  per-pivot readings (:func:`_pivot_figure`), each held to
  INFORMATION_RCOND_FLOOR. The rank tie reads cond_1(J_k) =
  ||J_k||_1 ||J_k^-1||_1 <= 1/INFORMATION_RCOND_FLOOR = 1e6; the 2-norm of
  a symmetric matrix is at most its 1-norm, so cond_2(J_k) <= 1e6 and
  R_k = chol(J_k) has cond_2(R_k) <= 1e3, inside the QR steps' cutoff
  1/sqrt(DEFAULT_TOL) = 1e5: both paths give every step they reach the
  same rank verdict. The digits reading bounds the amplification of the
  rounding in the subtraction, (||T_k||_1 + ||U_k'U_k||_1) ||J_k^-1||_1,
  unscaled or on the Jacobi-scaled terms, whichever is smaller. A step
  that fails either sends the run to the QR steps.

  Each block's band also gets a reciprocal condition estimate. Forming A
  squares the condition of the whitened rows, so on fine continuous grids
  the estimate falls like h^2 while every J_k passes. Where some block's
  estimate is below INFORMATION_RCOND_FLOOR, :func:`_corrected` takes one
  corrected semi-normal step (Bjorck, Linear Algebra Appl. 88/89, 1987)
  on what the reports read: P_N, the last center x_hat_N and beta_N,
  taken as the residual ||Kx - c||^2 of the whitened rows K and data c
  at the smoothed center x. The ``solver`` record's ``correction`` is the
  step's size ||dP_N||_1 / ||P_N||_1 (None when no step ran); above
  CORRECTION_TOL the QR steps answer instead. So the sweep has two
  outcomes: as it is, where every estimate reaches the floor, and with
  one corrected step. The interior centers and P_k are not corrected:
  they keep the sweep's own error, which grows with 1/estimate. Against
  the QR steps, the interior P_k of the unit scalar problem at M = 1024 to
  16384 were within 4.3e-12 to 3.1e-10, relative, about the step's size,
  and so were its centers. On an index-1 problem (F = diag(1, 0)) at
  M = 8192 the step read 4.9e-14 and the P_k were as close, but the
  centers were 5.9e-10 off, relative to their largest entry.
* **QR steps** (``"recursive"``). Otherwise the run starts again on the
  orthogonal form of the same problem (Paige & Saunders, SIAM J. Numer.
  Anal. 14(2), 1977). With J_k = R_k'R_k and R_k upper triangular, each
  step is one LAPACK dgeqrf of

      [[ R_k,       0,                z_k          ],
       [ -L_kC_k,   L_kF_{k+1},       0            ],
       [ 0,         V_{k+1}H_{k+1},   V_{k+1}y_{k+1} ]],

  whose second block row of the triangular result is [R_{k+1}, z_{k+1}]
  (step 0 is the same with R_{-1} = 0) and whose entry (2n, 2n), e_k,
  is the residual of the data, so beta_k = sum_{j<=k} e_j^2. Per block
  of steps, R_k, z_k and e_k are read where dgeqrf left them, one batched
  SVD judges every R_k and one batched solve gives
  x_hat_k = R_k^{-1}z_k; then P_N = R_N^{-1}R_N^{-T}. J_k is never
  formed. The test on R_k, s_min <= sqrt(DEFAULT_TOL) s_max, is the
  filter's one rank verdict, and it reads no absolute scale.

After :func:`prepare_filter` only the QR steps raise a rank verdict, so
a chain the sweep turns down gets their verdict, message and failing
step. Both paths raise InconsistentData at the first step whose beta_k
exceeds 1; the sweep keeps only blocks whose J_k pass the QR steps' rank
test, so a step it reaches has the same verdict on either path. Beyond
its outputs and the per-step model arrays, either path holds O(block)
memory; the corrected step holds the band factors from the first block
whose estimate is below the floor on, and n + 1 columns per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._lapack import lapack
from .discrete import DAEEllipsoid, DiscreteDAE, _check_bounds
from .errors import InvalidInput, NumericalBreakdown, RankDeficient
from .linalg import (
    CORRECTION_TOL,
    DEFAULT_TOL,
    INFORMATION_RCOND_FLOOR,
    STEADY_STATE_TOL,
    _distinct,
    check_energy,
    factor_spd_banded,
    invertible,
    per_entry,
    sized_vector,
    solve_triangular,
    spd_banded_rcond,
    symmetrize,
    vector_stack,
)
from .static import Estimate, solver_record

# Each block of steps, of either path, holds about this many entries: the
# sweep's band of A (one block at n=2 and N=10^4, 64 steps at n=32), or the
# matrices of the QR steps (14563 steps at n=1, 21 at n=m=l=32).
_BAND_ENTRIES = 2**17


def _whitened(B: np.ndarray, Q: np.ndarray, label: str, *rows: np.ndarray) -> tuple:
    """Each of ``rows`` premultiplied by L = chol(Q)'B^{-1}, per entry.

    A disturbance f with B f = r carries energy (Q f, f) = ||L r||^2. L
    comes from one batched solve B'L' = chol(Q), so no inverse weight is
    formed; when B and Q are both constant, L and the check on B are
    computed once, even where the rows vary (a continuous grid's chain).
    Raises InvalidInput naming the first entry k, as ``label.format(k)``,
    whose B is not square invertible, then NumericalBreakdown naming the
    first whose whitened rows are not finite.
    """
    count, m, p = B.shape
    regular = invertible(B) if m == p else np.zeros(count, dtype=bool)
    if not regular.all():
        raise InvalidInput(f"{label.format(np.argmin(regular))} is not square invertible")
    if count == 0:
        return tuple(np.zeros((0, m, r.shape[2])) for r in rows)

    def whitening(B, Q):
        return np.swapaxes(np.linalg.solve(np.swapaxes(B, 1, 2), np.linalg.cholesky(Q)), 1, 2)

    # a B near the underflow threshold overflows L: the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        L = per_entry(whitening, B, Q)
        out = tuple(L @ r for r in rows)
    finite = np.isfinite(L).all(axis=(1, 2))
    for r in out:
        finite &= np.isfinite(r).all(axis=(1, 2))
    if not finite.all():
        raise NumericalBreakdown(
            f"the whitened weight of {label.format(np.argmin(finite))} is not finite"
        )
    return out


@dataclass(frozen=True)
class FilterModel:
    """Model-only terms of the filter, computed once for all steps.

    These are the whitened rows of the filter's least-squares problem.
    ``LF0`` is L_0F_0, the initial row with L_0 = chol(Q0)'S^{-1};
    ``LF[k]`` and ``LC[k]`` are L_kF_{k+1} and L_kC_k, transition k with
    L_k = chol(Q1_k)'B_k^{-1}; ``V[k]`` is chol(Q2_k)' and ``VH[k]`` is
    V_kH_k. Only :func:`prepare_filter` builds one, so S and every B_k
    have passed its checks.
    """

    LF0: np.ndarray
    LF: np.ndarray
    LC: np.ndarray
    VH: np.ndarray
    V: np.ndarray

    @property
    def horizon(self) -> int:
        return self.VH.shape[0] - 1


def prepare_filter(dae: DiscreteDAE, bounds: DAEEllipsoid) -> FilterModel:
    """Everything the filter needs that does not depend on the data.

    Every check on S and the B_k runs here, before the first step, and
    the first failure raises at once, in this order: S, then the B_k,
    each square invertible (InvalidInput naming ``S`` or ``B_k``) with
    finite whitened rows (NumericalBreakdown naming ``S`` or ``B_k``).
    Rank is not judged here: a singular information matrix raises from
    the QR steps of :func:`filter_run`, at its own step. The rows are
    whitened in batched form, and a constant coefficient stays one
    matrix.
    """
    _check_bounds(dae, bounds)
    (LF0,) = _whitened(dae.S[None], bounds.Q0[None], "S", dae.F_seq[:1])
    LF, LC = per_entry(
        lambda B, Q, F, C: _whitened(B, Q, "B_{}", F, C),
        dae.B_seq,
        bounds.Q1_seq,
        dae.F_seq[1:],
        dae.C_seq,
    )
    V = per_entry(lambda Q: np.swapaxes(np.linalg.cholesky(Q), 1, 2), bounds.Q2_seq)
    return FilterModel(LF0=LF0[0], LF=LF, LC=LC, VH=per_entry(np.matmul, V, dae.H_seq), V=V)


def _block_steps(entries: int) -> int:
    """Steps per block of a path that holds ``entries`` per step: about
    _BAND_ENTRIES in all."""
    return max(1, _BAND_ENTRIES // entries)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per step, a_k'b_k."""
    return np.swapaxes(a, 1, 2) @ b


def _information(LF: np.ndarray, VH: np.ndarray) -> np.ndarray:
    """Per step, F_k'G_{k-1}^{-1}F_k + H_k'Q2_kH_k: the information of
    step k given x_{k-1}."""
    return symmetrize(_gram(LF, LF) + _gram(VH, VH))


def _coupling(LC: np.ndarray, LF_next: np.ndarray) -> tuple:
    """Per transition k, C_k'G_k^{-1}C_k (added to A's diagonal block k)
    and A's block (k, k+1), -C_k'G_k^{-1}F_{k+1}."""
    return symmetrize(_gram(LC, LC)), -_gram(LC, LF_next)


def _norm1(M: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the 1-norm (largest column sum of |M|).

    numpy reduces a short axis slowly, so for small matrices the sums and
    comparisons run one row and one column at a time, each over the whole
    stack: 7x faster on 2049 matrices of 2 x 2, 1.6x slower on 64 of 32 x 32.
    """
    n = M.shape[1]
    if n > 8:
        return np.abs(M).sum(axis=1).max(axis=1)
    col = np.abs(M[:, 0])
    for i in range(1, n):
        col += np.abs(M[:, i])
    norm = col[:, 0]
    for j in range(1, M.shape[2]):
        norm = np.maximum(norm, col[:, j])
    return norm


def _information_sweep(model: FilterModel, Vy: np.ndarray, out, P_out=None):
    """The filter as the forward half of a banded Cholesky factor of A.

    A = Phi'G^{-1}Phi + H'Q2H is the block-tridiagonal information matrix
    of the whole horizon, A = R'R with R upper block-bidiagonal. Writing
    U_k = R_{k-1,k} and solving R'z = b for b_k = H_k'Q2_k y_k, the filtered
    information and center of step k are

        J_k = F_k'G_{k-1}^{-1}F_k + W_k - U_k'U_k,
        x_hat_k = J_k^{-1} (b_k - U_k' z_{k-1}),

    and P_N = J_N^{-1}. Every term of A is a Gram product of the whitened
    rows of ``model``, and b_k = (V_kH_k)'(V_ky_k) with ``Vy[k]`` = V_ky_k.
    The horizon runs in blocks of :func:`_block_steps`. Each block has a
    model half, :func:`_block_factor`, which reads only ``model`` and the
    carried U, and a data half, :func:`_block_data`, which reads Vy and the
    carried z; only U and z of a block's last step carry into the next, so
    beyond the outputs, z and the per-step model arrays memory is O(block)
    unless the correction below runs.

    On a constant chain (every whitened stack a stride-0 broadcast) U
    settles to the square-root solution of the discrete algebraic Riccati
    equation, and the sweep factors blocks only until one has settled: its
    tail (:func:`_settled`), the trailing steps whose entry U is close to
    the block's exit U, is the exact factor of an interior block entered
    with the U of its first step. Every later block is placed from copies
    of that tail end to end (:func:`_placed`), so each seam joins a copy's
    last pivot to the next copy's first by the tail's exit U, the exact
    coupling after that pivot; the next pivot is then the one of a
    diagonal block off by E = U_a'U_a - U'U, which the tail's test keeps
    within STEADY_STATE_TOL. Every interior block has the same length and
    is placed once; the last block is placed up to step N - 1 and factors
    step N's pivot alone. Each placed block gets a band estimate of its
    own, and carries the figures its tail passed. Every block of a
    time-varying chain is factored.

    The centers go into ``out``, and each filtered P_k = J_k^{-1} into
    ``P_out`` when it is given. Each block's data half also gives beta_k
    (:func:`_block_data`), checked by :func:`.linalg.check_energy`. When
    some block's reciprocal condition estimate is below
    INFORMATION_RCOND_FLOOR, :func:`_corrected` replaces P_N, beta_N and
    the last center by one corrected semi-normal step; from the first such
    block on the sweep keeps each block's model half for it (a placed half
    is kept anyway), and it factors an earlier block again from the U that
    block was factored with. Returns (P_N, beta_N, rcond, record): rcond
    is the smallest figure judged over the blocks and record holds
    ``correction``, the step's relative size (None when none ran), and on
    success the ``{"blocks", "blocks_factored"}`` count, where a placed
    block is not factored. P_N and beta_N are None, and ``out`` partly
    written, when a block's per-pivot figure (:func:`_block_factor`) is
    below INFORMATION_RCOND_FLOOR or the correction exceeds CORRECTION_TOL.
    """
    N, n = model.horizon, model.VH.shape[2]
    constant = all(_distinct(s).shape[0] == 1 for s in (model.LF, model.LC, model.VH))
    rcond = tail = interior = None
    blocks = factored = 0
    correct = False  # some block's band estimate is below the floor
    spans = []  # per block: start, stop, entry U, and the half or the U it was factored with
    Z = np.empty((N + 1, n))
    # a chain with huge whitened rows may overflow here; the checks catch it
    with np.errstate(all="ignore"):
        U, energy = np.zeros((n, n)), 0.0
        steps = _block_steps(2 * n * n)
        for start in range(0, N + 1, steps):
            stop = min(start + steps, N + 1)
            placed = tail is not None
            if not placed:
                half = _block_factor(model, start, stop, U)
                factored += 1
                if constant and stop <= N and half.P is not None:
                    tail = _settled(half, start)
            elif stop > N:
                half = _placed(model, tail, start, stop)
            else:  # every interior block has ``steps`` steps
                interior = interior or _placed(model, tail, start, stop)
                half = interior
            blocks += 1
            rcond = half.rcond if rcond is None else min(rcond, half.rcond)
            if half.P is None:
                return None, None, rcond, {"correction": None}
            correct = correct or not half.band >= INFORMATION_RCOND_FLOOR
            spans.append((start, stop, U, half if correct or placed else half.U))
            energy, beta = _block_data(model, start, Vy, out, Z, half, U, energy)
            check_energy(beta, start)
            if P_out is not None:
                P_out[start:stop] = half.P
            U = half.U_next
        record = {"blocks": blocks, "blocks_factored": factored, "correction": None}
        P, beta = symmetrize(half.P[-1]), float(beta[-1])
        if correct:
            out[-1], P, beta, size = _corrected(model, Vy, Z, spans)
            if not size <= CORRECTION_TOL:
                return None, None, rcond, {"correction": size}
            check_energy(beta, N)
            record["correction"] = size
            if P_out is not None:
                P_out[-1] = P
    return P, beta, rcond, record


@dataclass(frozen=True)
class _BlockFactor:
    """The model half of one block of :func:`_information_sweep`.

    ``U`` is the carried U_start it was factored (or placed) with, ``band`` the
    reciprocal condition estimate of the block's band, ``R`` the band's
    factor in dpbtrf storage, ``Ut[i - 1]`` = R_{i-1,i}' within the
    block, ``P[i]`` = J_{start+i}^{-1}, ``U_next`` = U_stop (None at step
    N) and ``rcond`` the smallest figure judged. When a check fails,
    ``rcond`` is the failing figure and every field after ``band`` is None.
    """

    U: np.ndarray
    rcond: float
    band: float
    R: Optional[np.ndarray] = None
    Ut: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    U_next: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class _Tail:
    """The settled tail of a factored block of a constant chain, as the
    copies of :func:`_placed` read it.

    Per tail position j: ``cols[j]`` the factor's columns in the layout
    of :func:`_block_factor`, ``Ut[j]`` = U' of the coupling into it and
    ``P[j]`` its J^{-1}. Position 0 enters from the last pivot of a copy
    before it, so its coupling, rows and ``Ut[0]``, is the exit ``U``.
    ``rcond`` is the smallest figure judged on the factored block.
    """

    cols: np.ndarray
    Ut: np.ndarray
    P: np.ndarray
    U: np.ndarray
    rcond: float


def _settled(half: _BlockFactor, start: int) -> Optional[_Tail]:
    """The settled tail of the factored block ``half`` from ``start``, or
    None when its last step has not settled.

    Step a of the block is settled when its entry U_a is close to the
    block's exit U = U_stop: with E = U_a'U_a - U'U and P_a = J_a^{-1},
    ||P_aE||_1 <= STEADY_STATE_TOL, so that the J of a diagonal block off
    by E has its inverse within STEADY_STATE_TOL / (1 - STEADY_STATE_TOL)
    of P_a, relative in the 1-norm. The tail is the longest trailing run
    of settled steps; step 0 of the horizon, which holds L_0F_0, is never
    in it. Rows a .. of a band Cholesky factor are the factor of the
    trailing block of the band with its first diagonal block reduced by
    U_a'U_a, so on a constant chain the tail is the exact factor of an
    interior block entered with U_a.
    """
    n, count = half.P.shape[1], half.count
    exit_U = half.U_next
    UtU = np.empty((count, n, n))
    UtU[0] = half.U.T @ half.U
    UtU[1:] = half.Ut @ np.swapaxes(half.Ut, 1, 2)
    settled = _norm1(half.P @ (UtU - exit_U.T @ exit_U)) <= STEADY_STATE_TOL
    settled[0] &= start > 0
    a = count - int(np.argmin(settled[::-1])) if not settled.all() else 0
    if a == count:
        return None
    cols = np.array(half.R.T.reshape(count, n, 2 * n)[a:])
    for c in range(n):
        cols[0, c, n - 1 - c : 2 * n - 1 - c] = exit_U[:, c]
    Ut = np.concatenate([exit_U.T[None], half.Ut[a:]])
    return _Tail(cols, Ut, half.P[a:], exit_U, half.rcond)


def _placed(model: FilterModel, tail: _Tail, start: int, stop: int) -> _BlockFactor:
    """The model half of steps start .. stop - 1 of a constant chain, from
    copies of ``tail`` end to end.

    The block is entered with the tail's exit U, and its steps before N
    are the last ones of a run of whole copies, so a block before the last
    leaves with that U too. Step N (in the last block) has no coupling
    after it: it takes the exit U as its coupling and factors its own
    pivot, J_N = T_N - U'U, judged by :func:`_pivot_figure`. The placed
    factor, built in Fortran order for dtbtrs, gets the band estimate
    (:func:`.linalg.spd_banded_rcond`) against the 1-norm of the block's
    own band.
    """
    N, n = model.horizon, model.VH.shape[2]
    count, U = stop - start, tail.U
    before_N = count - (stop > N)
    at = (np.arange(count) - before_N) % tail.P.shape[0]  # tail position per step
    cols, Ut, P = tail.cols[at], tail.Ut[at[1:]], tail.P[at]
    T, diag, off = _band_terms(model, start, stop, U)
    rcond = tail.rcond
    if stop > N:
        UtU = U.T @ U
        J = symmetrize(T[-1] - UtU)
        pivot, info = lapack.dpotrf(J)
        if info:
            return _BlockFactor(U, 0.0, 0.0)
        P[-1] = np.linalg.inv(J)
        figure = _pivot_figure(T[-1:], UtU[None], J[None], P[-1:])
        rcond = min(rcond, figure)
        if not figure >= INFORMATION_RCOND_FLOOR:
            return _BlockFactor(U, rcond, 0.0)
        for c in range(n):
            cols[-1, c, 2 * n - 1 - c :] = pivot[: c + 1, c]
    R = cols.reshape(count * n, 2 * n).T
    band = spd_banded_rcond(R, _band_norm1(diag, off[: count - 1]))
    return _BlockFactor(U, min(rcond, band), band, R, Ut, P, None if stop > N else U)


def _last_pivot(R: np.ndarray, n: int) -> np.ndarray:
    """R_{k,k} of the last step k of a band factor in dpbtrf storage."""
    pivot = np.zeros((n, n))
    for c in range(n):
        pivot[: c + 1, c] = R[2 * n - 1 - c :, c - n]
    return pivot


def _pivot_figure(T: np.ndarray, UtU: np.ndarray, J: np.ndarray, P: np.ndarray) -> float:
    """The smallest per-pivot figure of a block, 0.0 if not finite.

    Per step it is the reciprocal of the amplification of the rounding in
    J_k = T_k - U_k'U_k (the digits), (||T_k||_1 + ||U_k'U_k||_1)
    ||J_k^-1||_1, which is at least cond_1(J_k) = ||J_k||_1 ||J_k^-1||_1
    (the rank tie). Where it is below INFORMATION_RCOND_FLOOR, the digits
    read the same amplification on the Jacobi-scaled terms DT_kD, DU_k'U_kD
    and D^{-1}J_k^{-1}D^{-1}, D = diag(T_k)^{-1/2}, if that is smaller: a
    state whose rows are of another scale (an algebraic state on a fine
    grid) inflates the unscaled figure alone (van der Sluis, Numer. Math.
    14, 1969). The rank tie then reads cond_1(J_k) itself, which scaling
    does not change. So a step passes when both readings reach the floor,
    and a block the unscaled figure passes pays for no other.
    """
    norm_P = _norm1(P)
    worst = (_norm1(T) + _norm1(UtU)) * norm_P
    over = ~(worst <= 1.0 / INFORMATION_RCOND_FLOOR)
    if over.any():
        T, UtU, J, P = T[over], UtU[over], J[over], P[over]
        d = 1.0 / np.sqrt(np.diagonal(T, axis1=1, axis2=2))
        s = d[:, :, None] * d[:, None, :]
        scaled = (_norm1(T * s) + _norm1(UtU * s)) * _norm1(P / s)
        worst[over] = np.maximum(_norm1(J) * norm_P[over], np.fmin(worst[over], scaled))
    worst = float(worst.max())
    return 1.0 / worst if worst < np.inf else 0.0


def _band_terms(model: FilterModel, start: int, stop: int, U: np.ndarray) -> tuple:
    """Steps start .. stop - 1 of A for the carried U = U_start: (T_k,
    A's diagonal blocks with the first reduced by U'U, A's blocks
    (k, k + 1) of the transitions start .. min(stop, N) - 1)."""
    N = model.horizon
    last, lo = min(stop, N), max(start, 1)  # transitions start .. last - 1
    T = per_entry(_information, model.LF[lo - 1 : stop - 1], model.VH[lo:stop])
    if start == 0:
        T = np.concatenate([_information(model.LF0[None], model.VH[:1]), T])
    Cn, off = per_entry(_coupling, model.LC[start:last], model.LF[start:last])
    diag = np.array(T)
    diag[0] -= U.T @ U
    diag[: last - start] += Cn
    return T, diag, off


def _band_norm1(diag: np.ndarray, inner: np.ndarray) -> float:
    """||A||_1 of a block's band: its diagonal blocks and the blocks
    (i, i + 1) within it, a constant stack of them summed once."""
    column = np.abs(diag).sum(axis=1)
    column[1:] += per_entry(lambda a: np.abs(a).sum(axis=1), inner)
    column[:-1] += per_entry(lambda a: np.abs(a).sum(axis=2), inner)
    return float(column.max())


def _block_factor(model: FilterModel, start: int, stop: int, U: np.ndarray) -> _BlockFactor:
    """The model half of steps start .. stop - 1 of :func:`_information_sweep`.

    Forms the block's band of A, its first diagonal block reduced by U'U
    for the carried U = U_start (zero at step 0), and factors it by one
    dpbtrf (:func:`.linalg.factor_spd_banded`), which also estimates its
    reciprocal condition. From the factor come the block's U_k, its J_k and
    their inverses P_k, judged by :func:`_pivot_figure`, and U_stop for
    the next block.
    """
    N, n = model.horizon, model.VH.shape[2]
    count = stop - start
    T, diag, off = _band_terms(model, start, stop, U)
    inner = off[: count - 1]
    # The band, column by column: cols[i, c, r] = A[i n + c + r - 2n + 1, i n + c],
    # so rows r = n - 1 + a - c hold block (i - 1, i) and rows r = 2n - 1 + a - c,
    # a <= c, the upper triangle of block (i, i).
    cols = np.zeros((count, n, 2 * n))
    for c in range(n):
        cols[:, c, 2 * n - 1 - c :] = diag[:, : c + 1, c]
        cols[1:, c, n - 1 - c : 2 * n - 1 - c] = inner[:, :, c]
    R, band = factor_spd_banded(cols.reshape(count * n, 2 * n).T, _band_norm1(diag, inner))
    if R is None:
        return _BlockFactor(U, 0.0, 0.0)
    cols = R.T.reshape(count, n, 2 * n)
    Ut = np.empty((count - 1, n, n))  # Ut[i - 1] = R_{i-1,i}'
    for c in range(n):
        Ut[:, c] = cols[1:, c, n - 1 - c : 2 * n - 1 - c]
    UtU = np.empty((count, n, n))  # U_k'U_k
    UtU[0] = U.T @ U
    UtU[1:] = Ut @ np.ascontiguousarray(np.swapaxes(Ut, 1, 2))
    J = symmetrize(T - UtU)
    try:
        P = np.linalg.inv(J)
    except np.linalg.LinAlgError:  # some J_k is exactly singular
        return _BlockFactor(U, 0.0, band)
    figure = _pivot_figure(T, UtU, J, P)
    rcond = min(band, figure)
    if not figure >= INFORMATION_RCOND_FLOOR:
        return _BlockFactor(U, rcond, band)
    U_next = None
    if stop <= N:
        U_next = solve_triangular(_last_pivot(R, n), off[-1], trans=1)
    return _BlockFactor(U, rcond, band, R, Ut, P, U_next)


def _block_data(model: FilterModel, start: int, Vy, out, Z, half: _BlockFactor, U, energy):
    """The data half of one block of :func:`_information_sweep`.

    With the carried U_start and z_{start-1} = ``Z[start - 1]`` (zeros at
    step 0), solves R'z = b over the block by one dtbtrs on the factor of
    ``half``, writes z into ``Z`` and the centers x_hat_k = P_k (b_k -
    U_k'z_{k-1}) into ``out``. The least data energy of y_0 .. y_k is

        beta_k = sum_{j<=k} |V_jy_j|^2 - sum_{j<k} |z_j|^2 - x_hat_k'J_kx_hat_k,

    the data's energy less the part the truncated chain's R'z = b explains.
    With the carried ``energy`` = sum_{j<start} (|V_jy_j|^2 - |z_j|^2),
    returns (the same sum to stop - 1, beta over the block).
    """
    count, n = half.count, model.VH.shape[2]
    stop = start + count
    b = (np.swapaxes(model.VH[start:stop], 1, 2) @ Vy[start:stop, :, None])[:, :, 0]
    if start > 0:
        b[0] -= U.T @ Z[start - 1]
    z = lapack.dtbtrs(half.R, b.reshape(-1, 1), trans="T")[0].reshape(count, n)
    Z[start:stop] = z
    b[1:] -= (half.Ut @ z[:-1, :, None])[:, :, 0]
    x = (half.P @ b[:, :, None])[:, :, 0]
    out[start:stop] = x
    zz = np.einsum("ki,ki->k", z, z)
    vy = Vy[start:stop]
    energy = energy + np.cumsum(np.einsum("ki,ki->k", vy, vy) - zz)
    return float(energy[-1]), energy + zz - np.einsum("ki,ki->k", b, x)


def _corrected(model: FilterModel, Vy: np.ndarray, Z: np.ndarray, spans: list) -> tuple:
    """One corrected semi-normal step on the sweep's terminal answers.

    The sweep's factor R of A = R'R was formed from A, which squares the
    condition of the whitened rows K (A = K'K, c = (0, Vy) the whitened
    data). The step computes, for the n + 1 columns of [b, E_N] (E_N the
    identity at step N), X = R^{-1}R^{-T}[b, E_N] by one back substitution
    from the sweep's z, the residual [b, E_N] - K'(KX) with two products
    by K (never A), and the last block of R^{-1}R^{-T} of that residual
    by one forward substitution: only the last step of the back half is
    needed (Bjorck, Linear Algebra Appl. 88/89, 1987). Returns (x_N, P_N,
    beta_N, size): the corrected last center and P_N, beta_N = ||KX_0 -
    c||^2 for the smoothed center X_0 (its error is second order in X_0's),
    and the step's relative size ||dP_N||_1 / ||P_N||_1.

    ``spans`` lists per block (start, stop, U_start, half), with the half
    replaced by the U it was factored with where the sweep did not keep
    it; such a block is factored again, to the same factor.
    """
    N, n = Z.shape[0] - 1, Z.shape[1]

    def halves(order):
        for start, stop, U, kept in order:
            if not isinstance(kept, _BlockFactor):
                kept = _block_factor(model, start, stop, kept)
            yield start, stop, U, kept

    pivot = _last_pivot(spans[-1][3].R, n)  # R_NN; the last block is always kept
    X = np.zeros((N + 1, n, n + 1))
    X[:, :, 0] = Z
    X[N, :, 1:] = solve_triangular(pivot, np.eye(n), trans=1)
    after = None  # U_stop of the block after
    for start, stop, U, half in halves(reversed(spans)):
        b = X[start:stop].reshape(-1, n + 1)
        if after is not None:
            b[-n:] -= after @ X[stop]
        X[start:stop] = lapack.dtbtrs(half.R, b)[0].reshape(-1, n, n + 1)
        after = U
    # the residual rows of K X - [c, 0], then -K' of them
    first = model.LF0 @ X[0]
    moves = model.LF @ X[1:] - model.LC @ X[:-1]
    seen = model.VH @ X
    seen[:, :, 0] -= Vy
    beta = float(first[:, 0] @ first[:, 0] + np.vdot(moves[:, :, 0], moves[:, :, 0]))
    beta += float(np.vdot(seen[:, :, 0], seen[:, :, 0]))
    res = -_gram(model.VH, seen)
    res[0] -= model.LF0.T @ first
    res[1:] -= _gram(model.LF, moves)
    res[:-1] += _gram(model.LC, moves)
    res[N, :, 1:] += np.eye(n)
    for start, stop, U, half in halves(spans):
        b = res[start:stop].reshape(-1, n + 1)
        if start > 0:
            b[:n] -= U.T @ res[start - 1]
        res[start:stop] = lapack.dtbtrs(half.R, b, trans="T")[0].reshape(-1, n, n + 1)
    step = solve_triangular(pivot, res[N])
    P = symmetrize(X[N, :, 1:] + step[:, 1:])
    size = float(_norm1(step[None, :, 1:])[0] / _norm1(P[None])[0])
    return X[N, :, 0] + step[:, 0], P, beta, size


def _qr_steps(model: FilterModel, Vy: np.ndarray, out, P_out=None) -> tuple:
    """The filter as one QR factorization per step; returns (P_N, beta_N).

    Step k factors the (n + m + l) x (2n + 1) matrix of the module
    docstring, with columns (x_{k-1}, x_k, data), by one LAPACK dgeqrf;
    step 0 has R_{-1} = 0 and no transition. The matrices of a block of
    :func:`_block_steps` steps are filled at once, transposed, so that
    each is a Fortran-ordered view that dgeqrf overwrites in place; the
    loop over steps only copies [R_k, z_k] into the next one. After the
    block, R_k, z_k and the residual entry e_k (none where a step has at
    most 2n rows) are read from the block's workspace, where dgeqrf left
    them. One batched SVD judges every R_k, which is singular when s_min
    <= sqrt(DEFAULT_TOL) s_max (J_k = R_k'R_k, never formed, then has
    s_min <= DEFAULT_TOL s_max), and one batched solve writes x_hat_k =
    R_k^{-1}z_k into ``out`` (and, when ``P_out`` is given, one more
    writes P_k = R_k^{-1}R_k^{-T} into it). Raises InconsistentData at the
    first step whose beta_k exceeds 1 (:func:`.linalg.check_energy`), and
    RankDeficient at the first singular R_k, naming its s_min/s_max and
    the cutoff, whichever comes first.
    """
    N = model.horizon
    m, n = model.LF0.shape
    l = model.V.shape[1]
    rows = n + m + l
    upper = np.tri(n, dtype=bool)  # R's upper triangle, transposed
    R, z, beta = np.zeros((n, n)), np.zeros(n), 0.0
    steps = _block_steps(rows * (2 * n + 1))
    cutoff = math.sqrt(DEFAULT_TOL)
    for start in range(0, N + 1, steps):
        stop = min(start + steps, N + 1)
        count, lo = stop - start, max(start, 1)
        # work[i].T is the matrix of step start + i
        work = np.zeros((count, 2 * n + 1, rows))
        work[lo - start :, :n, n : n + m] = -np.swapaxes(model.LC[lo - 1 : stop - 1], 1, 2)
        work[lo - start :, n : 2 * n, n : n + m] = np.swapaxes(model.LF[lo - 1 : stop - 1], 1, 2)
        if start == 0:
            work[0, n : 2 * n, n : n + m] = model.LF0.T
        work[:, n : 2 * n, n + m :] = np.swapaxes(model.VH[start:stop], 1, 2)
        work[:, 2 * n, n + m :] = Vy[start:stop]
        work[0, :n, :n] = R.T
        work[0, 2 * n, :n] = z
        for i in range(count):
            a = work[i]
            lapack.dgeqrf(a.T, overwrite_a=1)
            if i + 1 < count:
                np.copyto(work[i + 1, :n, :n], a[n : 2 * n, n : 2 * n], where=upper)
                work[i + 1, 2 * n, :n] = a[2 * n, n : 2 * n]
        Rs = np.triu(np.swapaxes(work[:, n : 2 * n, n : 2 * n], 1, 2))
        zs = work[:, 2 * n, n : 2 * n]
        residual = work[:, 2 * n, 2 * n] if rows > 2 * n else np.zeros(count)
        betas = beta + np.cumsum(residual * residual)
        s = np.linalg.svd(Rs, compute_uv=False)
        singular = s[:, -1] <= cutoff * s[:, 0]
        i = int(np.argmax(singular)) if singular.any() else count
        check_energy(betas[:i], start)  # beta_i is a floor only at a singular R_i
        if i < count:
            ratio = s[i, -1] / s[i, 0] if s[i, 0] > 0 else 0.0
            raise RankDeficient(
                f"information matrix at step {start + i} is singular: "
                f"s_min/s_max of R_{start + i} is {ratio:.1e}, cutoff {cutoff:g}"
            )
        out[start:stop] = np.linalg.solve(Rs, zs[:, :, None])[:, :, 0]
        if P_out is not None:
            R_inv = np.linalg.inv(Rs)
            P_out[start:stop] = symmetrize(R_inv @ np.swapaxes(R_inv, 1, 2))
        R, z, beta = Rs[-1], zs[-1], float(betas[-1])
    R_inv = solve_triangular(R, np.eye(n))
    return symmetrize(R_inv @ R_inv.T), beta


def filter_run(
    dae: DiscreteDAE, bounds: DAEEllipsoid, y_seq: Sequence, ell, P_seq=None
) -> Estimate:
    """Run the filter across the horizon and read out (ell, x_N).

    Returns the terminal readout with the attained radius
    sqrt(1 - beta_N) sqrt(ell' P_N ell) (module docstring), the ``solver``
    record (:func:`.static.solver_record`) of the path taken,
    and as outputs the final center ``x_hat_final``, the filtered centers
    ``x_hat_seq`` at every step and ``P_final`` = P_N. Note the
    intermediate x_hat_k use only y_0 .. y_k; they match the batch center
    of the truncated problem, not of the full horizon. When ``P_seq`` is
    given, an (N + 1, n, n) array, the run also writes every filtered P_k
    into it.

    The run first tries :func:`_information_sweep`, which may end in one
    corrected step on P_N, beta_N and the last entry of ``x_hat_seq`` (and
    of ``P_seq``). When one of its checks fails, or that step exceeds
    CORRECTION_TOL, it restarts on :func:`_qr_steps`, which alone decides
    every rank verdict after :func:`prepare_filter`: S and B_k verdicts
    come before any rank or data verdict. Data whose beta_k exceeds 1 at
    some step raise InconsistentData, naming the first such step.
    """
    count = dae.horizon + 1
    Y = vector_stack(y_seq, "y_seq", count, dae.observation_dim, "observation vectors")
    ell = sized_vector(ell, "ell", dae.state_dim)
    model = prepare_filter(dae, bounds)
    Vy = (model.V @ Y[:, :, None])[:, :, 0]
    x_seq = np.empty((count, dae.state_dim))
    P, beta, rcond, record = _information_sweep(model, Vy, x_seq, P_seq)
    path = "information"
    if P is None:
        P, beta = _qr_steps(model, Vy, x_seq, P_seq)
        path = "recursive"
    solver = solver_record(path, rcond, INFORMATION_RCOND_FLOOR) | record
    prior = max(float(ell @ (P @ ell)), 0.0)
    return Estimate(
        feasible=True,
        estimate=float(ell @ x_seq[-1]),
        radius=math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(prior),
        outputs={"x_hat_final": x_seq[-1], "x_hat_seq": x_seq, "P_final": P},
        solver=solver,
    )
