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

:func:`filter_run` has two paths, and its ``solver`` record names the
one it took.

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
  the Riccati recursion: once it moves between blocks by less than
  STEADY_STATE_TOL allows (:func:`_settled`), an interior block reuses the
  model half before it and runs its data half only. The ``solver`` record
  counts the blocks and those factored. The sweep is kept only when every
  block's reciprocal condition estimate and the rounding figure of every
  filtered information matrix reach INFORMATION_RCOND_FLOOR. That
  figure bounds cond(J_k) by 1/INFORMATION_RCOND_FLOOR, so every J_k it
  keeps also passes the QR steps' rank test below. Well-conditioned
  chains take it; since forming A squares the condition of the whitened
  rows, chains with ill-conditioned B_k or fine continuous grids do not.
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
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .discrete import DAEEllipsoid, DiscreteDAE, _check_bounds
from .errors import InvalidInput, NumericalBreakdown, RankDeficient
from .linalg import (
    DEFAULT_TOL,
    INFORMATION_RCOND_FLOOR,
    STEADY_STATE_TOL,
    _distinct,
    check_energy,
    factor_spd_banded,
    invertible,
    per_entry,
    sized_vector,
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
    """Per matrix of a stack, the 1-norm (largest column sum of |M|)."""
    return np.abs(M).sum(axis=1).max(axis=1)


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
    beyond the outputs and the per-step model arrays memory is O(block).

    On a constant chain (every whitened stack a stride-0 broadcast) the
    model half of an interior block (start > 0, stop <= N) depends on the
    carried U alone, and U settles to the square-root solution of the
    discrete algebraic Riccati equation. Such a block reuses the model half
    of the interior block before it when :func:`_settled` finds the two
    blocks' U close: the reused factor is exact for a first diagonal block
    of A off by E = U_old'U_old - U'U, and the test keeps ||J^-1 E||_1
    within STEADY_STATE_TOL. A reused half carries the figures it passed.
    The first block (it holds L_0F_0) and the last (step N has no
    coupling) are always factored, as is every block of a time-varying
    chain.

    The centers go into ``out``, and each filtered P_k = J_k^{-1} into
    ``P_out`` when it is given. Each block's data half also gives beta_k
    (:func:`_block_data`), checked by :func:`.linalg.check_energy`. Returns
    (P_N, beta_N, rcond, blocks): rcond is the smallest figure judged over
    the blocks, and blocks is the ``{"blocks", "blocks_factored"}`` count.
    P_N and beta_N are None, and ``out`` partly written, unless every
    block's reciprocal condition estimate and every 1/((||T_k|| +
    ||U_k'U_k||) ||J_k^-1||), with T_k = F_k'G_{k-1}^{-1}F_k + W_k, reach
    INFORMATION_RCOND_FLOOR. In the 1-norm ||J_k|| <= ||T_k|| +
    ||U_k'U_k||, and the 2-norm of a symmetric matrix is at most its
    1-norm, so a kept J_k has cond_2(J_k) <= 1/INFORMATION_RCOND_FLOOR =
    1e6 and R_k = chol(J_k) has cond_2(R_k) <= 1e3, inside the QR steps'
    cutoff 1/sqrt(DEFAULT_TOL) = 1e5: both paths give the same rank verdict.
    """
    N, n = model.horizon, model.VH.shape[2]
    constant = all(_distinct(s).shape[0] == 1 for s in (model.LF, model.LC, model.VH))
    rcond = cached = None
    blocks = factored = 0
    # a chain with huge whitened rows may overflow here; the checks catch it
    with np.errstate(all="ignore"):
        U, z, energy = np.zeros((n, n)), np.zeros(n), 0.0
        steps = _block_steps(2 * n * n)
        for start in range(0, N + 1, steps):
            stop = min(start + steps, N + 1)
            interior = constant and start > 0 and stop <= N
            half = cached if interior and _settled(cached, U, stop - start) else None
            if half is None:
                half = _block_factor(model, start, stop, U)
                factored += 1
            blocks += 1
            rcond = half.rcond if rcond is None else min(rcond, half.rcond)
            if half.P is None:
                return None, None, rcond, None
            z, energy, beta = _block_data(model, start, Vy, out, half, U, z, energy)
            check_energy(beta, start)
            if P_out is not None:
                P_out[start:stop] = half.P
            U = half.U_next
            if interior:
                cached = half
    blocks = {"blocks": blocks, "blocks_factored": factored}
    return symmetrize(half.P[-1]), float(beta[-1]), rcond, blocks


@dataclass(frozen=True)
class _BlockFactor:
    """The model half of one block of :func:`_information_sweep`.

    ``U`` is the carried U_start it was factored with, ``R`` the block's
    band factor in dpbtrf storage, ``Ut[i - 1]`` = R_{i-1,i}' within the
    block, ``P[i]`` = J_{start+i}^{-1}, ``U_next`` = U_stop (None at step
    N) and ``rcond`` the smallest figure judged. When a check fails,
    ``rcond`` is the failing figure and every other field but ``U`` is None.
    """

    U: np.ndarray
    rcond: float
    R: Optional[np.ndarray] = None
    Ut: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    U_next: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return self.P.shape[0]


def _settled(half: Optional[_BlockFactor], U: np.ndarray, count: int) -> bool:
    """Whether the model half ``half`` serves a block of ``count`` steps
    entered with ``U``.

    It must have the same length, and it must be close. With U_old =
    ``half.U``, its factor is exact for a first diagonal block of A off by
    E = U_old'U_old - U'U, so the block's first filtered information is
    J = J_old + E, with P = J_old^{-1} = ``half.P[0]``. When
    ||PE||_1 <= STEADY_STATE_TOL, J^{-1} = (I + PE)^{-1}P is within
    STEADY_STATE_TOL / (1 - STEADY_STATE_TOL) of P, relative in the 1-norm.
    """
    if half is None or half.count != count:
        return False
    E = half.U.T @ half.U - U.T @ U
    return _norm1(half.P[:1] @ E)[0] <= STEADY_STATE_TOL


def _block_factor(model: FilterModel, start: int, stop: int, U: np.ndarray) -> _BlockFactor:
    """The model half of steps start .. stop - 1 of :func:`_information_sweep`.

    Forms the block's band of A, its first diagonal block reduced by U'U
    for the carried U = U_start (zero at step 0), and factors it by one
    dpbtrf (:func:`.linalg.factor_spd_banded`). From the factor come the
    block's U_k, its J_k and their inverses P_k, judged by the
    amplification check, and U_stop for the next block.
    """
    N, n = model.horizon, model.VH.shape[2]
    count, last = stop - start, min(stop, N)  # transitions start .. last - 1
    lo = max(start, 1)
    T = per_entry(_information, model.LF[lo - 1 : stop - 1], model.VH[lo:stop])
    if start == 0:
        T = np.concatenate([_information(model.LF0[None], model.VH[:1]), T])
    Cn, off = per_entry(_coupling, model.LC[start:last], model.LF[start:last])
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
        return _BlockFactor(U, rcond)
    cols = R.T.reshape(count, n, 2 * n)
    Ut = np.empty((count - 1, n, n))  # Ut[i - 1] = R_{i-1,i}'
    for c in range(n):
        Ut[:, c] = cols[1:, c, n - 1 - c : 2 * n - 1 - c]
    UtU[1:] = Ut @ np.ascontiguousarray(np.swapaxes(Ut, 1, 2))
    J = symmetrize(T - UtU)
    try:
        P = np.linalg.inv(J)
    except np.linalg.LinAlgError:  # some J_k is exactly singular
        return _BlockFactor(U, 0.0)
    # J_k is a difference: (||T_k|| + ||U_k'U_k||) ||J_k^-1|| amplifies the
    # rounding in its terms, which a short block's estimate of A misses
    amplification = float(((_norm1(T) + _norm1(UtU)) * _norm1(P)).max())
    rcond = min(rcond, 1.0 / amplification if amplification < np.inf else 0.0)
    if not rcond >= INFORMATION_RCOND_FLOOR:
        return _BlockFactor(U, rcond)
    U_next = None
    if stop <= N:
        pivot = np.zeros((n, n))  # R_{stop-1,stop-1}
        for c in range(n):
            pivot[: c + 1, c] = cols[-1, c, 2 * n - 1 - c :]
        U_next = scipy.linalg.solve_triangular(pivot, off[-1], trans="T", check_finite=False)
    return _BlockFactor(U, rcond, R, Ut, P, U_next)


def _block_data(
    model: FilterModel, start: int, Vy, out, half: _BlockFactor, U, z_before, energy
):
    """The data half of one block of :func:`_information_sweep`.

    With the carried (U_start, z_{start-1}), zeros at step 0, solves R'z =
    b over the block by one dtbtrs on the factor of ``half`` and writes the
    centers x_hat_k = P_k (b_k - U_k'z_{k-1}) into ``out``. The least data
    energy of y_0 .. y_k is

        beta_k = sum_{j<=k} |V_jy_j|^2 - sum_{j<k} |z_j|^2 - x_hat_k'J_kx_hat_k,

    the data's energy less the part the truncated chain's R'z = b explains.
    With the carried ``energy`` = sum_{j<start} (|V_jy_j|^2 - |z_j|^2),
    returns (z_{stop-1}, the same sum to stop - 1, beta over the block).
    """
    count, n = half.count, model.VH.shape[2]
    stop = start + count
    b = (np.swapaxes(model.VH[start:stop], 1, 2) @ Vy[start:stop, :, None])[:, :, 0]
    b[0] -= U.T @ z_before
    z = lapack.dtbtrs(half.R, b.reshape(-1, 1), trans="T")[0].reshape(count, n)
    b[1:] -= (half.Ut @ z[:-1, :, None])[:, :, 0]
    x = (half.P @ b[:, :, None])[:, :, 0]
    out[start:stop] = x
    zz = np.einsum("ki,ki->k", z, z)
    vy = Vy[start:stop]
    energy = energy + np.cumsum(np.einsum("ki,ki->k", vy, vy) - zz)
    return z[-1], float(energy[-1]), energy + zz - np.einsum("ki,ki->k", b, x)


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
    R_inv = scipy.linalg.solve_triangular(R, np.eye(n), check_finite=False)
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

    The run first tries :func:`_information_sweep`. When one of its
    checks fails, it restarts on :func:`_qr_steps`, which alone decides
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
    P, beta, rcond, blocks = _information_sweep(model, Vy, x_seq, P_seq)
    if P is None:
        P, beta = _qr_steps(model, Vy, x_seq, P_seq)
        solver = solver_record("recursive", rcond, INFORMATION_RCOND_FLOOR)
    else:
        solver = solver_record("information", rcond, INFORMATION_RCOND_FLOOR) | blocks
    prior = max(float(ell @ (P @ ell)), 0.0)
    return Estimate(
        feasible=True,
        estimate=float(ell @ x_seq[-1]),
        radius=math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(prior),
        outputs={"x_hat_final": x_seq[-1], "x_hat_seq": x_seq, "P_final": P},
        solver=solver,
    )
