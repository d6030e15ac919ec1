"""Shared linear-algebra helpers.

Everything here wraps numpy routines and scipy's LAPACK wrappers (loaded
by :mod:`._lapack` without importing ``scipy.linalg``) behind the
conventions the estimators rely on: one table of tolerances, SVD
bases of the fundamental subspaces with one rank cut, one range
membership test on such a basis, a banded LU that is trusted only where
it provably agrees with an SVD solve, explicit result types instead of
bare tuples, and the verdicts the estimators share: inconsistent data, a
negative a priori error and a singular square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._lapack import lapack
from .errors import InconsistentData, InvalidBounds, InvalidInput, NumericalBreakdown

# Every rank, residual, regularity and breakdown decision reads one of these
# constants; no function takes a tolerance. README.md "Tolerances" lists them.
# Rank: singular values above this times the largest (or a given scale) count.
DEFAULT_TOL = 1e-10
# Range membership (in_span alone): a residual off an orthonormal basis up
# to this times 1 + ||ell||, the norm of the functional tested.
MEMBERSHIP_TOL = 1e-8
# Budget slack and squared radii: how far below 0 (per unit scale) is rounding.
NEGATIVE_FLOOR = 1e-9
# Banded LU: trusted when both estimates of 1/(||A||_1 ||A^-1||_1) and
# 1/(||A||_inf ||A^-1||_inf) reach this. As ||M||_2^2 <= ||M||_1 ||M||_inf,
# the true values bound sigma_min/sigma_max from below; 1000x above
# DEFAULT_TOL, the floor rejects every matrix an SVD cut there would truncate
# even if the estimate (never above the true norm of A^-1) is that far low.
RCOND_FLOOR = 1e-7
# Information-form filter: its sweep is kept when each filtered information
# J_k's 1/cond_1(J_k) and 1/((||T_k|| + ||U_k'U_k||) ||J_k^-1||), the latter
# unscaled or Jacobi-scaled, reach this; where a block's reciprocal condition
# estimate of the banded Cholesky of Phi'G^{-1}Phi + H'Q2H does not, the sweep
# ends in one corrected step. Forming A from the whitened rows squares their
# condition, which grows with cond(B_k): on 800 random chains with cond(B_k)
# log-uniform up to 1e6 the uncorrected sweep stayed within 1.0e-11 of a
# dense QR solve at 1e-6, but only within 6.8e-11 at 1e-7.
INFORMATION_RCOND_FLOOR = 1e-6
# Information sweep below that floor: its one corrected semi-normal step is
# kept when it moves P_N by at most this, relative in the 1-norm. The step's
# size is about the error of the uncorrected P_N, and of the interior P_k it
# leaves as they are: on the unit scalar problem it read 3e-12 to 1.2e-10 at
# M = 1024 to 16384, 3e-9 at M = 8192 and 1.1e-8 at M = 10^4.
CORRECTION_TOL = 1e-9
# Information sweep on a constant chain: step a of a factored block has
# settled when ||J_a^-1 E||_1 is at most this, with J_a its filtered
# information and E = U_a'U_a - U'U the gap between its entry pivot U_a and
# the block's exit U; the trailing run of settled steps is placed in every
# later block. On twelve benchmark-shaped n=32 chains that run was 50 to 55
# of the first block's 64 steps, with figures up to 1.8e-14 in it and 3.7e-14
# to 9.3e-13 at the step before; on 400 constant chains with blocks of 2 to
# 11 steps, answers stayed within 4.4e-14 relative of factoring every block.
STEADY_STATE_TOL = 2e-14
# SPD checks: symmetric when |a_ij - a_ji| <= this times 1 + max |a_ij|.
SYMMETRY_TOL = 1e-12
# Sampler: least scale behind the curvature cutoff, so the cutoff stays positive.
CURVATURE_SCALE_FLOOR = 1e-300
# Chebyshev check: deviations above sigma * (1 + this) + this are violations.
CHEBYSHEV_SLACK = 1e-9
# Time grids: an endpoint may miss the system horizon by this times its length.
GRID_SPAN_TOL = 1e-9


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is not numeric: {exc}") from exc
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is not numeric: {exc}") from exc
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return v


def sized_vector(value, name: str, size: int) -> np.ndarray:
    """:func:`as_vector`, also checking that the length is ``size``."""
    v = as_vector(value, name)
    if v.shape[0] != size:
        raise InvalidInput(f"{name} has length {v.shape[0]}, expected {size}")
    return v


def vector_stack(value, name: str, count: int, size: int, what: str) -> np.ndarray:
    """``value`` as one (count, size) finite array: one conversion, one test.

    Each row must be a 1-D vector of length ``size``. Only when the test
    fails is ``value`` examined further: a count other than ``count``
    raises ``expected 31 observation vectors, got 30`` (``what`` names
    the rows), otherwise the rows are scanned with :func:`sized_vector`
    to name the first bad one (``y_seq[17] has length 3, expected 2``).
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None  # ragged or not numeric: the row scan says where
    if a is not None:
        if a.shape == (count, size) and np.isfinite(a).all():
            return a
        if a.ndim == 0:
            raise InvalidInput(f"{name} must be a sequence of vectors")
    if len(value) != count:
        raise InvalidInput(f"expected {count} {what}, got {len(value)}")
    return np.array([sized_vector(v, f"{name}[{k}]", size) for k, v in enumerate(value)])


def _distinct(stack: np.ndarray) -> np.ndarray:
    """The entries of a stack that can differ: one for a broadcast stack."""
    if stack.shape[0] > 1 and stack.strides[0] == 0:
        return stack[:1]
    return stack


def per_entry(fn: Callable, *stacks: np.ndarray):
    """``fn(*stacks)`` for a batched ``fn`` of equally long stacks.

    When every stack is a stride-0 broadcast of one matrix, ``fn`` runs
    on that one entry and each result is broadcast back to the full
    count, so a constant model costs O(1) time and memory. ``fn`` may
    return one array or a tuple of arrays.
    """
    count = stacks[0].shape[0]
    if count < 2 or any(_distinct(s).shape[0] > 1 for s in stacks):
        return fn(*stacks)

    def spread(o):
        return np.broadcast_to(o, (count,) + o.shape[1:])

    out = fn(*(s[:1] for s in stacks))
    return tuple(map(spread, out)) if isinstance(out, tuple) else spread(out)


def read_only(a: np.ndarray, source=None) -> np.ndarray:
    """``a`` made read-only, copied first if it is ``source``, the caller's
    own writeable array, so a frozen model never aliases mutable input."""
    if a is source and a.flags.writeable:
        a = a.copy()
    a.flags.writeable = False
    return a


def as_matrix_stack(
    value,
    name: str = "stack",
    check: Callable = as_matrix,
) -> np.ndarray:
    """Validate a sequence of equally shaped finite matrices as one stack.

    Returns a read-only float array of shape (count, rows, cols); an
    empty sequence gives shape (0, 0, 0). A broadcast stack (one matrix
    repeated with stride 0) stays a broadcast and is checked once. The
    normal path is one ``np.asarray`` and one finiteness test. Only when
    it fails are the entries scanned, each by ``check(entry, name[i])``,
    so the error names the first offending entry; entries that all pass
    but differ in shape are reported at the first one whose shape differs
    from entry 0.
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is not None:
        if a.ndim == 1 and a.shape[0] == 0:
            return read_only(np.zeros((0, 0, 0)))
        if a.ndim == 3 and np.isfinite(_distinct(a)).all():
            return read_only(a, value)
        if a.ndim == 0:
            raise InvalidInput(f"{name} must be a sequence of matrices")
    mats = [check(entry, f"{name}[{i}]") for i, entry in enumerate(value)]
    for i, mat in enumerate(mats):
        if mat.shape != mats[0].shape:
            raise InvalidInput(
                f"{name}[{i}] has shape {mat.shape}, expected {mats[0].shape}"
            )
    raise InvalidInput(f"{name} is not a stack of matrices")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a')/2 per matrix of a stack, as a/2 + a'/2 so as not to overflow."""
    return 0.5 * a + 0.5 * a.swapaxes(-1, -2)


def spd_stack_error(stack: np.ndarray, label: Callable[[int], str]):
    """The first entry of a finite stack that is not SPD, as (index, error).

    None when every entry is symmetric positive definite. The tests are
    those of :func:`require_spd`, run on the whole stack at once: one
    square test, one symmetry test (to SYMMETRY_TOL of each entry's scale) and
    one batched Cholesky of the symmetrized entries. A broadcast stack is
    tested once. The entries are scanned one by one only to find which
    Cholesky failed.
    """
    if stack.shape[0] == 0:
        return None
    if stack.shape[1] != stack.shape[2]:
        return 0, InvalidBounds(f"{label(0)} must be square, got shape {stack.shape[1:]}")
    d = _distinct(stack)
    scale = 1.0 + np.abs(d).max(axis=(1, 2), initial=0.0)
    asym = np.abs(d - np.swapaxes(d, 1, 2)).max(axis=(1, 2), initial=0.0) > SYMMETRY_TOL * scale
    first_asym = int(np.argmax(asym)) if asym.any() else d.shape[0]
    sym = symmetrize(d[:first_asym])
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        for i, entry in enumerate(sym):
            try:
                np.linalg.cholesky(entry)
            except np.linalg.LinAlgError:
                return i, InvalidBounds(f"{label(i)} is not positive definite")
    if first_asym < d.shape[0]:
        return first_asym, InvalidBounds(f"{label(first_asym)} is not symmetric")
    return None


def require_spd(q, name: str = "weight") -> np.ndarray:
    """Return ``q`` as an array after checking symmetric positive definiteness."""
    a = as_matrix(q, name)
    error = spd_stack_error(a[None], lambda i: name)
    if error is not None:
        raise error[1]
    return a


def require_spd_stack(value, name: str = "weights") -> np.ndarray:
    """Validate a stack of SPD matrices at once; see :func:`spd_stack_error`.

    Returns the read-only stack of :func:`as_matrix_stack`. An error
    names the first offending entry, e.g. ``Q1_seq[17] is not positive
    definite``; entries of different shapes are checked one by one, so
    an entry that is not SPD is reported before the shape mismatch.
    """
    a = as_matrix_stack(value, name, check=require_spd)
    error = spd_stack_error(a, lambda i: f"{name}[{i}]")
    if error is not None:
        raise error[1]
    return a


def invertible(stack: np.ndarray) -> np.ndarray:
    """Per entry of a stack of square matrices, whether s_min > DEFAULT_TOL
    s_max: one batched SVD, run once for a broadcast stack."""
    if stack.shape[1] == 0:
        return np.ones(stack.shape[0], dtype=bool)

    def regular(B):
        s = np.linalg.svd(B, compute_uv=False)
        return s[:, -1] > DEFAULT_TOL * s[:, 0]

    return per_entry(regular, stack)


def check_energy(beta, start: Optional[int] = None) -> None:
    """Raise InconsistentData at the first least data energy beta_k above
    1 + NEGATIVE_FLOOR: no admissible disturbance explains the data. A
    filter passes a block of steps with its first step ``start``."""
    beta = np.atleast_1d(beta)
    over = beta > 1.0 + NEGATIVE_FLOOR
    if over.any():
        i = int(np.argmax(over))
        where = "" if start is None else f" at step {start + i}"
        raise InconsistentData(
            f"observations are inconsistent with the disturbance bound{where} "
            f"(energy overshoot {beta[i] - 1.0:.3e})"
        )


def nonnegative_mse(sigma_sq: float, ell: np.ndarray) -> float:
    """An a priori worst-case mean-squared error (ell, p), clamped at 0.

    Raises NumericalBreakdown when it falls below 0 by more than
    NEGATIVE_FLOOR (1 + ||ell||^2): rounding cannot explain that.
    """
    if sigma_sq < -NEGATIVE_FLOOR * (1.0 + float(ell @ ell)):
        raise NumericalBreakdown(
            f"worst-case mean-squared error came out negative ({sigma_sq:.3e})"
        )
    return max(sigma_sq, 0.0)


def spd_solve(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve q @ x = b for symmetric positive definite q.

    The calls and checks of ``scipy.linalg.cho_factor`` and ``cho_solve``:
    dpotrf on the upper triangle of the symmetrized q, then dpotrs. A
    non-finite entry is a ValueError, a q that is not positive definite
    a LinAlgError. An empty system has the empty solution, which dpotrs
    would refuse.
    """
    c, info = lapack.dpotrf(np.asarray_chkfinite(symmetrize(q)), lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    b = np.asarray_chkfinite(b)
    if not b.size:
        return np.empty_like(b, dtype=float)
    return lapack.dpotrs(c, b, lower=0)[0]


def solve_triangular(
    a: np.ndarray, b: np.ndarray, trans: int = 0, lower: bool = False
) -> np.ndarray:
    """x with a @ x = b, or a' @ x = b for ``trans=1``, a triangular.

    The dtrtrs call of ``scipy.linalg.solve_triangular`` with
    ``check_finite=False``: a C-ordered ``a`` is passed as the Fortran-ordered
    ``a.T`` with ``lower`` and ``trans`` flipped. A zero pivot is a LinAlgError.
    """
    if a.flags.f_contiguous:
        x, info = lapack.dtrtrs(a, b, lower=lower, trans=trans)
    else:
        x, info = lapack.dtrtrs(a.T, b, lower=not lower, trans=not trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    return x


def spd_inverse(q: np.ndarray) -> np.ndarray:
    return symmetrize(spd_solve(q, np.eye(q.shape[0])))


def in_span(basis: np.ndarray, target: np.ndarray, scale: float) -> bool:
    """Whether ``target`` lies in the span of the orthonormal columns of
    ``basis``: its residual ||target - B B'target|| is at most
    MEMBERSHIP_TOL * (1 + scale), with ``scale`` the norm of the functional
    being tested. The projection onto an orthonormal basis (Golub & Van
    Loan, *Matrix Computations*, 4th ed., 2013, section 6.2) is the whole
    test.
    """
    residual = target - basis @ (basis.T @ target)
    return bool(np.linalg.norm(residual) <= MEMBERSHIP_TOL * (1.0 + scale))


@dataclass(frozen=True)
class SvdSubspaces:
    """Orthonormal bases of the four fundamental subspaces of a matrix."""

    range_basis: np.ndarray        # columns span range(a)
    range_complement: np.ndarray   # columns span range(a)^perp
    row_basis: np.ndarray          # columns span range(a')
    kernel_basis: np.ndarray       # columns span ker(a)
    rank: int


def svd_subspaces(a) -> SvdSubspaces:
    """SVD-based bases with rank decided against DEFAULT_TOL * largest singular value."""
    m = as_matrix(a, "matrix")
    if m.size == 0:
        rank = 0
        u = np.eye(m.shape[0])
        v = np.eye(m.shape[1])
        return SvdSubspaces(u[:, :0], u, v[:, :0], v, 0)
    u, s, vt = np.linalg.svd(m)
    cutoff = DEFAULT_TOL * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return SvdSubspaces(
        range_basis=u[:, :rank],
        range_complement=u[:, rank:],
        row_basis=vt[:rank].T,
        kernel_basis=vt[rank:].T,
        rank=rank,
    )


# ---------------------------------------------------------------------------
# Banded LU with a regularity test


def band_matvec(band: np.ndarray, kl: int, ku: int, x: np.ndarray) -> np.ndarray:
    """A @ x for A in LAPACK dgbtrf storage, A[i, j] = band[kl + ku + i - j, j].

    ``x`` has shape (dim, k); the result has the same shape.
    """
    dim = band.shape[1]
    out = np.zeros(x.shape)
    for d in range(-ku, kl + 1):  # d = i - j
        diag = band[kl + ku + d]
        if d >= 0:
            out[d:] += diag[: dim - d, None] * x[: dim - d]
        else:
            out[:d] += diag[-d:, None] * x[-d:]
    return out


def inverse_norm1_estimate(
    solve: Callable[[np.ndarray], np.ndarray],
    solve_t: Callable[[np.ndarray], np.ndarray],
    dim: int,
) -> float:
    """Estimate ||A^{-1}||_1 from solves with A (``solve``) and A' (``solve_t``).

    Hager's iteration (SIAM J. Sci. Stat. Comput. 5(2), 1984) in the form
    of Higham (ACM TOMS 14(4), 1988, Algorithm 4.1): each step solves
    with A and with A' and moves to the unit vector the gradient favours;
    a last solve with an alternating-sign vector catches the matrices the
    iteration misjudges. Every candidate is ||A^{-1} v||_1 / ||v||_1 for
    some v, so the estimate never exceeds the true norm. Cost: at most
    eleven solves (Higham's limit of five steps), usually five.
    """
    x = np.full(dim, 1.0 / dim)
    est = 0.0
    for _ in range(5):
        y = solve(x)
        est = max(est, float(np.abs(y).sum()))
        z = solve_t(np.where(y >= 0.0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(dim)
        x[j] = 1.0
    if dim > 1:
        alt = (1.0 + np.arange(dim) / (dim - 1)) * (-1.0) ** np.arange(dim)
        est = max(est, float(np.abs(solve(alt)).sum() / np.abs(alt).sum()))
    return est


@dataclass(frozen=True)
class BandedFactor:
    """LU factors of a square band matrix and the verdict on its regularity.

    ``lu`` and ``piv`` are the dgbtrf factors of a matrix with ``kl``
    sub- and ``ku`` superdiagonals, ``norm1`` its 1-norm. ``rcond`` is
    the smaller of the estimated reciprocal 1- and inf-norm condition
    numbers, 0.0 when dgbtrf met an exactly zero pivot. ``regular``
    holds when it reaches ``floor``; see RCOND_FLOOR.
    """

    kl: int
    ku: int
    lu: np.ndarray
    piv: np.ndarray
    norm1: float
    rcond: float
    floor: float

    @property
    def regular(self) -> bool:
        return self.rcond >= self.floor

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """Solve A x = b for every column of b, or return None.

        None unless the matrix is regular and every solution passes
        ||A||_1 ||x||_1 <= ||b||_1 / floor. Because ||A^-1||_1 >=
        ||x||_1 / ||b||_1, a failure proves 1/(||A||_1 ||A^-1||_1) < floor:
        a deterministic check behind the estimate.
        """
        if not self.regular:
            return None
        x, _ = lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        sizes = self.floor * self.norm1 * np.abs(x).sum(axis=0)
        if not np.all(sizes <= np.abs(b).sum(axis=0)):
            return None
        return x


def factor_banded(band: np.ndarray, kl: int, ku: int) -> BandedFactor:
    """Factor a band matrix once (dgbtrf) and estimate its condition.

    ``band`` is the matrix in LAPACK dgbtrf storage (2 kl + ku + 1 rows,
    the first kl of them workspace).

    The estimate uses only dgbtrs solves on the factors, a few O(dim)
    passes, never the quadratic-time dgbcon. The regularity floor is
    RCOND_FLOOR as it stands at call time.
    """
    lu, piv, info = lapack.dgbtrf(band, kl, ku)
    norm1 = float(np.abs(band).sum(axis=0).max())
    rcond = 0.0
    if info == 0:
        dim = band.shape[1]
        norm_inf = float(band_matvec(np.abs(band), kl, ku, np.ones((dim, 1))).max())

        def solve(v):
            return lapack.dgbtrs(lu, kl, ku, v, piv)[0]

        def solve_t(v):
            return lapack.dgbtrs(lu, kl, ku, v, piv, trans=1)[0]

        cond = max(
            norm1 * inverse_norm1_estimate(solve, solve_t, dim),
            norm_inf * inverse_norm1_estimate(solve_t, solve, dim),
        )
        if 0.0 < cond < np.inf:
            rcond = 1.0 / cond
    return BandedFactor(kl, ku, lu, piv, norm1, rcond, RCOND_FLOOR)


def factor_spd_banded(band: np.ndarray, norm1: float) -> tuple:
    """Factor an SPD band matrix (LAPACK dpbtrf) and estimate its condition.

    ``band`` holds the upper triangle in dpbtrf storage, A[i, j] =
    band[kd + i - j, j] for i <= j, and ``norm1`` is ||A||_1. Returns the
    factor R (A = R'R, same storage) and the estimated reciprocal
    condition number 1/(||A||_1 ||A^-1||_1), from dpbtrs solves only; the
    rcond is 0.0 when the estimate is not finite. When dpbtrf meets a
    pivot that is not positive there is no factor: (None, 0.0). ``band``
    is overwritten.
    """
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    if info:
        return None, 0.0
    return factor, spd_banded_rcond(factor, norm1)


def spd_banded_rcond(factor: np.ndarray, norm1: float) -> float:
    """The estimated reciprocal condition number 1/(||A||_1 ||A^-1||_1)
    of an SPD band matrix A = R'R, from its factor R in dpbtrf storage
    and ``norm1`` = ||A||_1, by dpbtrs solves only; 0.0 when the estimate
    is not finite."""

    def solve(v):
        return lapack.dpbtrs(factor, v[:, None])[0][:, 0]

    cond = norm1 * inverse_norm1_estimate(solve, solve, factor.shape[1])
    return 1.0 / cond if 0.0 < cond < np.inf else 0.0


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Matrix with ``blocks`` on its diagonal and zeros elsewhere.

    Each argument is one matrix or a stack (count, rows, cols) of equal
    ones, laid out in order; zero-row and zero-column blocks shift the
    blocks after them. Values and dtype are those of
    ``scipy.linalg.block_diag`` on the matrices one by one. The output is
    allocated once and each stack copied through one strided view of it.
    """
    stacks = [b[None] if b.ndim == 2 else b for b in map(np.asarray, blocks)]
    rows = sum(s.shape[0] * s.shape[1] for s in stacks)
    cols = sum(s.shape[0] * s.shape[2] for s in stacks)
    out = np.zeros((rows, cols), np.result_type(*stacks) if stacks else float)
    s0, s1 = out.strides
    r = c = 0
    for s in stacks:
        count, rr, cc = s.shape
        as_strided(out[r:, c:], s.shape, (rr * s0 + cc * s1, s0, s1))[...] = s
        r += count * rr
        c += count * cc
    return out
