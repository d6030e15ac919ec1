"""Shared linear-algebra helpers.

Everything here wraps numpy/scipy routines behind the conventions the
estimators rely on: a single truncation tolerance, minimum-norm least
squares as the default solver, a banded LU that is trusted only where
it provably agrees with that solver, and explicit result types instead
of bare tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import InvalidBounds, InvalidInput

# Relative singular-value cutoff used for every rank decision.
DEFAULT_TOL = 1e-10

# Relative residual cutoff for range-membership tests.
MEMBERSHIP_TOL = 1e-8

# Tolerated negative floor for quantities that are nonnegative in exact
# arithmetic (slack of the uncertainty budget, squared radii), per unit
# of scale.
NEGATIVE_FLOOR = 1e-9

# Largest residual of a saddle-point solve, per unit of 1 + ||rhs||, that
# counts as a solution. Above it the assembled system is inconsistent
# beyond what rank truncation explains: the solve has broken down.
SADDLE_RESIDUAL_TOL = 1e-6

# Smallest estimated reciprocal condition number for which a banded LU
# solve is trusted in place of minimum-norm least squares. A matrix is
# accepted only if the estimates of both 1/(||A||_1 ||A^-1||_1) and
# 1/(||A||_inf ||A^-1||_inf) reach this floor. Since
# ||M||_2^2 <= ||M||_1 ||M||_inf for every M, the true values bound
# sigma_min / sigma_max from below by the same number, with no factor of
# the dimension. The floor sits 1000x above DEFAULT_TOL, so every matrix
# that least squares would truncate (sigma_min <= DEFAULT_TOL sigma_max)
# is rejected even if the estimator, which never overestimates the
# norm of the inverse, comes out low by up to that factor. For a looser
# ``tol`` the floor scales up in proportion.
RCOND_FLOOR = 1e-7


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
    return one array or a tuple of arrays (or None).
    """
    count = stacks[0].shape[0]
    if count < 2 or any(_distinct(s).shape[0] > 1 for s in stacks):
        return fn(*stacks)

    def spread(o):
        return None if o is None else np.broadcast_to(o, (count,) + o.shape[1:])

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
    label: Optional[Callable[[int], str]] = None,
) -> np.ndarray:
    """Validate a sequence of equally shaped finite matrices as one stack.

    Returns a read-only float array of shape (count, rows, cols); an
    empty sequence gives shape (0, 0, 0). A broadcast stack (one matrix
    repeated with stride 0) stays a broadcast and is checked once. The
    normal path is one ``np.asarray`` and one finiteness test. Only when
    it fails are the entries scanned, each by ``check(entry, label(i))``
    (default label ``name[i]``), so the error names the first offending
    entry; entries that all pass but differ in shape are reported at the
    first one whose shape differs from entry 0.
    """
    label = label or (lambda i: f"{name}[{i}]")
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
    mats = [check(entry, label(i)) for i, entry in enumerate(value)]
    for i, mat in enumerate(mats):
        if mat.shape != mats[0].shape:
            raise InvalidInput(
                f"{label(i)} has shape {mat.shape}, expected {mats[0].shape}"
            )
    raise InvalidInput(f"{name} is not a stack of matrices")


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def spd_stack_error(stack: np.ndarray, label: Callable[[int], str]):
    """The first entry of a finite stack that is not SPD, as (index, error).

    None when every entry is symmetric positive definite. The tests are
    those of :func:`require_spd`, run on the whole stack at once: one
    square test, one symmetry test (to 1e-12 of each entry's scale) and
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
    asym = np.abs(d - np.swapaxes(d, 1, 2)).max(axis=(1, 2), initial=0.0) > 1e-12 * scale
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
    def label(i):
        return f"{name}[{i}]"

    a = as_matrix_stack(value, name, check=require_spd, label=label)
    error = spd_stack_error(a, label)
    if error is not None:
        raise error[1]
    return a


def spd_solve(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve q @ x = b for symmetric positive definite q."""
    c, low = scipy.linalg.cho_factor(symmetrize(q))
    return scipy.linalg.cho_solve((c, low), b)


def spd_inverse(q: np.ndarray) -> np.ndarray:
    return symmetrize(spd_solve(q, np.eye(q.shape[0])))


def pseudo_inverse(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below tol*s_max dropped."""
    m = as_matrix(a, "pseudo_inverse argument")
    if m.size == 0:
        return m.T.copy()
    return np.linalg.pinv(m, rcond=tol)


@dataclass(frozen=True)
class LinearSolveResult:
    """Minimum-norm least-squares solution together with solve diagnostics."""

    solution: np.ndarray
    residual_norm: Union[float, np.ndarray]
    rank: int


def solve_least_squares(a, b, tol: float = DEFAULT_TOL) -> LinearSolveResult:
    """Minimum-norm least-squares solution of a @ x = b.

    ``b`` is one right-hand side (rows,) or k of them as the columns of a
    (rows, k) array, which share one factorization; the solution then has
    k columns and ``residual_norm`` is an array of k norms. The residual
    reported is ||a @ x - b||_2 recomputed from the solution, not the one
    numpy returns, so it is meaningful in rank-deficient cases.
    """
    am = as_matrix(a, "coefficient matrix")
    bv = (as_matrix if np.ndim(b) == 2 else as_vector)(b, "right-hand side")
    if am.shape[0] != bv.shape[0]:
        raise InvalidInput(
            f"incompatible solve: matrix has {am.shape[0]} rows, rhs has {bv.shape[0]}"
        )
    x, _, rank, _ = np.linalg.lstsq(am, bv, rcond=tol)
    r = am @ x - bv
    residual = float(np.linalg.norm(r)) if bv.ndim == 1 else np.linalg.norm(r, axis=0)
    return LinearSolveResult(solution=x, residual_norm=residual, rank=int(rank))


@dataclass(frozen=True)
class RangeMembership:
    """Outcome of testing whether a vector lies in the span of given columns."""

    member: bool
    coefficients: Optional[np.ndarray]
    residual: float


def range_membership(columns, target, tol: float = MEMBERSHIP_TOL) -> RangeMembership:
    """Decide whether ``target`` is in the column span of ``columns``.

    Membership holds when the least-squares residual is at most
    tol * (1 + ||target||), which keeps the test meaningful for both
    tiny and large targets.
    """
    a = as_matrix(columns, "columns")
    t = as_vector(target, "target")
    if a.shape[0] != t.shape[0]:
        raise InvalidInput("columns and target have incompatible heights")
    if a.shape[1] == 0:
        residual = float(np.linalg.norm(t))
        ok = residual <= tol * (1.0 + residual)
        return RangeMembership(ok, np.zeros(0) if ok else None, residual)
    fit = solve_least_squares(a, t)
    threshold = tol * (1.0 + float(np.linalg.norm(t)))
    if fit.residual_norm <= threshold:
        return RangeMembership(True, fit.solution, fit.residual_norm)
    return RangeMembership(False, None, fit.residual_norm)


@dataclass(frozen=True)
class SvdSubspaces:
    """Orthonormal bases of the four fundamental subspaces of a matrix."""

    range_basis: np.ndarray        # columns span range(a)
    range_complement: np.ndarray   # columns span range(a)^perp
    row_basis: np.ndarray          # columns span range(a')
    kernel_basis: np.ndarray       # columns span ker(a)
    rank: int


def svd_subspaces(a, tol: float = DEFAULT_TOL) -> SvdSubspaces:
    """SVD-based bases with rank decided against tol * largest singular value."""
    m = as_matrix(a, "matrix")
    if m.size == 0:
        rank = 0
        u = np.eye(m.shape[0])
        v = np.eye(m.shape[1])
        return SvdSubspaces(u[:, :0], u, v[:, :0], v, 0)
    u, s, vt = np.linalg.svd(m)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return SvdSubspaces(
        range_basis=u[:, :rank],
        range_complement=u[:, rank:],
        row_basis=vt[:rank].T,
        kernel_basis=vt[rank:].T,
        rank=rank,
    )


def null_basis(a, tol: float = DEFAULT_TOL, scale: Optional[float] = None) -> np.ndarray:
    """Orthonormal basis of ker(a), thresholding against an external scale.

    When ``a`` is itself a product of larger matrices, its entries can be
    pure rounding dust; thresholding against its own largest singular value
    would then invent spurious rank. Passing the norm of the parent problem
    as ``scale`` keeps the rank decision anchored to the data.
    """
    m = as_matrix(a, "matrix")
    n = m.shape[1]
    if m.shape[0] == 0 or n == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(m)
    anchor = max(s[0] if s.size else 0.0, scale if scale is not None else 0.0)
    rank = int(np.sum(s > tol * anchor)) if anchor > 0.0 else 0
    return vt[rank:].T


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

    ``band`` is the matrix in LAPACK dgbtrf storage (2 kl + ku + 1 rows,
    the first kl of them workspace). ``rcond`` is the smaller of the
    estimated reciprocal 1- and inf-norm condition numbers, 0.0 when
    dgbtrf met an exactly zero pivot. ``regular`` holds when it reaches
    ``floor``; see RCOND_FLOOR.
    """

    band: np.ndarray
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

    def residual_norms(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """||A x - b||_2 for every column."""
        return np.linalg.norm(band_matvec(self.band, self.kl, self.ku, x) - b, axis=0)


def factor_banded(
    band: np.ndarray, kl: int, ku: int, tol: float = DEFAULT_TOL
) -> BandedFactor:
    """Factor a band matrix once (dgbtrf) and estimate its condition.

    The estimate uses only dgbtrs solves on the factors, a few O(dim)
    passes, never the quadratic-time dgbcon.
    """
    floor = RCOND_FLOOR * max(1.0, tol / DEFAULT_TOL)
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
    return BandedFactor(band, kl, ku, lu, piv, norm1, rcond, floor)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    if not blocks:
        return np.zeros((0, 0))
    return scipy.linalg.block_diag(*blocks)
