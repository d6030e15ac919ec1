"""Worst-case optimal estimation for static algebraic models.

The model is an algebraic equation ``F x = B f`` observed through
``y = H x + g``, where the pair of disturbances ``(f, g)`` is only known
to lie in the ellipsoid ``(Q1 f, f) + (Q2 g, g) <= 1``. Neither F nor H
needs full rank; x is in general not determined by the data, and the
quantity of interest is a linear functional ``(ell, x)``.

Two estimates are provided.

* The a priori estimate is a linear readout ``u_hat' y`` chosen before
  data arrives so that the worst-case squared error over all model
  solutions and admissible disturbances is minimal. Its optimal value
  exists exactly when ``ell`` lies in the span of the rows of F and H
  combined; otherwise every readout has infinite worst-case error.
* The a posteriori estimate evaluates ``(ell, x_hat)`` at the Chebyshev
  center x_hat of the set of states consistent with one observed y. The
  attached error radius is exact, not a bound: the consistency set is an
  ellipsoid and x_hat is its center, so the reported radius is attained.

Both solve on the solution set of the model, reduced once and factored
once (the null-space method; Golub & Van Loan, *Matrix Computations*,
4th ed., 2013, section 6.2). Z spans ker [F, -B], so every solution is
(x, f) = Z xi, split as Z_x = Z[:n] and Z_f = Z[n:]. With V = chol(Q)'
for each weight, the energy of xi against data y is ||d - K xi||^2, where

    K = [V2 H Z_x; V1 Z_f],    d = [V2 y; 0].

One thin SVD K = U diag(s) W', with rank cut at DEFAULT_TOL times the
largest singular value, gives every answer:

* ell is representable iff g = Z_x'ell lies in the row space of K, that
  is ||g - W W'g|| <= MEMBERSHIP_TOL (1 + ||ell||), the test of
  :func:`.linalg.in_span`;
* the a priori direction is p = Z_x W diag(s)^-2 W'g, the worst-case
  mean-squared error (ell, p) = ||diag(s)^-1 W'g||^2, a sum of squares,
  and the readout u_hat = Q2 H p;
* the center is x_hat = Z_x K^+ d, and beta = ||d - U U'd||^2, summed
  from the residual vector (0 where K keeps full row rank), is the least
  energy that explains y.

Weights scaled by s and data by 1/sqrt(s) scale K by sqrt(s) and leave
d, Z, U and W as they were, so no decision reads an absolute scale. A K
that is not finite (rows or weights near the overflow threshold) raises
NumericalBreakdown before it is factored. When
F x = B f leaves x underdetermined, x_hat is one of many centers;
(ell, x_hat), u_hat and (ell, p) are the same for all of them wherever
ell is representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import InvalidInput, NumericalBreakdown
from .linalg import (
    DEFAULT_TOL,
    RCOND_FLOOR,
    as_matrix,
    check_energy,
    in_span,
    require_spd,
    sized_vector,
    svd_subspaces,
)


@dataclass(frozen=True)
class StaticModel:
    """Algebraic model F x = B f with observation map H.

    Shapes: F is (m, n), B is (m, p), H is (l, n). No rank assumptions.
    """

    F: np.ndarray
    B: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", as_matrix(self.F, "F"))
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        object.__setattr__(self, "H", as_matrix(self.H, "H"))
        if self.B.shape[0] != self.F.shape[0]:
            raise InvalidInput(
                f"B has {self.B.shape[0]} rows but F has {self.F.shape[0]}"
            )
        if self.H.shape[1] != self.F.shape[1]:
            raise InvalidInput(
                f"H has {self.H.shape[1]} columns but F has {self.F.shape[1]}"
            )

    @property
    def state_dim(self) -> int:
        return self.F.shape[1]

    @property
    def equation_dim(self) -> int:
        return self.F.shape[0]

    @property
    def disturbance_dim(self) -> int:
        return self.B.shape[1]

    @property
    def observation_dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class StaticEllipsoid:
    """Ellipsoidal disturbance bound (Q1 f, f) + (Q2 g, g) <= 1.

    One bound serves both estimates; the function called says which is made.
    """

    Q1: np.ndarray
    Q2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q1", require_spd(self.Q1, "Q1"))
        object.__setattr__(self, "Q2", require_spd(self.Q2, "Q2"))


def _check_pair(model: StaticModel, bounds: StaticEllipsoid) -> None:
    if bounds.Q1.shape[0] != model.disturbance_dim:
        raise InvalidInput(
            f"Q1 is {bounds.Q1.shape[0]}x{bounds.Q1.shape[0]} but the model has "
            f"{model.disturbance_dim} disturbance components"
        )
    if bounds.Q2.shape[0] != model.observation_dim:
        raise InvalidInput(
            f"Q2 is {bounds.Q2.shape[0]}x{bounds.Q2.shape[0]} but the model has "
            f"{model.observation_dim} observations"
        )


@dataclass(frozen=True)
class Estimate:
    """What every minimax estimator returns: a center and its worst-case error.

    ``radius`` is always a half-width: no state consistent with the model,
    the bound and (in the a posteriori modes) the data puts (ell, x) further
    than ``radius`` from ``estimate``. It is infinite, with ``feasible``
    False, when the functional is not representable. ``estimate`` is None
    when an a priori estimator has no data to apply its readout to, or no
    finite readout. The a priori estimators and the Riccati filter also set
    ``worst_case_mse``, the minimal worst-case mean-squared error, of which
    ``radius`` is the square root. So the Riccati filter's radius is the a
    priori one: it leaves out the data's share of the budget, which
    :func:`.filtering.filter_run` takes into its attained radius.

    ``outputs`` holds the arrays a report writes, under its names and
    shapes, and ``solver`` the report's ``diagnostics.solver`` entry
    (:func:`solver_record`). No report writes ``p``, the a priori
    direction (per step on chains), or ``K_nodes``, the gain at every grid
    node of the Riccati filter. Arrays are held by reference, not copied.
    """

    feasible: bool
    estimate: Optional[float]
    radius: float
    worst_case_mse: Optional[float] = None
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    solver: Optional[dict] = None
    p: Optional[np.ndarray] = None
    K_nodes: Optional[np.ndarray] = None


def solver_record(
    path: str, rcond: Optional[float] = None, floor: float = RCOND_FLOOR
) -> dict:
    """The ``diagnostics.solver`` entry of a report.

    ``path`` names the route taken: "banded" for the band saddle solve
    of a chain, "dense" for the static estimators (a chain's fallback),
    "information" or "recursive" for the filter. ``rcond_estimate``
    is the estimated reciprocal condition number of the factored matrix
    (None where no band factorization was attempted) and ``rcond_floor``
    the level it had to reach for the fast route.
    """
    return {"path": path, "rcond_estimate": rcond, "rcond_floor": floor}


def representable(model: StaticModel, ell) -> bool:
    """Whether (ell, x) admits a finite worst-case error.

    True iff ell lies in range([F' H']), i.e. some combination of model
    rows and observation rows reproduces the functional: the test of
    :func:`.linalg.in_span` on the range basis of [F' H'].
    """
    target = sized_vector(ell, "ell", model.state_dim)
    rows = svd_subspaces(np.hstack([model.F.T, model.H.T])).range_basis
    return in_span(rows, target, np.linalg.norm(target))


def _reduce(model: StaticModel, bounds: StaticEllipsoid):
    """The reduction of the module docstring, factored once: Z_x, the
    thin SVD of K cut at DEFAULT_TOL s_max as U, s and W, and V2, which
    whitens the data. Raises NumericalBreakdown when K is not finite."""
    n = model.state_dim
    Z = svd_subspaces(np.hstack([model.F, -model.B])).kernel_basis
    V1 = np.linalg.cholesky(bounds.Q1).T
    V2 = np.linalg.cholesky(bounds.Q2).T
    # rows or weights near the overflow threshold overflow K: the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.vstack([V2 @ (model.H @ Z[:n]), V1 @ Z[n:]])
    if not np.isfinite(K).all():
        raise NumericalBreakdown("the whitened rows of the reduced model are not finite")
    U, s, Wt = np.linalg.svd(K, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_TOL * s[0])) if s.size else 0
    return Z[:n], U[:, :rank], s[:rank], Wt[:rank].T, V2


def _readout(Zx, s, W, target):
    """p = Z_x W diag(s)^-2 W'g and (ell, p) = ||diag(s)^-1 W'g||^2 for
    g = Z_x'ell, or None when g leaves the row space of K by the test of
    :func:`.linalg.in_span`: ell is then not representable."""
    g = Zx.T @ target
    if not in_span(W, g, np.linalg.norm(target)):
        return None
    c = (W.T @ g) / s
    return Zx @ (W @ (c / s)), float(c @ c)


def apriori_estimate(
    model: StaticModel, bounds: StaticEllipsoid, ell, y=None
) -> Estimate:
    """Minimax linear readout for (ell, x) chosen before seeing data.

    The readout vector u_hat = Q2 H p and its worst-case mean-squared
    error (ell, p) come from the reduced problem of the module docstring;
    the outputs are ``u_hat`` and ``p``. When ell is not representable
    the estimate is infeasible, with an infinite radius. If ``y`` is
    given the scalar readout u_hat' y is filled in as ``estimate``.
    """
    _check_pair(model, bounds)
    target = sized_vector(ell, "ell", model.state_dim)
    if y is not None:
        y = sized_vector(y, "y", model.observation_dim)
    Zx, _, s, W, _ = _reduce(model, bounds)
    readout = _readout(Zx, s, W, target)
    if readout is None:
        return Estimate(False, None, math.inf, math.inf, solver=solver_record("dense"))

    p, sigma_sq = readout
    u_hat = bounds.Q2 @ (model.H @ p)
    return Estimate(
        feasible=True,
        estimate=float(u_hat @ y) if y is not None else None,
        radius=math.sqrt(sigma_sq),
        worst_case_mse=sigma_sq,
        outputs={"u_hat": u_hat, "p": p},
        solver=solver_record("dense"),
        p=p,
    )


def aposteriori_estimate(
    model: StaticModel, bounds: StaticEllipsoid, ell, y
) -> Estimate:
    """Chebyshev-center estimate of (ell, x) given one observation vector.

    x_hat = Z_x K^+ d minimizes the total disturbance energy needed to
    explain y, so it is the center of the ellipsoid of consistent states.
    The radius for (ell, x) factors as

        radius = sqrt(1 - beta) * sqrt((ell, p))

    with beta = ||d - U U'd||^2 the least energy that explains y and p
    from the a priori readout: the first factor is the part of the
    uncertainty budget the data left unused, the second is the a priori
    radius of the functional. A beta above 1 (beyond rounding) means no
    admissible disturbance explains y at all, which raises
    InconsistentData. The outputs are ``x_hat`` and, when the radius is
    finite, the a priori readout ``u_hat`` = Q2 H p.
    """
    _check_pair(model, bounds)
    target = sized_vector(ell, "ell", model.state_dim)
    y = sized_vector(y, "y", model.observation_dim)
    Zx, U, s, W, V2 = _reduce(model, bounds)
    d = np.concatenate([V2 @ y, np.zeros(model.disturbance_dim)])
    coef = U.T @ d
    x_hat = Zx @ (W @ (coef / s))
    estimate = float(target @ x_hat)
    residual = d - U @ coef  # with full row rank its rounding is no energy
    beta = float(residual @ residual) if U.shape[1] < U.shape[0] else 0.0
    check_energy(beta)

    readout = _readout(Zx, s, W, target)
    if readout is None:
        return Estimate(
            False, estimate, math.inf, outputs={"x_hat": x_hat}, solver=solver_record("dense")
        )

    p, sigma_sq = readout
    return Estimate(
        feasible=True,
        estimate=estimate,
        radius=math.sqrt(max(1.0 - beta, 0.0)) * math.sqrt(sigma_sq),
        outputs={"x_hat": x_hat, "u_hat": bounds.Q2 @ (model.H @ p)},
        solver=solver_record("dense"),
        p=p,
    )
