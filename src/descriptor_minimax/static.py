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

Both reduce to one saddle-point system. With ``G = B Q1^{-1} B'``,

    [ F      -G   ] [ a ]   [ 0 ]
    [ H'Q2H   F'  ] [ b ] = [ r ]

solved in the minimum-norm least-squares sense. With r = ell the
solution (p, z) gives the a priori readout u_hat = Q2 H p and squared
radius (ell, p). With r = H'Q2 y it gives (x_hat, p_hat) for the center.
The system is singular whenever the model leaves x underdetermined, but
every solution yields the same u_hat, (ell, p) and (ell, x_hat); only
those invariants are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import InvalidInput, NumericalBreakdown
from .linalg import (
    RCOND_FLOOR,
    SADDLE_RESIDUAL_TOL,
    as_matrix,
    check_energy,
    nonnegative_mse,
    range_membership,
    require_spd,
    sized_vector,
    solve_least_squares,
    spd_solve,
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

    ``path`` names the route taken: "banded" or "dense" for a saddle
    solve, "information" or "recursive" for the filter. ``rcond_estimate``
    is the estimated reciprocal condition number of the factored matrix
    (None where no band factorization was attempted) and ``rcond_floor``
    the level it had to reach for the fast route.
    """
    return {"path": path, "rcond_estimate": rcond, "rcond_floor": floor}


def representable(model: StaticModel, ell) -> bool:
    """Whether (ell, x) admits a finite worst-case error.

    True iff ell lies in range([F' H']), i.e. some combination of model
    rows and observation rows reproduces the functional.
    """
    target = sized_vector(ell, "ell", model.state_dim)
    stacked = np.hstack([model.F.T, model.H.T])
    return range_membership(stacked, target).member


def _saddle_matrix(model: StaticModel, bounds: StaticEllipsoid) -> np.ndarray:
    """The dense saddle matrix [[F, -G], [H'Q2H, F']] of the module docstring."""
    gram = model.B @ spd_solve(bounds.Q1, model.B.T)
    observed = model.H.T @ bounds.Q2 @ model.H
    return np.block([[model.F, -gram], [observed, model.F.T]])


def _solve_saddle(model, bounds, rhs_bottom):
    """Solve the saddle system for every column of ``rhs_bottom`` (n, k).

    One assembly and one least-squares solve serve all k right-hand
    sides. Returns ``column(j)``, which gives the (primal, dual) blocks
    of solution j after raising NumericalBreakdown if its residual
    exceeds SADDLE_RESIDUAL_TOL; callers check each column where its
    verdict is due.
    """
    m, n = model.F.shape
    rhs = np.vstack([np.zeros((m, rhs_bottom.shape[1])), rhs_bottom])
    fit = solve_least_squares(_saddle_matrix(model, bounds), rhs)

    def column(j):
        scale = 1.0 + float(np.linalg.norm(rhs_bottom[:, j]))
        if fit.residual_norm[j] > SADDLE_RESIDUAL_TOL * scale:
            raise NumericalBreakdown(
                f"saddle system residual {fit.residual_norm[j]:.3e} exceeds tolerance; "
                "the assembled system is inconsistent"
            )
        return fit.solution[:n, j], fit.solution[n:, j]

    return column


def apriori_estimate(
    model: StaticModel, bounds: StaticEllipsoid, ell, y=None
) -> Estimate:
    """Minimax linear readout for (ell, x) chosen before seeing data.

    The readout vector u_hat = Q2 H p and its worst-case mean-squared
    error (ell, p) come from the saddle solve for ell; the outputs are
    ``u_hat`` and ``p``. When ell is not representable the estimate is
    infeasible, with an infinite radius. If ``y`` is given the scalar
    readout u_hat' y is filled in as ``estimate``.
    """
    _check_pair(model, bounds)
    target = sized_vector(ell, "ell", model.state_dim)
    if y is not None:
        y = sized_vector(y, "y", model.observation_dim)
    if not representable(model, target):
        return Estimate(False, None, math.inf, math.inf, solver=solver_record("dense"))

    p, _ = _solve_saddle(model, bounds, target[:, None])(0)
    u_hat = bounds.Q2 @ (model.H @ p)
    sigma_sq = nonnegative_mse(float(target @ p), target)
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

    x_hat minimizes the total disturbance energy needed to explain y, so
    it is the center of the ellipsoid of consistent states. The radius
    for (ell, x) factors as

        radius = sqrt(1 - (y - H x_hat, Q2 y)) * sqrt((ell, p))

    with p from the a priori system: the first factor is the part of the
    uncertainty budget the data left unused, the second is the a priori
    radius of the functional. A first factor below zero (beyond rounding)
    means no admissible disturbance explains y at all, which raises
    InconsistentData. The outputs are ``x_hat`` and, when the radius is
    finite, the a priori readout ``u_hat`` = Q2 H p.
    """
    _check_pair(model, bounds)
    target = sized_vector(ell, "ell", model.state_dim)
    y = sized_vector(y, "y", model.observation_dim)

    # The a priori system for ell is solved alongside the center only
    # when ell is representable; otherwise its radius is infinite anyway.
    feasible = representable(model, target)
    rhs = [model.H.T @ (bounds.Q2 @ y)] + ([target] if feasible else [])
    column = _solve_saddle(model, bounds, np.column_stack(rhs))
    x_hat, _ = column(0)
    estimate = float(target @ x_hat)

    beta = float((y - model.H @ x_hat) @ (bounds.Q2 @ y))
    check_energy(beta)
    slack = max(1.0 - beta, 0.0)

    if not feasible:
        return Estimate(
            False, estimate, math.inf, outputs={"x_hat": x_hat}, solver=solver_record("dense")
        )

    p, _ = column(1)
    sigma_sq = max(float(target @ p), 0.0)
    return Estimate(
        feasible=True,
        estimate=estimate,
        radius=math.sqrt(slack) * math.sqrt(sigma_sq),
        outputs={"x_hat": x_hat, "u_hat": bounds.Q2 @ (model.H @ p)},
        solver=solver_record("dense"),
        p=p,
    )
