"""Brute-force validation oracle for the estimators.

Independent machinery that re-derives what the estimators claim, the
slow and explicit way:

* ``sample_reachability`` draws points from the set of states that are
  consistent with an observation and the ellipsoidal bound, by reducing
  the constraint F x = B f to a parametrized ellipsoid and sampling its
  boundary and interior directly.
* ``chebyshev_check`` tests a reported center/radius pair against such
  samples: no consistent state may put the functional further than the
  radius from the reported value.
* ``quadratic_center_oracle`` recomputes the center through plain dense
  normal equations, sharing no code path with the saddle-point solver.

Too slow for production sizes on purpose; dimension is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    EmptySet,
    InvalidInput,
    SingularNormalEquations,
)
from .linalg import (
    CHEBYSHEV_SLACK,
    CURVATURE_SCALE_FLOOR,
    DEFAULT_TOL,
    NEGATIVE_FLOOR,
    NORMAL_EQUATION_TOL,
    as_vector,
    block_diag,
    null_basis,
    sized_vector,
    solve_least_squares,
    symmetrize,
)
from .static import StaticEllipsoid, StaticModel

# Hard cap on the state dimension the oracle will attempt.
MAX_ORACLE_DIM = 64

# Samples are drawn in fixed-size chunks, one RNG substream per chunk,
# so the result depends only on (seed, count).
_CHUNK = 2048


@dataclass(frozen=True)
class ReachabilitySampleSet:
    """States consistent with the data; ``boundary`` flags extremal draws.

    ``empty`` is True when no state at all is consistent, in which case
    the arrays have zero rows.
    """

    x: np.ndarray
    boundary: np.ndarray
    empty: bool

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ChebyshevCheck:
    samples_checked: int
    violation_count: int
    max_abs_deviation: float
    radius: float


def _reduced_quadratic(model: StaticModel, bounds: StaticEllipsoid, y: np.ndarray):
    """Express consistency energy on the solution manifold of F x = B f.

    Every consistent pair (x, f) is Z @ xi for Z spanning ker [F, -B];
    on that subspace the energy (Q1 f, f) + (Q2 (y - Hx), y - Hx) is
    xi'M xi - 2 b'xi + c. Returns (Z, M, b, c).
    """
    constraint = np.hstack([model.F, -model.B])
    Z = null_basis(constraint)
    weight = block_diag(model.H.T @ bounds.Q2 @ model.H, bounds.Q1)
    drive = np.concatenate(
        [model.H.T @ (bounds.Q2 @ y), np.zeros(model.disturbance_dim)]
    )
    M = symmetrize(Z.T @ weight @ Z)
    b = Z.T @ drive
    c = float(y @ (bounds.Q2 @ y))
    return Z, M, b, c


def sample_reachability(
    model: StaticModel,
    bounds: StaticEllipsoid,
    y,
    count: int,
    seed: int,
) -> ReachabilitySampleSet:
    """Draw ``count`` states consistent with observation ``y``.

    The consistency set is the projection onto x of an ellipsoid in the
    reduced coordinates xi. Its positive-curvature directions are
    sampled on the boundary (half the draws) and uniformly inside (the
    other half); zero-curvature directions, along which the energy is
    flat, get unbounded Gaussian excursions so the samples witness the
    set's non-compactness too. Deterministic for fixed (seed, count):
    the chunks are drawn one after another, each from its own substream,
    straight into the returned arrays.
    """
    if model.state_dim > MAX_ORACLE_DIM:
        raise DimensionTooLarge(
            f"state dimension {model.state_dim} exceeds oracle cap {MAX_ORACLE_DIM}"
        )
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    y = sized_vector(y, "y", model.observation_dim)

    n = model.state_dim
    Z, M, b, c = _reduced_quadratic(model, bounds, y)
    r = Z.shape[1]

    if r == 0:
        # Only candidate is (x, f) = 0; consistent iff the data energy fits.
        if c > 1.0 + NEGATIVE_FLOOR:
            return ReachabilitySampleSet(np.zeros((0, n)), np.zeros(0, bool), True)
        return ReachabilitySampleSet(
            np.zeros((count, n)), np.zeros(count, bool), False
        )

    center_fit = solve_least_squares(M, b)
    xi_star = center_fit.solution
    j_min = max(c - float(b @ xi_star), 0.0)
    if j_min > 1.0 + NEGATIVE_FLOOR:
        return ReachabilitySampleSet(np.zeros((0, n)), np.zeros(0, bool), True)
    radius = math.sqrt(max(1.0 - j_min, 0.0))

    # Split curvature directions from flat ones, anchoring the rank
    # decision to the scale of the full weight matrix.
    evals, evecs = np.linalg.eigh(M)
    weight_scale = max(float(evals[-1]), 0.0)
    cutoff = DEFAULT_TOL * max(weight_scale, CURVATURE_SCALE_FLOOR)
    pd_mask = evals > cutoff
    V_pd = evecs[:, pd_mask]
    V_null = evecs[:, ~pd_mask]
    inv_sqrt = 1.0 / np.sqrt(evals[pd_mask])
    r_pd = V_pd.shape[1]
    r_null = V_null.shape[1]
    null_amp = 10.0 * (1.0 + radius + float(np.linalg.norm(xi_star)))

    if count == 0:
        return ReachabilitySampleSet(np.zeros((0, n)), np.zeros(0, bool), False)

    xs = np.empty((count, n))
    flags = np.zeros(count, dtype=bool)
    children = np.random.SeedSequence(seed).spawn((count + _CHUNK - 1) // _CHUNK)
    for i, child in enumerate(children):
        lo = i * _CHUNK
        size = min(_CHUNK, count - lo)
        rng = np.random.default_rng(child)
        xi = np.tile(xi_star, (size, 1))
        if r_pd > 0:
            dirs = rng.standard_normal((size, r_pd))
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            dirs /= norms
            scales = np.ones(size)
            interior = np.arange(size) % 2 == 1
            scales[interior] = rng.random(interior.sum()) ** (1.0 / r_pd)
            flags[lo : lo + size] = ~interior
            xi += radius * (dirs * scales[:, None] * inv_sqrt[None, :]) @ V_pd.T
        if r_null > 0:
            xi += (null_amp * rng.standard_normal((size, r_null))) @ V_null.T
        xs[lo : lo + size] = (Z[:n] @ xi.T).T
    return ReachabilitySampleSet(x=xs, boundary=flags, empty=False)


def chebyshev_check(
    samples: ReachabilitySampleSet,
    ell,
    estimate_value: float,
    sigma_hat: float,
) -> ChebyshevCheck:
    """Verify that no sampled state beats the reported radius.

    A violation is a consistent state x with
    |(ell, x) - estimate_value| > sigma_hat * (1 + s) + s with
    s = CHEBYSHEV_SLACK. Raises
    EmptySet when there are no samples to check against.
    """
    if samples.empty or len(samples) == 0:
        raise EmptySet("no consistent states to check against")
    ell = as_vector(ell, "ell")
    if ell.shape[0] != samples.x.shape[1]:
        raise InvalidInput("ell does not match the sampled state dimension")
    deviations = np.abs(samples.x @ ell - float(estimate_value))
    max_dev = float(deviations.max())
    if math.isinf(sigma_hat):
        violations = 0
    else:
        bound = sigma_hat * (1.0 + CHEBYSHEV_SLACK) + CHEBYSHEV_SLACK
        violations = int(np.sum(deviations > bound))
    return ChebyshevCheck(
        samples_checked=len(samples),
        violation_count=violations,
        max_abs_deviation=max_dev,
        radius=float(sigma_hat),
    )


def quadratic_center_oracle(
    model: StaticModel, bounds: StaticEllipsoid, y
) -> np.ndarray:
    """Center of the consistency set by direct normal equations.

    Only for invertible B: then f = B^{-1} F x is forced and the energy
    is an explicit quadratic in x, minimized by

        (F'B^{-T} Q1 B^{-1} F + H'Q2 H) x = H'Q2 y.

    Dense solve, no saddle systems, no pseudoinverses; exists purely to
    cross-examine the estimators.
    """
    y = sized_vector(y, "y", model.observation_dim)
    m = model.equation_dim
    if model.B.shape != (m, m):
        raise InvalidInput("quadratic_center_oracle needs square invertible B")
    if model.state_dim > MAX_ORACLE_DIM:
        raise DimensionTooLarge(
            f"state dimension {model.state_dim} exceeds oracle cap {MAX_ORACLE_DIM}"
        )
    try:
        G = np.linalg.solve(model.B, model.F)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput("quadratic_center_oracle needs square invertible B") from exc
    A = G.T @ bounds.Q1 @ G + model.H.T @ bounds.Q2 @ model.H
    A = symmetrize(A)
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= NORMAL_EQUATION_TOL * max(float(eigs[-1]), 1.0):
        raise SingularNormalEquations(
            "normal equations are singular; the center is not unique"
        )
    return np.linalg.solve(A, model.H.T @ (bounds.Q2 @ y))
