"""Brute-force validation oracle for the estimators.

Independent machinery that re-derives what the estimators claim, the
slow and explicit way:

* ``sample_reachability`` draws points from the set of states that are
  consistent with an observation and the ellipsoidal bound, by reducing
  the constraint F x = B f to a parametrized ellipsoid and sampling its
  boundary and interior directly. With a ``readout`` L it returns values
  L x instead, drawn from their exact distribution with about as many
  random numbers per draw as L has rows, so no state is formed.
* ``chebyshev_check`` tests a reported center/radius pair against such
  samples: no consistent state may put the functional further than the
  radius from the reported value.
* ``quadratic_center_oracle`` recomputes the center through plain dense
  normal equations, sharing no code path with the saddle-point solver.

The state dimension is capped at ``MAX_ORACLE_DIM``.
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
    as_matrix,
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
    readout=None,
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

    With ``readout`` L, a k x n matrix, ``x`` holds values L x, shape
    (count, k), with the distribution of L x over the states drawn
    without a readout. L is folded into the two draw maps once, so
    neither the states nor the reduced coordinates are formed: memory is
    O(count k), not O(count n). A map with more rows r than k columns is
    cut to R of its thin QR, map = Q R: a direction g/|g| with
    g ~ N(0, I_r) enters only through g Q ~ N(0, I_k) and
    |g|^2 = |g Q|^2 + chi^2_{r-k}, the two independent (Cochran), so a
    draw takes k normals and one chi^2 variate in place of r normals, and
    the flat part k normals in place of r. The values are then other
    draws than the states', though still fixed by the seed; with no map
    cut they are the states' own draws, projected.
    """
    if model.state_dim > MAX_ORACLE_DIM:
        raise DimensionTooLarge(
            f"state dimension {model.state_dim} exceeds oracle cap {MAX_ORACLE_DIM}"
        )
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    y = sized_vector(y, "y", model.observation_dim)

    n = model.state_dim
    if readout is not None:
        readout = as_matrix(readout, "readout")
        if readout.shape[1] != n:
            raise InvalidInput(
                f"readout has {readout.shape[1]} columns, expected {n}"
            )
    width = n if readout is None else readout.shape[0]
    Z, M, b, c = _reduced_quadratic(model, bounds, y)
    r = Z.shape[1]

    if r == 0:
        # Only candidate is (x, f) = 0; consistent iff the data energy fits.
        if c > 1.0 + NEGATIVE_FLOOR:
            return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), True)
        return ReachabilitySampleSet(
            np.zeros((count, width)), np.zeros(count, bool), False
        )

    center_fit = solve_least_squares(M, b)
    xi_star = center_fit.solution
    j_min = max(c - float(b @ xi_star), 0.0)
    if j_min > 1.0 + NEGATIVE_FLOOR:
        return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), True)
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
        return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), False)

    # Normals per draw for each part: r_pd and r_null for states, at most
    # k for a readout.
    pd_dim, null_dim = r_pd, r_null
    if readout is not None:
        # The draw maps followed by the lift and the readout, as one
        # product each: row draws times these give L x directly.
        LZ = readout @ Z[:n]
        center = LZ @ xi_star
        pd_map = radius * (inv_sqrt[:, None] * (V_pd.T @ LZ.T))
        null_map = null_amp * (V_null.T @ LZ.T)
        if r_pd > width:
            pd_map = np.linalg.qr(pd_map, mode="r")
            pd_dim = width
        if r_null > width:
            null_map = np.linalg.qr(null_map, mode="r")
            null_dim = width

    xs = np.empty((count, width))
    flags = np.zeros(count, dtype=bool)
    children = np.random.SeedSequence(seed).spawn((count + _CHUNK - 1) // _CHUNK)
    for i, child in enumerate(children):
        lo = i * _CHUNK
        size = min(_CHUNK, count - lo)
        rng = np.random.default_rng(child)
        if r_pd > 0:
            dirs = rng.standard_normal((size, pd_dim))
            if pd_dim < r_pd:
                sq = 2.0 * rng.standard_gamma(0.5 * (r_pd - pd_dim), size)
                sq += np.einsum("ij,ij->i", dirs, dirs)
                norms = np.sqrt(sq)[:, None]
            else:
                norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            dirs /= norms
            scales = np.ones(size)
            interior = np.arange(size) % 2 == 1
            scales[interior] = rng.random(interior.sum()) ** (1.0 / r_pd)
            flags[lo : lo + size] = ~interior
            dirs *= scales[:, None]
        if r_null > 0:
            flat = rng.standard_normal((size, null_dim))
        out = xs[lo : lo + size]
        if readout is None:
            xi = np.tile(xi_star, (size, 1))
            if r_pd > 0:
                xi += radius * (dirs * inv_sqrt[None, :]) @ V_pd.T
            if r_null > 0:
                xi += (null_amp * flat) @ V_null.T
            out[:] = (Z[:n] @ xi.T).T
        else:
            out[:] = center
            if r_pd > 0:
                out += dirs @ pd_map
            if r_null > 0:
                out += flat @ null_map
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
