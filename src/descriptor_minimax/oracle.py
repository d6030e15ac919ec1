"""Brute-force validation oracle for the estimators.

Independent machinery that re-derives what the estimators claim, the
slow and explicit way:

* ``sample_reachability`` draws values L x, for a readout L, over the
  states that are consistent with an observation and the ellipsoidal
  bound. It reduces the constraint F x = B f to a parametrized ellipsoid,
  whose center and axes come from one eigendecomposition of its energy,
  and samples its boundary and interior directly, from the exact
  distribution of L x, with about as many random numbers per draw as L
  has rows, so no state is formed. L = I draws the states themselves.
* ``chebyshev_check`` tests a reported center/radius pair against such
  samples: no consistent state may put the functional further than the
  radius from the reported value.

The state dimension is capped at ``MAX_ORACLE_DIM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, EmptySet, InvalidInput, NumericalBreakdown
from .linalg import (
    CHEBYSHEV_SLACK,
    CURVATURE_SCALE_FLOOR,
    DEFAULT_TOL,
    NEGATIVE_FLOOR,
    as_matrix,
    as_vector,
    block_diag,
    sized_vector,
    svd_subspaces,
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
    """Readouts L x of states consistent with the data, one row per draw;
    ``boundary`` flags extremal draws.

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
    xi'M xi - 2 b'xi + c. Returns (Z, M, b, c). Raises
    NumericalBreakdown when M, b or c is not finite.
    """
    constraint = np.hstack([model.F, -model.B])
    Z = svd_subspaces(constraint).kernel_basis
    # entries near the overflow threshold overflow the energy: the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        weight = block_diag(model.H.T @ bounds.Q2 @ model.H, bounds.Q1)
        drive = np.concatenate(
            [model.H.T @ (bounds.Q2 @ y), np.zeros(model.disturbance_dim)]
        )
        M = symmetrize(Z.T @ weight @ Z)
        b = Z.T @ drive
        c = float(y @ (bounds.Q2 @ y))
    if not (np.isfinite(M).all() and np.isfinite(b).all() and math.isfinite(c)):
        raise NumericalBreakdown("the oracle's reduced energy is not finite")
    return Z, M, b, c


def sample_reachability(
    model: StaticModel,
    bounds: StaticEllipsoid,
    y,
    count: int,
    seed: int,
    readout,
) -> ReachabilitySampleSet:
    """Draw ``count`` values L x over the states consistent with ``y``.

    The consistency set is the projection onto x of an ellipsoid in the
    reduced coordinates xi. Its positive-curvature directions are
    sampled on the boundary (half the draws) and uniformly inside (the
    other half); zero-curvature directions, along which the energy is
    flat, get unbounded Gaussian excursions so the samples witness the
    set's non-compactness too. Deterministic for fixed (seed, count):
    the chunks are drawn one after another, each from its own substream,
    straight into the returned arrays.

    ``readout`` L is a k x n matrix, and ``x`` holds the values L x,
    shape (count, k); L = I gives the states. L is folded into the two
    draw maps once, so neither the states nor the reduced coordinates are
    formed: memory is O(count k), not O(count n). A map with more rows r
    than k columns is cut to R of its thin QR, map = Q R: a direction
    g/|g| with g ~ N(0, I_r) enters only through g Q ~ N(0, I_k) and
    |g|^2 = |g Q|^2 + chi^2_{r-k}, the two independent (Cochran), so a
    draw takes k normals and one chi^2 variate in place of r normals, and
    the flat part k normals in place of r. The values then have the
    distribution of L x, though they are not L times the draws of a
    readout with more rows.
    """
    if model.state_dim > MAX_ORACLE_DIM:
        raise DimensionTooLarge(
            f"state dimension {model.state_dim} exceeds oracle cap {MAX_ORACLE_DIM}"
        )
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    y = sized_vector(y, "y", model.observation_dim)

    n = model.state_dim
    readout = as_matrix(readout, "readout")
    if readout.shape[1] != n:
        raise InvalidInput(f"readout has {readout.shape[1]} columns, expected {n}")
    width = readout.shape[0]
    Z, M, b, c = _reduced_quadratic(model, bounds, y)
    r = Z.shape[1]

    if r == 0:
        # Only candidate is (x, f) = 0; consistent iff the data energy fits.
        if c > 1.0 + NEGATIVE_FLOOR:
            return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), True)
        return ReachabilitySampleSet(
            np.zeros((count, width)), np.zeros(count, bool), False
        )

    # Split curvature directions from flat ones, anchoring the rank
    # decision to the scale of the full weight matrix. The center
    # xi* = V_pd diag(1/lambda) V_pd'b minimizes the energy: for PSD M, the
    # minimum-norm least-squares solution of M xi = b at the same rank cut.
    evals, evecs = np.linalg.eigh(M)
    weight_scale = max(float(evals[-1]), 0.0)
    cutoff = DEFAULT_TOL * max(weight_scale, CURVATURE_SCALE_FLOOR)
    pd_mask = evals > cutoff
    V_pd = evecs[:, pd_mask]
    V_null = evecs[:, ~pd_mask]
    xi_star = V_pd @ ((V_pd.T @ b) / evals[pd_mask])
    # the least energy c - b'xi*, summed from the residuals at xi*: the
    # difference cancels to the rounding of c when the data are large
    r, f_star = y - model.H @ (Z[:n] @ xi_star), Z[n:] @ xi_star
    j_min = max(float(r @ (bounds.Q2 @ r) + f_star @ (bounds.Q1 @ f_star)), 0.0)
    if j_min > 1.0 + NEGATIVE_FLOOR:
        return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), True)
    radius = math.sqrt(max(1.0 - j_min, 0.0))
    inv_sqrt = 1.0 / np.sqrt(evals[pd_mask])
    r_pd = V_pd.shape[1]
    r_null = V_null.shape[1]
    null_amp = 10.0 * (1.0 + radius + float(np.linalg.norm(xi_star)))

    if count == 0:
        return ReachabilitySampleSet(np.zeros((0, width)), np.zeros(0, bool), False)

    # The draw maps followed by the lift and the readout, as one product
    # each: row draws times these give L x directly. Normals per draw for
    # each part: r_pd and r_null, at most k once a map is cut.
    LZ = readout @ Z[:n]
    center = LZ @ xi_star
    pd_map = radius * (inv_sqrt[:, None] * (V_pd.T @ LZ.T))
    null_map = null_amp * (V_null.T @ LZ.T)
    pd_dim, null_dim = r_pd, r_null
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
    radius: float,
) -> ChebyshevCheck:
    """Verify that no sampled state beats the reported radius.

    A violation is a consistent state x with
    |(ell, x) - estimate_value| > radius * (1 + s) + s with
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
    if math.isinf(radius):
        violations = 0
    else:
        bound = radius * (1.0 + CHEBYSHEV_SLACK) + CHEBYSHEV_SLACK
        violations = int(np.sum(deviations > bound))
    return ChebyshevCheck(
        samples_checked=len(samples),
        violation_count=violations,
        max_abs_deviation=max_dev,
        radius=float(radius),
    )
