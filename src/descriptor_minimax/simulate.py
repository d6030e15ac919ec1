"""Forward simulation of discrete descriptor systems under the bound.

Draws a disturbance tuple (x0g, f_0..f_{N-1}, g_0..g_N) from the
ellipsoid, propagates the recursion forward and reports the resulting
trajectory and observations. Used to manufacture test data whose ground
truth is known, so estimator guarantees can be checked against reality.

The draw whitens the ellipsoid: with L the Cholesky factor of a weight
Q, a coordinate block is L^{-T} xi and contributes ||xi||^2 to the
budget. A standard normal direction scaled onto the unit sphere of the
joint xi-space therefore lands exactly on the ellipsoid boundary
("boundary" mode); "uniform" mode scales by U^(1/dim) for a uniform
draw, and "zero" uses no disturbance at all.

Forward propagation needs each F_k square and invertible; this module
is a data generator, not an estimator, so that restriction is fine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import DAEEllipsoid, DiscreteDAE
from .errors import InvalidInput, SingularStep
from .linalg import invertible, per_entry

DISTURBANCES = ("boundary", "uniform", "zero")


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory, observations and the disturbances that produced them."""

    states: np.ndarray        # (N+1, n)
    observations: np.ndarray  # (N+1, l)
    initial_data: np.ndarray  # (m,)
    process: np.ndarray       # (N, p)
    noise: np.ndarray         # (N+1, l)
    quad_form: float          # energy actually spent, recomputed honestly


def _unwhiten(Q: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per entry, v = L^{-T} xi for Q = L L', so that (Q v, v) = ||xi||^2.

    One batched Cholesky (one in all for a constant weight) and one
    batched solve for the whole stack.
    """
    L = per_entry(np.linalg.cholesky, Q)
    return np.linalg.solve(np.swapaxes(L, 1, 2), blocks[..., None])[..., 0]


def _check_steps(F: np.ndarray) -> None:
    """Raise SingularStep at the first F_k that cannot be solved forward:
    one that is not square, or not invertible (:func:`.linalg.invertible`)."""
    if F.shape[1] != F.shape[2]:
        raise SingularStep(
            f"forward simulation needs square F_0, got shape {F.shape[1:]}"
        )
    regular = invertible(F)
    if not regular.all():
        raise SingularStep(f"F_{np.argmin(regular)} is singular; cannot propagate forward")


def _energy(Q: np.ndarray, v: np.ndarray) -> float:
    return float(np.einsum("ki,kij,kj->", v, Q, v))


def simulate(
    dae: DiscreteDAE,
    bounds: DAEEllipsoid,
    disturbance: str = "boundary",
    seed: int = 0,
) -> SimulationResult:
    """Propagate one admissible disturbance draw through the recursion.

    Everything but the state recursion itself runs on whole stacks: the
    unwhitening, the step regularity test, the transition maps
    A_k = F_{k+1}^{-1} C_k and u_k = F_{k+1}^{-1} B_k f_k (one batched
    solve each), the observations and the energy. The recursion is then
    x_{k+1} = A_k x_k + u_k, one matvec per step.
    """
    if disturbance not in DISTURBANCES:
        raise InvalidInput(
            f"disturbance must be one of {DISTURBANCES}, got {disturbance!r}"
        )
    N = dae.horizon
    m, p, l = dae.equation_dim, dae.disturbance_dim, dae.observation_dim

    dim = m + N * p + (N + 1) * l
    rng = np.random.default_rng(seed)
    if disturbance == "zero":
        xi = np.zeros(dim)
    else:
        xi = rng.standard_normal(dim)
        norm = float(np.linalg.norm(xi))
        if norm == 0.0:
            xi = np.zeros(dim)
        else:
            xi /= norm
            if disturbance == "uniform":
                xi *= float(rng.random()) ** (1.0 / dim)

    x0g = _unwhiten(bounds.Q0[None], xi[None, :m])[0]
    process = _unwhiten(bounds.Q1_seq, xi[m : m + N * p].reshape(N, p))
    noise = _unwhiten(bounds.Q2_seq, xi[m + N * p :].reshape(N + 1, l))

    _check_steps(dae.F_seq)
    F_next = dae.F_seq[1:]
    A = per_entry(np.linalg.solve, F_next, dae.C_seq)
    forcing = np.einsum("kij,kj->ki", dae.B_seq, process)
    u = np.linalg.solve(F_next, forcing[:, :, None])[:, :, 0]
    states = np.zeros((N + 1, dae.state_dim))
    states[0] = np.linalg.solve(dae.F_seq[0], dae.S @ x0g)
    for k in range(N):
        states[k + 1] = A[k] @ states[k] + u[k]

    observations = np.einsum("kij,kj->ki", dae.H_seq, states) + noise
    energy = (
        float(x0g @ (bounds.Q0 @ x0g))
        + _energy(bounds.Q1_seq, process)
        + _energy(bounds.Q2_seq, noise)
    )
    return SimulationResult(
        states=states,
        observations=observations,
        initial_data=x0g,
        process=process,
        noise=noise,
        quad_form=energy,
    )
