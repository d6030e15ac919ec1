"""Independent answers the benchmark checks the package against.

Nothing here calls the package. For a chain with B_k = S = I the
disturbances are fixed by the states, so the consistency energy is an
explicit quadratic in x = (x_0, ..., x_N) with block-tridiagonal
information matrix

    A = Phi' W Phi + H' Q2 H,   Phi x = (F_0 x_0, F_{k+1} x_{k+1} - C_k x_k).

A is SPD when every [F_k; H_k] has full column rank, and one banded
Cholesky factor gives the center x_hat = A^{-1} H'Q2 y, the minimal
energy y'Q2 y - (H'Q2 y)' x_hat, the a priori squared radius l'A^{-1}l
and the attained a posteriori radius sqrt(1 - energy) sqrt(l'A^{-1}l).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from instances import Chain, Continuous

# Closed-form a priori worst-case MSE of int x dt for the unit scalar
# problem d/dt x = f, y = x + g on [0, 1] (scripts/grid_convergence.py).
SCALAR_APRIORI_LIMIT = 1.0 - (math.e - 1.0) / (2.0 * math.e**2) - (1.0 - 1.0 / math.e) / 2.0


def _gram(a, q, b):
    """a_k' q_k b_k for every step k."""
    return np.swapaxes(a, 1, 2) @ (q @ b)


class Information:
    """Banded Cholesky factor of the information matrix of a chain."""

    def __init__(self, c: Chain):
        self.chain = c
        N, n = c.horizon, c.n
        diag = _gram(c.H, c.Q2, c.H)
        diag[0] += c.F[0].T @ c.Q0 @ c.F[0]
        diag[1:] += _gram(c.F[1:], c.Q1, c.F[1:])
        diag[:-1] += _gram(c.C, c.Q1, c.C)
        upper = -_gram(c.C, c.Q1, c.F[1:])
        u = 2 * n - 1
        ab = np.zeros((u + 1, (N + 1) * n))
        base = np.arange(N + 1) * n
        for a in range(n):
            for b in range(a, n):
                ab[u + a - b, base + b] = diag[:, a, b]
            for b in range(n):
                ab[u + a - n - b, base[1:] + b] = upper[:, a, b]
        self.factor = scipy.linalg.cholesky_banded(ab)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve_banded((self.factor, False), rhs)

    def posterior(self, y: np.ndarray, ell: np.ndarray) -> dict:
        """Center, minimal energy and radii for observations y, functional ell."""
        c = self.chain
        q2y = np.einsum("kab,kb->ka", c.Q2, y)
        b = np.einsum("kai,ka->ki", c.H, q2y).reshape(-1)
        x_hat = self.solve(b)
        energy = float(np.sum(y * q2y)) - float(b @ x_hat)
        prior_sq = float(ell @ self.solve(ell))
        return {
            "estimate": float(ell @ x_hat),
            "energy": energy,
            "prior_radius": math.sqrt(prior_sq),
            "radius": math.sqrt(max(1.0 - energy, 0.0) * prior_sq),
        }


def terminal(c: Chain, ell: np.ndarray) -> np.ndarray:
    out = np.zeros((c.horizon + 1, c.n))
    out[-1] = ell
    return out.reshape(-1)


def implicit_euler(p: Continuous, steps: int) -> Chain:
    """The implicit-Euler chain of a continuous problem, in B_k = I form.

    Transition k reads (F - h C) x_{k+1} = F x_k + h f; the disturbance
    h f carries energy h (Q1 f, f) = (Q1 / h (h f), h f), and observation
    weights are h Q2 at every node.
    """
    h = 1.0 / steps
    n, l = p.F.shape[1], p.H.shape[0]
    F = np.broadcast_to(p.F - h * p.C, (steps + 1, n, n)).copy()
    F[0] = p.F
    return Chain(
        F=F,
        C=np.broadcast_to(p.F, (steps, n, n)),
        H=np.broadcast_to(p.H, (steps + 1, l, n)),
        Q0=p.Q0,
        Q1=np.broadcast_to(p.Q1 / h, (steps, n, n)),
        Q2=np.broadcast_to(h * p.Q2, (steps + 1, l, l)),
    )


def continuous_apriori(p: Continuous, ell, steps: int) -> tuple:
    """A priori squared radius of int (ell, x) dt and the readout density."""
    c = implicit_euler(p, steps)
    ell_flat = np.tile(np.asarray(ell, float) / steps, steps + 1)
    p_nodes = Information(c).solve(ell_flat)
    u = (p.Q2 @ p.H @ p_nodes.reshape(steps + 1, -1).T).T
    return float(ell_flat @ p_nodes), u


def tanh_gain(q0: float, t: float = 1.0) -> float:
    """Gain of the unit scalar Riccati flow K' = 1 - K^2, K(0) = 1/q0."""
    return math.tanh(t + math.atanh(1.0 / q0))
