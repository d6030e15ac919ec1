"""Seeded problem instances for the benchmark.

Every instance is drawn from a ``numpy.random.Generator`` so the same
workload seed always yields the same configs and observation files.
Discrete chains follow

    F_0 x_0 = x0g,   F_{k+1} x_{k+1} = C_k x_k + f_k,   y_k = H_k x_k + g_k

with B_k = S = I, SPD weights whose eigenvalues lie in [0.5, 2], C_k
scaled to spectral norm at most 0.9 and F_k a perturbed identity.
Descriptor chains drop the smallest singular value of F_k and give H_k a
unit component along ker F_k, so every [F_k; H_k] keeps full column rank.
Observations come from an explicit trajectory whose disturbances are
rescaled to a chosen total energy below 1, so they are consistent with
the bound whether or not F_k is invertible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Chain:
    """Per-step matrices of a discrete chain, all with leading step axis."""

    F: np.ndarray   # (N+1, n, n)
    C: np.ndarray   # (N, n, n)
    H: np.ndarray   # (N+1, l, n)
    Q0: np.ndarray  # (n, n)
    Q1: np.ndarray  # (N, n, n)
    Q2: np.ndarray  # (N+1, l, l)
    invariant: bool = False  # written with single (replicated) matrices

    @property
    def horizon(self) -> int:
        return self.F.shape[0] - 1

    @property
    def n(self) -> int:
        return self.F.shape[2]

    @property
    def l(self) -> int:
        return self.H.shape[1]


def spd(rng, n, size=None, low=0.5, high=2.0):
    """SPD matrices with eigenvalues drawn uniformly in [low, high]."""
    shape = () if size is None else (size,)
    q, _ = np.linalg.qr(rng.standard_normal(shape + (n, n)))
    eig = rng.uniform(low, high, shape + (n,))
    out = np.einsum("...ij,...j,...kj->...ik", q, eig, q)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _contractive(rng, count, n, rho=0.9):
    c = rng.standard_normal((count, n, n))
    norms = np.linalg.norm(c, 2, axis=(1, 2))
    return c * (rng.uniform(0.5, rho, count) / norms)[:, None, None]


def chain(rng, N, n=2, l=None, descriptor=False, invariant=False) -> Chain:
    """Random regular or descriptor chain of horizon N."""
    l = n if l is None else l
    count = 1 if invariant else N + 1
    F = np.eye(n) + 0.1 * rng.standard_normal((count, n, n))
    H = rng.standard_normal((count, l, n)) / math.sqrt(n)
    if descriptor:
        u, s, vt = np.linalg.svd(F)
        s[:, -1] = 0.0
        F = np.einsum("kij,kj,kjl->kil", u, s, vt)
        kernel = vt[:, -1, :]
        H[:, 0, :] += kernel - np.einsum("ki,ki->k", H[:, 0, :], kernel)[:, None] * kernel
    C = _contractive(rng, 1 if invariant else N, n)
    Q1 = spd(rng, n, 1 if invariant else N)
    Q2 = spd(rng, l, count)
    if invariant:
        F = np.broadcast_to(F, (N + 1, n, n))
        H = np.broadcast_to(H, (N + 1, l, n))
        C = np.broadcast_to(C, (N, n, n))
        Q1 = np.broadcast_to(Q1, (N, n, n))
        Q2 = np.broadcast_to(Q2, (N + 1, l, l))
    return Chain(F=F, C=C, H=H, Q0=spd(rng, n), Q1=Q1, Q2=Q2, invariant=invariant)


def unobservable_terminal(rng, N, n=2) -> tuple:
    """Descriptor chain whose terminal kernel direction nobody sees.

    H_N is made orthogonal to ker F_N, so (v, x_N) with v spanning that
    kernel has infinite worst-case error. Returns (chain, v).
    """
    c = chain(rng, N, n=n, l=n, descriptor=True)
    u, s, vt = np.linalg.svd(c.F[-1])
    v = vt[-1]
    c.H[-1] = c.H[-1] - np.outer(c.H[-1] @ v, v)
    return c, v


def trajectory(rng, c: Chain, energy: float) -> tuple:
    """States and observations explained by disturbances of the given energy.

    The next state solves F_{k+1} x_{k+1} = C_k x_k + w_k in the least
    squares sense plus a free kernel component, which makes the implied
    f_k = F_{k+1} x_{k+1} - C_k x_k exact for singular F_k as well. The
    whole tuple is then scaled so the total energy equals ``energy``.
    """
    N, n, l = c.horizon, c.n, c.l
    pinv = np.linalg.pinv(c.F[0] if c.invariant else c.F, rcond=1e-10)
    x = np.zeros((N + 1, n))
    x[0] = rng.standard_normal(n)
    w = 0.3 * rng.standard_normal((N, n))
    z = 0.3 * rng.standard_normal((N, n))
    for k in range(N):
        pk = pinv if c.invariant else pinv[k + 1]
        target = c.C[k] @ x[k] + w[k]
        free = z[k] - pk @ (c.F[k + 1] @ z[k])
        x[k + 1] = pk @ target + free
    f = np.einsum("kij,kj->ki", c.F[1:], x[1:]) - np.einsum("kij,kj->ki", c.C, x[:-1])
    x0g = c.F[0] @ x[0]
    g = 0.3 * rng.standard_normal((N + 1, l))
    total = (
        x0g @ c.Q0 @ x0g
        + np.einsum("ki,kij,kj->", f, c.Q1, f)
        + np.einsum("ki,kij,kj->", g, c.Q2, g)
    )
    scale = math.sqrt(energy / total)
    x *= scale
    g *= scale
    y = np.einsum("kij,kj->ki", c.H, x) + g
    return x, y


def chain_doc(c: Chain, mode: str, ell) -> dict:
    """Problem document for a discrete chain (B_k and S are identities)."""
    n = c.n
    if c.invariant:
        model = {"F": c.F[0].tolist(), "C": c.C[0].tolist(), "H": c.H[0].tolist()}
        bounds = {"Q1": c.Q1[0].tolist(), "Q2": c.Q2[0].tolist()}
    else:
        model = {"F_seq": c.F.tolist(), "C_seq": c.C.tolist(), "H_seq": c.H.tolist()}
        bounds = {"Q1_seq": c.Q1.tolist(), "Q2_seq": c.Q2.tolist()}
    model.update(horizon=c.horizon, B=np.eye(n).tolist())
    bounds["Q0"] = c.Q0.tolist()
    return {
        "kind": "discrete_dae",
        "model": model,
        "bounds": bounds,
        "estimation": {"mode": mode, "ell": np.asarray(ell).tolist()},
    }


@dataclass
class Continuous:
    """Constant-coefficient continuous problem on [0, 1]."""

    F: np.ndarray
    C: np.ndarray
    H: np.ndarray
    Q0: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray

    def doc(self, mode, ell, steps, alphas=None) -> dict:
        estimation = {"mode": mode, "ell": np.asarray(ell).tolist()}
        if alphas is not None:
            estimation["alphas"] = list(alphas)
        return {
            "kind": "continuous_dae",
            "model": {
                "F": self.F.tolist(),
                "C": self.C.tolist(),
                "H": self.H.tolist(),
                "t_start": 0.0,
                "t_end": 1.0,
            },
            "bounds": {"Q0": self.Q0.tolist(), "Q1": self.Q1.tolist(), "Q2": self.Q2.tolist()},
            "estimation": estimation,
            "grid": {"start": 0.0, "end": 1.0, "steps": steps},
        }


def scalar_continuous(q0=1.0, q=1.0) -> Continuous:
    """d/dt x = f, y = x + g with weights (q0, q, q)."""
    one = np.ones((1, 1))
    return Continuous(F=one, C=0 * one, H=one, Q0=q0 * one, Q1=q * one, Q2=q * one)


def singular_continuous(rng) -> Continuous:
    """Index-1 2-D problem: x1' = c11 x1 + c12 x2 + f1, 0 = c21 x1 + c22 x2 + f2."""
    C = np.array(
        [
            [rng.uniform(-1.0, -0.2), rng.uniform(-0.5, 0.5)],
            [rng.uniform(-0.5, 0.5), rng.uniform(-1.5, -0.8)],
        ]
    )
    return Continuous(
        F=np.diag([1.0, 0.0]),
        C=C,
        H=np.array([[1.0, rng.uniform(0.5, 1.0)]]),
        Q0=spd(rng, 2),
        Q1=spd(rng, 2),
        Q2=spd(rng, 1),
    )


def write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def write_csv(path, prefix, rows) -> str:
    """Trajectory CSV in the package's format (header ``k,<prefix>0,...``).

    Written here rather than by the package so that the inputs stay the
    same whatever a change does to the package's own writer.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    header = ",".join(["k"] + [f"{prefix}{j}" for j in range(rows.shape[1])])
    lines = [header] + [
        ",".join([str(k)] + [repr(float(v)) for v in row]) for k, row in enumerate(rows)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    return np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
