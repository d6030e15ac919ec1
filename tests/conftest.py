"""Shared random-instance generators for the test suite.

Random models are drawn so that the quantities under test are well
scaled: bound matrices are SPD with eigenvalues bounded away from zero,
and functionals are forced into the representable range when a finite
radius is required.
"""

import numpy as np

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    StaticEllipsoid,
    StaticModel,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def random_spd(rng, n, floor=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def make_static(rng, n=2, m=2, p=2, l=2):
    model = StaticModel(
        F=rng.standard_normal((m, n)),
        B=rng.standard_normal((m, p)),
        H=rng.standard_normal((l, n)),
    )
    bounds = StaticEllipsoid(
        Q1=random_spd(rng, p),
        Q2=random_spd(rng, l),
    )
    return model, bounds


def representable_functional(rng, model):
    """A functional guaranteed inside range([F' | H'])."""
    cols = np.hstack([model.F.T, model.H.T])
    return cols @ rng.standard_normal(cols.shape[1])


def feasible_observation(rng, model, bounds, budget=0.81):
    """Observation y = Hx + g for a point with total energy <= budget < 1.

    Splits the budget between the model disturbance f and the noise g,
    so the consistency set around y is guaranteed nonempty.
    """
    p = model.disturbance_dim
    l = model.observation_dim
    f = rng.standard_normal(p)
    rhs = model.B @ f
    x, *_ = np.linalg.lstsq(model.F, rhs, rcond=None)
    if np.linalg.norm(model.F @ x - rhs) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        return None  # B f escaped range(F); caller redraws
    g = rng.standard_normal(l)
    sf = np.sqrt(0.5 * budget / max(float(f @ (bounds.Q1 @ f)), 1e-300))
    sg = np.sqrt(0.5 * budget / max(float(g @ (bounds.Q2 @ g)), 1e-300))
    return model.H @ (sf * x) + sg * g


def make_discrete(rng, n=2, m=None, p=None, l=2, N=3, identity_b=False):
    """Random discrete DAE with well-conditioned stacked [F_k; H_k] blocks.

    When m + l >= n this gives the full-column-rank precondition the
    recursive filter needs; callers exercising the filter must pick such
    shapes. Smaller stacks are allowed for the one-shot paths.
    """
    m = n if m is None else m
    p = m if (p is None or identity_b) else p
    while True:
        F_seq = rng.standard_normal((N + 1, m, n))
        H_seq = rng.standard_normal((N + 1, l, n))
        ok = True
        for k in range(N + 1):
            stacked = np.vstack([F_seq[k], H_seq[k]])
            s = np.linalg.svd(stacked, compute_uv=False)
            if s[-1] <= 1e-6 * s[0]:
                ok = False
                break
        if ok:
            break
    C_seq = rng.standard_normal((N, m, n))
    for k in range(N):
        # bound the transition gain so N-step products stay well conditioned
        norm = np.linalg.norm(C_seq[k], 2)
        if norm > 1.5:
            C_seq[k] *= 1.5 / norm
    if identity_b:
        B_seq = np.broadcast_to(np.eye(m), (N, m, p)).copy()
        S = np.eye(m)
    else:
        B_seq = rng.standard_normal((N, m, p))
        S = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    dae = DiscreteDAE(F_seq=F_seq, C_seq=C_seq, B_seq=B_seq, S=S, H_seq=H_seq)
    bounds = DAEEllipsoid(
        Q0=random_spd(rng, m),
        Q1_seq=np.stack([random_spd(rng, p) for _ in range(N)])
        if N
        else np.zeros((0, p, p)),
        Q2_seq=np.stack([random_spd(rng, l) for _ in range(N + 1)]),
    )
    return dae, bounds


def scalar_static():
    model = StaticModel(F=[[1.0]], B=[[1.0]], H=[[1.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    return model, bounds


def scalar_chain():
    """Two-step scalar chain: x0 = xg0, x1 = x0 + f0, unit weights."""
    one = np.ones((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, one]),
        C_seq=np.stack([one]),
        B_seq=np.stack([one]),
        S=one,
        H_seq=np.stack([one, one]),
    )
    bounds = DAEEllipsoid(
        Q0=one, Q1_seq=np.stack([one]), Q2_seq=np.stack([one, one])
    )
    return dae, bounds
