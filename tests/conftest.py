"""Shared random-instance generators for the test suite.

Random models are drawn so that the quantities under test are well
scaled: bound matrices are SPD with eigenvalues bounded away from zero,
and functionals are forced into the representable range when a finite
radius is required.
"""

import math

import numpy as np
import scipy.linalg

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    StaticEllipsoid,
    StaticModel,
    representable,
)
from descriptor_minimax.discrete import horizon_saddle
from descriptor_minimax.linalg import (
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    spd_solve,
    svd_subspaces,
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


def data_energy(y_seq, bounds):
    """sum_k y_k'Q2_k y_k, the energy of the zero trajectory on a chain's
    data: at least beta_N, the least energy that explains them."""
    y = np.asarray(y_seq, dtype=float)
    return float(np.einsum("ki,kij,kj->", y, bounds.Q2_seq, y))


def within_bound(y_seq, bounds, energy=0.5):
    """``y_seq`` as an array, scaled down where its :func:`data_energy`
    exceeds ``energy`` < 1. The data are then consistent: the filter and
    the one-shot answer rather than raise InconsistentData."""
    y = np.asarray(y_seq, dtype=float)
    total = data_energy(y, bounds)
    return y * math.sqrt(energy / total) if total > energy else y


def saddle_matrix(model, bounds):
    """The dense saddle matrix [[F, -G], [H'Q2H, F']] with G = B Q1^{-1} B'.

    With r = ell its minimum-norm least-squares solution (p, z) gives the
    a priori readout u_hat = Q2 H p and worst-case mean-squared error
    (ell, p); with r = H'Q2 y its primal block is a center x_hat. Every
    solution gives the same u_hat, (ell, p) and (ell, x_hat). The
    reference for the estimators of :mod:`descriptor_minimax.static`.
    """
    gram = model.B @ spd_solve(bounds.Q1, model.B.T)
    observed = model.H.T @ bounds.Q2 @ model.H
    return np.block([[model.F, -gram], [observed, model.F.T]])


def saddle_reference(model, bounds, ell, y):
    """(feasible, mse, center, beta) from one least-squares solve of the
    saddle system of :func:`saddle_matrix` with both right-hand sides:
    the a priori (ell, p) and the center (ell, x_hat) with its least data
    energy beta = (y - H x_hat, Q2 y). ``feasible`` is
    :func:`descriptor_minimax.representable`, and mse is inf without it.
    """
    m, n = model.F.shape
    ell = np.asarray(ell, dtype=float)
    q2y = bounds.Q2 @ y
    rhs = np.zeros((m + n, 2))
    rhs[m:, 0], rhs[m:, 1] = model.H.T @ q2y, ell
    solution = np.linalg.lstsq(saddle_matrix(model, bounds), rhs, rcond=DEFAULT_TOL)[0][:n]
    x_hat, p = solution[:, 0], solution[:, 1]
    feasible = representable(model, ell)
    beta = float((y - model.H @ x_hat) @ q2y)
    return feasible, float(ell @ p) if feasible else math.inf, float(ell @ x_hat), beta


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


def _whitened_qr(dae, bounds, y_seq, k):
    """R of one QR of the whitened rows of the chain cut after step k, with
    the data as a last column (:func:`dense_reference`), padded with zero
    rows to a square where the rows run short; None when the states'
    columns of R are singular at the package's rank cut, s_min <=
    DEFAULT_TOL s_max, so that the center is not unique."""
    n, m, l = dae.state_dim, dae.equation_dim, dae.observation_dim

    def white(B, Q):
        return np.linalg.solve(B.T, np.linalg.cholesky(Q)).T

    A = np.zeros(((k + 1) * m + (k + 1) * l, (k + 1) * n + 1))
    A[:m, :n] = white(dae.S, bounds.Q0) @ dae.F_seq[0]
    for j in range(k):
        L = white(dae.B_seq[j], bounds.Q1_seq[j])
        rows = slice((j + 1) * m, (j + 2) * m)
        A[rows, j * n : (j + 1) * n] = -L @ dae.C_seq[j]
        A[rows, (j + 1) * n : (j + 2) * n] = L @ dae.F_seq[j + 1]
    for j in range(k + 1):
        V = np.linalg.cholesky(bounds.Q2_seq[j]).T
        rows = slice((k + 1) * m + j * l, (k + 1) * m + (j + 1) * l)
        A[rows, j * n : (j + 1) * n] = V @ dae.H_seq[j]
        A[rows, -1] = V @ y_seq[j]
    R = np.linalg.qr(A, mode="r")
    R = np.pad(R, ((0, A.shape[1] - R.shape[0]), (0, 0)))
    s = np.linalg.svd(R[:-1, :-1], compute_uv=False)
    return None if s[-1] <= DEFAULT_TOL * s[0] else R


def dense_reference(dae, bounds, y_seq, k):
    """x_hat_k, P_k and beta_k from one QR of the chain cut after step k.

    Every row is whitened, L = chol(Q)'B^{-1}, and the rows are stacked
    into one least-squares problem over (x_0, .., x_k) with the data as a
    last column; no saddle system is formed. In R of its QR the last
    column gives the solution, whose last block is x_hat_k, the last
    diagonal block R_kk gives P_k = R_kk^{-1}R_kk^{-T}, and the corner
    entry squared is beta_k, the least energy that explains y_0 .. y_k.
    None when the states' columns of R are singular at the package's rank
    cut, s_min <= DEFAULT_TOL s_max, so that the center is not unique.
    """
    R = _whitened_qr(dae, bounds, y_seq, k)
    if R is None:
        return None
    n = dae.state_dim
    x = scipy.linalg.solve_triangular(R[:-1, :-1], R[:-1, -1])
    R_inv = np.linalg.inv(R[-n - 1 : -1, -n - 1 : -1])
    return x[-n:], R_inv @ R_inv.T, R[-1, -1] ** 2


def dense_one_shot(dae, bounds, ell_seq, y_seq):
    """The one-shot's answers from the QR of :func:`dense_reference` over
    the whole horizon: every step's center x_hat, the a priori direction
    p = (R'R)^{-1} ell per step, and beta_N."""
    R = _whitened_qr(dae, bounds, y_seq, dae.horizon)
    states = R[:-1, :-1]
    ell = scipy.linalg.solve_triangular(states, np.ravel(ell_seq), trans=1)
    x, p = scipy.linalg.solve_triangular(states, np.column_stack([R[:-1, -1], ell])).T
    return x.reshape(dae.horizon + 1, -1), p.reshape(dae.horizon + 1, -1), R[-1, -1] ** 2


def terminal_reference(dae, bounds, y_seq, ell):
    """(center, radius) of ell'x_N from :func:`dense_reference` at step N,
    the radius the attained sqrt(1 - beta_N) sqrt(ell'P_N ell); None where
    that reference is."""
    ref = dense_reference(dae, bounds, y_seq, dae.horizon)
    if ref is None:
        return None
    x, P, beta = ref
    return float(ell @ x), math.sqrt(max(1.0 - beta, 0.0) * float(ell @ P @ ell))


def band_reference(dae, bounds, ell_seq, y_seq):
    """Every step's center x_hat, the a priori direction p per step and
    beta, as :func:`dense_one_shot` gives them, from the band LU of the
    chain's saddle system (:func:`descriptor_minimax.discrete.horizon_saddle`)
    solved directly, so that it is independent of the information route
    of the one-shots; None where the band factor is not trusted."""
    N = dae.horizon
    ells = np.asarray(ell_seq, dtype=float).reshape(N + 1, -1)
    ys = np.asarray(y_seq, dtype=float).reshape(N + 1, -1)
    q2y = np.einsum("kij,kj->ki", bounds.Q2_seq, ys)
    data = np.einsum("kji,kj->ki", dae.H_seq, q2y)
    states, _ = horizon_saddle(dae, bounds, np.stack([data, ells]))
    if states is None:
        return None
    x, p = states
    return x, p, float(np.sum((ys - np.einsum("kij,kj->ki", dae.H_seq, x)) * q2y))


def worst_case_error_of(model, bounds, ell, u, c=0.0):
    """Exact worst-case squared error of an arbitrary affine readout u'y + c.

    The error of the readout against (ell, x) splits into a bias part,
    maximized over all (x, f) with F x = B f and (Q1 f, f) <= 1, and a
    noise part (Q2^{-1} u, u). Writing v = ell - H'u, the bias at a model
    solution is (v, x) - (B'w, f) for any w with F'w = v, plus c. The
    supremum is computed in closed form:

    * if v is not in range(F') (its part in ker F exceeds MEMBERSHIP_TOL),
      states exist that move (v, x) freely and the value is +inf;
    * otherwise take w = F^{+'} v. Over f restricted by B f in range(F)
      (basis Z of ker(U_perp' B), U_perp spanning range(F)^perp) and by
      the energy bound, sup (B'w, f) = sqrt(g' (Z'Q1Z)^{-1} g) with
      g = Z'B'w.

    Ranks are cut at DEFAULT_TOL; the cut for the restriction U_perp' B is
    anchored to ||B||, not to the product's own (possibly vanishing)
    scale, whose entries can be pure rounding dust.
    """
    ell, u = np.asarray(ell, dtype=float), np.asarray(u, dtype=float)
    v = ell - model.H.T @ u
    spaces = svd_subspaces(model.F)
    if np.linalg.norm(spaces.kernel_basis.T @ v) > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(v)):
        return math.inf
    w = np.linalg.pinv(model.F, rcond=DEFAULT_TOL).T @ v

    restriction = spaces.range_complement.T @ model.B
    basis = np.eye(model.disturbance_dim)
    if restriction.shape[0]:
        _, s, vt = np.linalg.svd(restriction)
        anchor = max(s[0] if s.size else 0.0, np.linalg.norm(model.B, 2))
        basis = vt[int(np.sum(s > DEFAULT_TOL * anchor)) :].T

    sup_bias = 0.0
    if basis.shape[1]:
        g = basis.T @ (model.B.T @ w)
        reduced = basis.T @ bounds.Q1 @ basis
        sup_bias = math.sqrt(max(float(g @ spd_solve(reduced, g)), 0.0))
    noise = float(u @ spd_solve(bounds.Q2, u))
    return (sup_bias + abs(c)) ** 2 + noise
