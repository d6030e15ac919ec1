"""Estimation for continuous-time descriptor systems d/dt(F x) = C(t) x + f.

The state x(t) solves the possibly-singular linear DAE

    d/dt (F x)(t) = C(t) x(t) + f(t),     t in [t_start, t_end],
    F x(t_start)  = x0g,

observed through y(t) = H(t) x(t) + g(t), with the joint bound

    (Q0 x0g, x0g) + int (Q1(t) f, f) dt + int (Q2(t) g, g) dt <= 1.

Everything is computed by implicit-Euler time discretization onto the
discrete-horizon machinery of :mod:`.discrete`: first order, but valid
for singular F since the step matrix F - h C(t) is generically regular.
Four entry points:

* ``discretize``           the implicit-Euler reduction itself,
* ``apriori_estimate_continuous``  worst-case optimal readout of the
  integral functional int (ell(t), x(t)) dt, via the banded horizon
  solver of :mod:`.discrete` on the discretized chain, or via dense
  assembly of the discretized two-point boundary value problem (both
  paths kept, they must agree),
* ``tikhonov_approximate`` regularized solves for alpha -> 0, whose
  residual decay diagnoses whether the functional is representable,
* ``riccati_filter``       forward integration of the descriptor Riccati
  equation for endpoint functionals (ell_0, x(t_end)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.linalg

from .discrete import (
    DAEEllipsoid,
    DiscreteDAE,
    apriori_horizon_estimate,
    flatten,
    flatten_bounds,
    horizon_saddle,
    observation_information,
    solver_record,
)
from .errors import (
    InvalidGrid,
    InvalidInput,
    RankDeficient,
    RiccatiBlowup,
    SolveFailure,
)
from .linalg import (
    GRID_SPAN_TOL,
    GRID_UNIFORMITY_TOL,
    SADDLE_RESIDUAL_TOL,
    _distinct,
    as_matrix,
    per_entry,
    pseudo_inverse,
    range_membership,
    require_spd,
    sized_vector,
    solve_least_squares,
    spd_inverse,
    spd_stack_error,
    symmetrize,
)
from .static import _saddle_matrix

# Gain norms above this level are treated as finite escape.
RICCATI_NORM_CAP = 1e12

# Relative residual above which the assembled BVP counts as inconsistent.
_BVP_RESIDUAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# Time-indexed coefficients


class ConstantFunction:
    """Time function that always returns the same array."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, t: float) -> np.ndarray:
        return self.value

    def at(self, times: np.ndarray) -> np.ndarray:
        """Values at every time as one stack: a stride-0 broadcast."""
        return np.broadcast_to(self.value, (len(times),) + self.value.shape)


class TableFunction:
    """Piecewise-constant lookup: value j applies on [times[j], times[j+1])."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = [np.asarray(v, dtype=float) for v in values]
        if self.times.ndim != 1 or len(self.values) != self.times.shape[0]:
            raise InvalidInput("table function needs one value per breakpoint")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidInput("table breakpoints must be strictly increasing")
        if any(v.shape != self.values[0].shape for v in self.values):
            raise InvalidInput("table values must share one shape")

    def __call__(self, t: float) -> np.ndarray:
        return self.at(np.array([t]))[0]

    def at(self, times: np.ndarray) -> np.ndarray:
        """Values at every time as one stack (clamped to the table)."""
        idx = np.searchsorted(self.times, times, side="right") - 1
        return np.stack(self.values)[np.clip(idx, 0, len(self.values) - 1)]


class PolynomialFunction:
    """Matrix polynomial sum_j coefficients[j] * t**j."""

    def __init__(self, coefficients):
        self.coefficients = [np.asarray(c, dtype=float) for c in coefficients]
        if not self.coefficients:
            raise InvalidInput("polynomial function needs at least one coefficient")
        shape = self.coefficients[0].shape
        for c in self.coefficients:
            if c.shape != shape:
                raise InvalidInput("polynomial coefficients must share one shape")

    def __call__(self, t: float) -> np.ndarray:
        return self.at(np.array([t]))[0]

    def at(self, times: np.ndarray) -> np.ndarray:
        """Values at every time as one stack, summed in the same order
        (constant term first, powers by repeated multiplication)."""
        times = np.asarray(times, dtype=float)
        out = np.zeros((times.shape[0],) + self.coefficients[0].shape)
        power = np.ones(times.shape[0])
        for c in self.coefficients:
            out = out + power.reshape((-1,) + (1,) * c.ndim) * c
            power = power * times
        return out


TimeFunction = Callable[[float], np.ndarray]


def as_time_function(obj, name: str = "coefficient") -> TimeFunction:
    """Accept a callable, or promote a constant array to one."""
    if callable(obj):
        return obj
    try:
        return ConstantFunction(np.asarray(obj, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is neither callable nor array-like") from exc


# ---------------------------------------------------------------------------
# Grid and system containers


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``steps`` intervals between ``start`` and ``end``."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidGrid("grid endpoints must be finite")
        if self.end <= self.start:
            raise InvalidGrid(f"grid end {self.end} must exceed start {self.start}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise InvalidGrid(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def h(self) -> float:
        return (self.end - self.start) / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps + 1)

    @classmethod
    def from_nodes(cls, nodes) -> "TimeGrid":
        t = np.asarray(nodes, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2:
            raise InvalidGrid("need at least two nodes")
        gaps = np.diff(t)
        if np.any(gaps <= 0):
            raise InvalidGrid("nodes must be strictly increasing")
        if gaps.max() - gaps.min() > GRID_UNIFORMITY_TOL * max(abs(t[-1] - t[0]), 1.0):
            raise InvalidGrid("nodes are not uniformly spaced")
        return cls(start=float(t[0]), end=float(t[-1]), steps=t.shape[0] - 1)


@dataclass(frozen=True)
class ContinuousDAE:
    """Constant-F descriptor system with time-varying C(t) and H(t)."""

    F: np.ndarray
    C: TimeFunction
    H: TimeFunction
    t_start: float
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "F", as_matrix(self.F, "F"))
        object.__setattr__(self, "C", as_time_function(self.C, "C"))
        object.__setattr__(self, "H", as_time_function(self.H, "H"))
        if not (math.isfinite(self.t_start) and self.t_start < self.t_end < math.inf):
            raise InvalidInput(
                f"t_end must exceed t_start, both finite; got {self.t_start}, {self.t_end}"
            )
        m, n = self.F.shape
        c0 = np.asarray(self.C(self.t_start), dtype=float)
        if c0.shape != (m, n):
            raise InvalidInput(f"C(t) has shape {c0.shape}, expected {(m, n)}")
        h0 = np.asarray(self.H(self.t_start), dtype=float)
        if h0.ndim != 2 or h0.shape[1] != n:
            raise InvalidInput(f"H(t) must have {n} columns, got shape {h0.shape}")

    @property
    def state_dim(self) -> int:
        return self.F.shape[1]

    @property
    def equation_dim(self) -> int:
        return self.F.shape[0]

    @property
    def observation_dim(self) -> int:
        return np.asarray(self.H(self.t_start)).shape[0]


@dataclass(frozen=True)
class ContinuousEllipsoid:
    """Weights Q0 (initial), Q1(t) (process), Q2(t) (observation)."""

    Q0: np.ndarray
    Q1: TimeFunction
    Q2: TimeFunction

    def __post_init__(self):
        object.__setattr__(self, "Q0", require_spd(self.Q0, "Q0"))
        object.__setattr__(self, "Q1", as_time_function(self.Q1, "Q1"))
        object.__setattr__(self, "Q2", as_time_function(self.Q2, "Q2"))


def _check_pair(system: ContinuousDAE, bounds: ContinuousEllipsoid) -> None:
    """The weights match the model, sampled at t_start like C and H."""
    m, l = system.equation_dim, system.observation_dim
    for name, value, size in (
        ("Q0", bounds.Q0, m),
        ("Q1(t)", bounds.Q1(system.t_start), m),
        ("Q2(t)", bounds.Q2(system.t_start), l),
    ):
        if np.shape(value) != (size, size):
            raise InvalidInput(f"{name} must be {size}x{size}, got shape {np.shape(value)}")


def _check_grid(system: ContinuousDAE, grid: TimeGrid) -> None:
    span = system.t_end - system.t_start
    if (
        abs(grid.start - system.t_start) > GRID_SPAN_TOL * span
        or abs(grid.end - system.t_end) > GRID_SPAN_TOL * span
    ):
        raise InvalidGrid(
            f"grid [{grid.start}, {grid.end}] must span the system horizon "
            f"[{system.t_start}, {system.t_end}]"
        )


# ---------------------------------------------------------------------------
# Implicit-Euler reduction


def discretize(
    system: ContinuousDAE, bounds: ContinuousEllipsoid, grid: TimeGrid
) -> tuple:
    """Implicit-Euler reduction to a discrete descriptor horizon.

    Differencing d/dt(Fx) = C x + f at t_{k+1} gives

        (F - h C(t_{k+1})) x_{k+1} = F x_k + h f(t_{k+1}),

    so transition k carries F_{k+1} = F - h C(t_{k+1}), C_k = F and
    B_k = h I. Energies are Riemann sums of the integrals: the process
    disturbance h f(t_{k+1}) enters with weight h Q1(t_{k+1}) because
    int (Q1 f, f) dt ~ sum h (Q1(t_{k+1}) f_{k+1}, f_{k+1}); observation
    weights are h Q2(t_k) at every node. The initial row F x_0 = x0g
    keeps its exact weight Q0. The stacks are built whole from the node
    values (:func:`_nodes`); C_k, B_k and every constant coefficient are
    stride-0 broadcasts of one matrix. Every coefficient is sampled at
    every node, t_start included, and every weight value is checked SPD
    before the stacks are built, a constant once (:func:`_spd_nodes`).
    """
    _check_grid(system, grid)
    _check_pair(system, bounds)
    h = grid.h
    ts = grid.nodes()
    m, n = system.F.shape
    M = grid.steps

    F_seq = np.empty((M + 1, m, n))
    F_seq[0] = system.F
    F_seq[1:] = system.F - h * _nodes(system.C, ts, "C(t)")[1:]
    dae = DiscreteDAE(
        F_seq=F_seq,
        C_seq=np.broadcast_to(system.F, (M, m, n)),
        B_seq=np.broadcast_to(h * np.eye(m), (M, m, m)),
        S=np.eye(m),
        H_seq=_nodes(system.H, ts, "H(t)"),
    )

    def scaled(weight, name):
        return per_entry(lambda Q: h * Q, _spd_nodes(weight, ts, name))

    dbounds = DAEEllipsoid(
        Q0=bounds.Q0,
        Q1_seq=scaled(bounds.Q1, "Q1(t)")[1:],
        Q2_seq=scaled(bounds.Q2, "Q2(t)"),
    )
    return dae, dbounds


def _nodes(fn: TimeFunction, times: np.ndarray, name: str) -> np.ndarray:
    """fn at every time as one finite float stack.

    A coefficient with an ``at`` method (constant, table, polynomial) is
    evaluated whole, a constant as a stride-0 broadcast; any other
    callable is sampled once per time, and its values must share one
    shape. Callers pass every grid node, so that shape is the one the
    model checked at t_start. Raises InvalidInput naming the first time
    whose value has another shape or is not finite.
    """
    at = getattr(fn, "at", None)
    if at is not None:
        values = at(times)
    else:
        samples = [np.asarray(fn(t), dtype=float) for t in times]
        for t, value in zip(times, samples):
            if value.shape != samples[0].shape:
                raise InvalidInput(
                    f"{name} at t={t:.6g} has shape {value.shape}, expected {samples[0].shape}"
                )
        values = np.stack(samples)
    distinct = _distinct(values)
    finite = np.isfinite(distinct).all(axis=tuple(range(1, distinct.ndim)))
    if not finite.all():
        raise InvalidInput(f"{name} at t={times[int(np.argmin(finite))]:.6g} is not finite")
    return values


def _spd_nodes(fn: TimeFunction, times: np.ndarray, name: str) -> np.ndarray:
    """:func:`_nodes`, raising InvalidBounds at the first time whose value
    is not SPD. A constant is checked once, a table at every node that
    selects a value; a value that no node selects is never checked."""
    values = _nodes(fn, times, name)
    error = spd_stack_error(values, lambda i: f"{name} at t={times[i]:.6g}")
    if error is not None:
        raise error[1]
    return values


def _sampled_functional(system: ContinuousDAE, ell, grid: TimeGrid) -> np.ndarray:
    """Nodes of ell(t), shape (steps+1, n); see :func:`_nodes`."""
    n = system.state_dim
    ell_fn = as_time_function(ell, "ell")
    out = _nodes(ell_fn, grid.nodes(), "ell(t)").reshape(grid.steps + 1, -1)
    if out.shape[1] != n:
        raise InvalidInput(f"ell(t) has length {out.shape[1]}, expected {n}")
    return out


def _check_samples(system: ContinuousDAE, y_samples, grid: TimeGrid) -> np.ndarray:
    y = np.asarray(y_samples, dtype=float)
    expected = (grid.steps + 1, system.observation_dim)
    if y.shape != expected:
        raise InvalidInput(f"y_samples must have shape {expected}, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("y_samples contains non-finite entries")
    return y


# ---------------------------------------------------------------------------
# A priori estimation of integral functionals


@dataclass(frozen=True)
class ContinuousAprioriResult:
    """Readout density u_hat(t) at the nodes plus the error radius.

    ``sigma_hat`` is the worst-case mean-squared error of the readout
    int (u_hat(t), y(t)) dt against int (ell(t), x(t)) dt; infinite with
    feasible=False when the functional is not representable. ``solver``
    records the solve path (see :func:`.discrete.solver_record`).
    """

    feasible: bool
    sigma_hat: float
    u_hat_samples: Optional[np.ndarray] = None
    p_samples: Optional[np.ndarray] = None
    estimate_value: Optional[float] = None
    grid: Optional[TimeGrid] = None
    solver: Optional[dict] = None


def _bvp_system(system, bounds, grid):
    """Discretized two-point boundary value problem, assembled nodewise.

    Unknowns (p_0..p_M, z_0..z_M). Forward rows discretize
    d/dt(F p) = C p + Q1^{-1} z with F p(a) = Q0^{-1} z_0 (z_0 soaks up
    both boundary terms, since range(F) plus its complement is all of
    R^m); adjoint rows discretize -d/dt(F'z) - C'z + H'Q2H p = ell with
    terminal condition F'z = 0 beyond the horizon.
    """
    h = grid.h
    ts = grid.nodes()
    M = grid.steps
    m, n = system.F.shape
    F = system.F
    dim = (M + 1) * (n + m)
    A = np.zeros((dim, dim))
    poff = lambda k: k * n
    zoff = lambda k: (M + 1) * n + k * m

    step = F - h * _nodes(system.C, ts, "C(t)")[1:]
    H = _nodes(system.H, ts, "H(t)")
    Q1 = _spd_nodes(bounds.Q1, ts, "Q1(t)")[1:]
    Q2 = _spd_nodes(bounds.Q2, ts, "Q2(t)")

    A[0:m, poff(0) : poff(0) + n] = F
    A[0:m, zoff(0) : zoff(0) + m] = -spd_inverse(bounds.Q0)
    for k in range(M):
        r0 = (k + 1) * m
        A[r0 : r0 + m, poff(k + 1) : poff(k + 1) + n] = step[k]
        A[r0 : r0 + m, poff(k) : poff(k) + n] = -F
        A[r0 : r0 + m, zoff(k + 1) : zoff(k + 1) + m] = -h * spd_inverse(Q1[k])

    base = (M + 1) * m
    for k in range(M + 1):
        r0 = base + k * n
        A[r0 : r0 + n, poff(k) : poff(k) + n] = H[k].T @ Q2[k] @ H[k]
        A[r0 : r0 + n, zoff(k) : zoff(k) + m] = (step[k - 1].T if k > 0 else F.T) / h
        if k < M:
            A[r0 : r0 + n, zoff(k + 1) : zoff(k + 1) + m] = -F.T / h
    return A


def _readout(Q2: np.ndarray, H: np.ndarray, p_nodes: np.ndarray) -> np.ndarray:
    """Readout density u_k = Q2(t_k) H(t_k) p_k at every node."""
    return np.einsum("kij,kj->ki", Q2, np.einsum("kij,kj->ki", H, p_nodes))


def apriori_estimate_continuous(
    system: ContinuousDAE,
    bounds: ContinuousEllipsoid,
    ell,
    grid: TimeGrid,
    y_samples=None,
    method: str = "flattened",
) -> ContinuousAprioriResult:
    """Worst-case optimal readout of int (ell(t), x(t)) dt.

    ``method='flattened'`` discretizes and calls
    :func:`.discrete.apriori_horizon_estimate`: one banded factorization,
    with the flattened static solver as its fallback. ``method='bvp'``
    assembles the discretized optimality boundary value problem densely
    from the continuous coefficients. Both produce the node values of
    the readout density u_hat(t) = Q2(t) H(t) p(t) and the radius
    sigma_hat = sum_k h (ell(t_k), p_k); they must agree to solver
    precision, which the test suite enforces on random systems.
    """
    _check_grid(system, grid)
    _check_pair(system, bounds)
    if method not in ("flattened", "bvp"):
        raise InvalidInput(f"unknown method {method!r}")
    h = grid.h
    ts = grid.nodes()
    M = grid.steps
    n = system.state_dim
    ell_nodes = _sampled_functional(system, ell, grid)
    ell_flat = (h * ell_nodes).reshape(-1)
    if y_samples is not None:
        y_samples = _check_samples(system, y_samples, grid)

    if method == "flattened":
        dae, dbounds = discretize(system, bounds, grid)
        horizon = apriori_horizon_estimate(dae, dbounds, h * ell_nodes)
        solver = horizon.solver
        if not horizon.feasible:
            return ContinuousAprioriResult(
                feasible=False, sigma_hat=math.inf, grid=grid, solver=solver
            )
        p_nodes = horizon.p_seq
    else:
        solver = solver_record("dense")
        A = _bvp_system(system, bounds, grid)
        rhs = np.zeros(A.shape[0])
        rhs[(M + 1) * system.equation_dim :] = ell_nodes.reshape(-1)
        fit = solve_least_squares(A, rhs)
        scale = 1.0 + float(np.linalg.norm(ell_nodes))
        if fit.residual_norm > _BVP_RESIDUAL_TOL * scale:
            return ContinuousAprioriResult(
                feasible=False, sigma_hat=math.inf, grid=grid, solver=solver
            )
        p_nodes = fit.solution[: (M + 1) * n].reshape(M + 1, n)

    u_nodes = _readout(_nodes(bounds.Q2, ts, "Q2(t)"), _nodes(system.H, ts, "H(t)"), p_nodes)
    sigma = float(ell_flat @ p_nodes.reshape(-1))
    sigma = max(sigma, 0.0)
    estimate = None
    if y_samples is not None:
        estimate = float(np.sum(h * np.einsum("kj,kj->k", u_nodes, y_samples)))
    return ContinuousAprioriResult(
        feasible=True,
        sigma_hat=sigma,
        u_hat_samples=u_nodes,
        p_samples=p_nodes,
        estimate_value=estimate,
        grid=grid,
        solver=solver,
    )


# ---------------------------------------------------------------------------
# Tikhonov regularization


@dataclass(frozen=True)
class TikhonovResult:
    """Regularized readouts per alpha plus the convergence diagnostics.

    ``residual_seq[j]`` pairs alphas[j] and alphas[j+1]: the Cauchy
    difference of the readouts in the discrete L2 norm plus the
    dual-feasibility defect at alphas[j+1]. The defect term is what
    keeps the diagnostic honest when H annihilates everything: readouts
    can be identically zero and perfectly Cauchy while the functional is
    not representable, but the defect then stays bounded away from 0.
    """

    alphas: tuple
    u_samples_seq: tuple
    cauchy_seq: np.ndarray
    constraint_residual_seq: np.ndarray
    residual_seq: np.ndarray
    grid: TimeGrid


def _check_alphas(alphas) -> tuple:
    """The Tikhonov step sizes as a tuple of floats.

    They must form a non-empty flat sequence of finite, positive,
    strictly decreasing numbers; otherwise InvalidInput names ``alphas``.
    """
    try:
        a = np.asarray(alphas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"alphas is not a numeric sequence: {exc}") from exc
    if a.ndim != 1 or not a.size:
        raise InvalidInput(f"alphas must be a non-empty flat sequence, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("alphas contains non-finite entries")
    if (a <= 0).any():
        raise InvalidInput("alphas must be positive")
    if (np.diff(a) >= 0).any():
        raise InvalidInput("alphas must be strictly decreasing")
    return tuple(a.tolist())


def tikhonov_approximate(
    system: ContinuousDAE,
    bounds: ContinuousEllipsoid,
    ell,
    grid: TimeGrid,
    alphas: Sequence,
) -> TikhonovResult:
    """Regularized approximations of the a priori readout for alpha -> 0.

    For each alpha the singular optimality system gains alpha*h on the
    diagonal of its primal block, making it uniquely solvable; each alpha
    gets one banded factorization (:func:`.discrete.horizon_saddle`),
    with dense least squares on the flattened system as the fallback
    when the factorization is not trusted. When the
    functional is representable the readouts converge to the minimax
    readout and residual_seq decays; otherwise residual_seq stays
    bounded away from zero.
    """
    _check_grid(system, grid)
    alphas = _check_alphas(alphas)

    h = grid.h
    ts = grid.nodes()
    M = grid.steps
    n = system.state_dim

    dae, dbounds = discretize(system, bounds, grid)
    ell_nodes = _sampled_functional(system, ell, grid)
    ell_flat = (h * ell_nodes).reshape(-1)
    saddle = []  # the flattened saddle matrix, assembled on first use

    def dense_solve(alpha):
        if not saddle:
            model = flatten(dae)
            saddle.append(_saddle_matrix(model, flatten_bounds(dae, dbounds)))
        A = saddle[0].copy()
        dim = (M + 1) * n
        rows = A.shape[0] - dim
        A[rows + np.arange(dim), np.arange(dim)] += alpha * h  # the H'Q2H block
        rhs = np.concatenate([np.zeros(rows), ell_flat])
        fit = solve_least_squares(A, rhs)
        return fit.solution[:dim].reshape(M + 1, n), fit.residual_norm

    Q2_nodes, H_nodes = _nodes(bounds.Q2, ts, "Q2(t)"), _nodes(system.H, ts, "H(t)")
    u_list: List[np.ndarray] = []
    constraint = np.zeros(len(alphas))
    for j, alpha in enumerate(alphas):
        banded = horizon_saddle(dae, dbounds, shift=alpha * h)
        b = banded.rhs((h * ell_nodes)[None])
        solution = banded.factor.solve(b)
        if solution is not None:
            p_nodes = banded.states(solution)[0]
            residual = float(banded.factor.residual_norms(solution, b)[0])
        else:
            p_nodes, residual = dense_solve(alpha)
        if residual > SADDLE_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(ell_flat))):
            raise SolveFailure(
                f"regularized system at alpha={alpha} is numerically singular"
            )
        u_list.append(_readout(Q2_nodes, H_nodes, p_nodes))
        # Dual-feasibility defect alpha*h*p per node, in the integral norm.
        defect = alpha * h * p_nodes
        constraint[j] = float(np.linalg.norm(defect)) / math.sqrt(h)

    cauchy = np.zeros(max(len(alphas) - 1, 0))
    for j in range(1, len(alphas)):
        diff = u_list[j] - u_list[j - 1]
        cauchy[j - 1] = math.sqrt(h * float(np.sum(diff * diff)))
    residual = cauchy + constraint[1:] if len(alphas) > 1 else np.zeros(0)
    return TikhonovResult(
        alphas=alphas,
        u_samples_seq=tuple(u_list),
        cauchy_seq=cauchy,
        constraint_residual_seq=constraint,
        residual_seq=residual,
        grid=grid,
    )


# ---------------------------------------------------------------------------
# Descriptor Riccati filter


@dataclass(frozen=True)
class RiccatiResult:
    """Endpoint readout (ell_0, x(t_end)) with its worst-case radius.

    When ell_0 is outside range(F') no linear readout has a finite
    radius: ``feasible`` is False, ``sigma_hat`` infinite and the other
    fields None.
    """

    feasible: bool
    sigma_hat: float
    estimate_value: Optional[float] = None
    K_final: Optional[np.ndarray] = None
    x_hat_final: Optional[np.ndarray] = None
    K_nodes: Optional[np.ndarray] = None  # (steps+1, n, n) gain at every grid node


def riccati_filter(
    system: ContinuousDAE,
    bounds: ContinuousEllipsoid,
    ell0,
    y_samples,
    grid: TimeGrid,
) -> RiccatiResult:
    """Forward filter for the endpoint functional (ell_0, x(t_end)).

    Integrates the descriptor Riccati equation for the gain K,

        d/dt (F K) = C K + K'C' - K'H'Q2 H K + Q1^{-1},
        F K(t_start) = P Q0^{-1} P,   P = F F^+,

    in the variable S = F K, which the symmetric initial value and the
    Lyapunov-plus-quadratic right-hand side keep symmetric along the
    flow (K is recovered as the minimum-norm preimage F^+ S). Each step
    is linearly implicit: the quadratic term is linearized around the
    current S, leaving a Sylvester equation

        (I - h A_j) S_{j+1} + S_{j+1} (-h A_j') = S_j + h Q1^{-1},
        A_j = (C - (1/2) K_j' H'Q2H) F^+   at t_{j+1},

    which preserves stationary points of the flow exactly. The center
    x_hat follows d/dt(F x_hat) = C x_hat + K'H'Q2 (y - H x_hat) with
    F x_hat(t_start) = 0, by implicit Euler with the fresh gain. The
    readout is (F x_hat(t_end), F^{+'} ell_0) and its squared radius
    (S(t_end) F^{+'} ell_0, F^{+'} ell_0).

    Q2, Q1, C and H are sampled at every node, t_start included, and
    every weight value checked SPD before anything else is decided, so a
    bad coefficient raises whatever ell_0 is. Requires square F. Only
    then is ell_0 tested against range(F'): outside it no endpoint
    readout has a finite radius, and the result is infeasible, with an
    infinite ``sigma_hat``, and nothing is integrated.
    """
    _check_grid(system, grid)
    _check_pair(system, bounds)
    m, n = system.F.shape
    if m != n:
        raise InvalidInput("riccati_filter needs a square coefficient F")
    ell0 = sized_vector(ell0, "ell0", n)
    y = _check_samples(system, y_samples, grid)
    ts = grid.nodes()
    Q2 = _spd_nodes(bounds.Q2, ts, "Q2(t)")[1:]
    Q1 = _spd_nodes(bounds.Q1, ts, "Q1(t)")[1:]
    C = _nodes(system.C, ts, "C(t)")[1:]
    H = _nodes(system.H, ts, "H(t)")[1:]
    if not range_membership(system.F.T, ell0).member:
        return RiccatiResult(feasible=False, sigma_hat=math.inf)

    F = system.F
    Fp = pseudo_inverse(F)
    proj = F @ Fp
    S = symmetrize(proj @ spd_inverse(bounds.Q0) @ proj)
    x_hat = np.zeros(n)
    h = grid.h
    eye = np.eye(n)
    gains = np.empty((grid.steps + 1, n, n))
    gains[0] = Fp @ S

    HtQ2, W = per_entry(observation_information, H, Q2)
    h_Q1_inv = per_entry(lambda Q: h * symmetrize(np.linalg.inv(symmetrize(Q))), Q1)
    data = h * np.einsum("kij,kj->ki", HtQ2, y[1:])
    step_base = per_entry(lambda C: F - h * C, C)

    for j in range(grid.steps):
        t_next = ts[j + 1]
        K = Fp @ S
        A_j = (C[j] - 0.5 * (K.T @ W[j])) @ Fp
        try:
            rhs = S + h_Q1_inv[j]
            S = scipy.linalg.solve_sylvester(eye - h * A_j, -h * A_j.T, rhs)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RankDeficient(
                f"implicit Riccati step matrix at t={t_next} is singular"
            ) from exc
        S = symmetrize(S)
        K = Fp @ S
        gain_norm = float(np.linalg.norm(K, 2))
        if not math.isfinite(gain_norm) or gain_norm > RICCATI_NORM_CAP:
            raise RiccatiBlowup(
                f"gain norm {gain_norm:.3e} at t={t_next} exceeds {RICCATI_NORM_CAP}"
            )
        gains[j + 1] = K
        try:
            step_mat = step_base[j] + h * (K.T @ W[j])
            x_hat = np.linalg.solve(step_mat, F @ x_hat + K.T @ data[j])
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(
                f"implicit state step matrix at t={t_next} is singular"
            ) from exc

    v = Fp.T @ ell0
    sigma = float(v @ (S @ v))
    estimate = float((F @ x_hat) @ v)
    return RiccatiResult(
        feasible=True,
        sigma_hat=max(sigma, 0.0),
        estimate_value=estimate,
        K_final=Fp @ S,
        x_hat_final=x_hat,
        K_nodes=gains,
    )
