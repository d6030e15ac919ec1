"""Estimation for continuous-time descriptor systems d/dt(F x) = C(t) x + f.

The state x(t) solves the possibly-singular linear DAE

    d/dt (F x)(t) = C(t) x(t) + f(t),     t in [t_start, t_end],
    F x(t_start)  = x0g,

observed through y(t) = H(t) x(t) + g(t), with the joint bound

    (Q0 x0g, x0g) + int (Q1(t) f, f) dt + int (Q2(t) g, g) dt <= 1.

Everything is computed by implicit-Euler time discretization onto the
discrete-horizon machinery of :mod:`.discrete` and :mod:`.filtering`:
first order, but valid for singular F since the step matrix F - h C(t)
is generically regular. Four entry points:

* ``discretize``           the implicit-Euler reduction itself,
* ``apriori_estimate_continuous``  worst-case optimal readout of the
  integral functional int (ell(t), x(t)) dt: the a priori estimate
  :func:`.discrete.apriori_horizon_estimate` of the discretized chain
  (``method='bvp'`` is its dense route, kept for perfbench's baseline
  until ROADMAP item 3a),
* ``tikhonov_approximate`` regularized solves for alpha -> 0, whose
  residual decay diagnoses whether the functional is representable.
  The penalty alpha int (x, x) dt is one more observation of the whole
  state, of value zero and weight alpha, so each alpha is the same a
  priori estimate on the chain with that observation appended,
* ``riccati_filter``       the endpoint functional (ell_0, x(t_end)): the
  chain filter on the grid and on every other node, combined by one
  Richardson step into a second-order answer. It keeps every row of the
  chain, the algebraic states of a singular F included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from .discrete import (
    DAEEllipsoid,
    DiscreteDAE,
    _dense_apriori,
    apriori_horizon_estimate,
)
from .errors import (
    InvalidGrid,
    InvalidInput,
    NumericalBreakdown,
    RankDeficient,
)
from .linalg import (
    GRID_SPAN_TOL,
    _distinct,
    as_matrix,
    in_span,
    per_entry,
    require_spd,
    sized_vector,
    spd_inverse,
    spd_stack_error,
    svd_subspaces,
    symmetrize,
    vector_stack,
)
from .filtering import filter_run
from .static import Estimate


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
        if not np.isfinite(self.times).all():
            raise InvalidInput("table breakpoints must be finite")
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
        steps = self.steps
        integral = isinstance(steps, (int, np.integer)) or (
            isinstance(steps, float) and steps.is_integer()
        )
        if isinstance(steps, bool) or not integral or steps < 1:
            raise InvalidGrid(f"steps must be a positive integer, got {steps}")
        if steps >= np.iinfo(np.intp).max:  # the steps + 1 nodes must be indexable
            raise InvalidGrid(f"steps must be below {np.iinfo(np.intp).max}, got {steps:g}")
        object.__setattr__(self, "steps", int(steps))

    @property
    def h(self) -> float:
        return (self.end - self.start) / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps + 1)


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
        if not n:
            raise InvalidInput("F has 0 columns; a system needs at least one state")
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
    """y at every node as one (steps+1, l) array; see :func:`.linalg.vector_stack`."""
    return vector_stack(
        y_samples, "y_samples", grid.steps + 1, system.observation_dim, "observation samples"
    )


# ---------------------------------------------------------------------------
# A priori estimation of integral functionals


def apriori_estimate_continuous(
    system: ContinuousDAE,
    bounds: ContinuousEllipsoid,
    ell,
    grid: TimeGrid,
    y_samples=None,
    method: str = "flattened",
) -> Estimate:
    """Worst-case optimal readout of int (ell(t), x(t)) dt.

    ``method='flattened'`` is the a priori estimate
    :func:`.discrete.apriori_horizon_estimate` of the discretized chain
    for the functional h ell(t_k): one banded factorization, with the
    flattened static solver as its fallback. Its radius, direction p and
    estimate are returned as they are, and its readout (which weights
    y_k) divided by h as the density: the node values of the readout
    density u_hat(t) = Q2(t) H(t) p(t), the output ``u_hat_samples``.
    The worst-case mean-squared error is sum_k h (ell(t_k), p_k).

    The discretized optimality boundary value problem is the chain's
    saddle system with its adjoint rows times h. ``method='bvp'`` is
    therefore the dense route of the same chain, that fallback taken
    always; it is kept for perfbench's baseline until ROADMAP item 3a.
    """
    _check_grid(system, grid)
    _check_pair(system, bounds)
    if method not in ("flattened", "bvp"):
        raise InvalidInput(f"unknown method {method!r}")
    h = grid.h
    ell_nodes = _sampled_functional(system, ell, grid)
    if y_samples is not None:
        y_samples = _check_samples(system, y_samples, grid)
    dae, dbounds = discretize(system, bounds, grid)
    solve = apriori_horizon_estimate if method == "flattened" else _dense_apriori
    horizon = solve(dae, dbounds, h * ell_nodes, y_samples)
    if not horizon.feasible:
        return horizon
    u_hat = horizon.outputs["u_hat"].reshape(grid.steps + 1, system.observation_dim)
    return replace(horizon, outputs={"u_hat_samples": u_hat / h})


# ---------------------------------------------------------------------------
# Tikhonov regularization


@dataclass(frozen=True)
class TikhonovResult:
    """Regularized readouts per alpha plus the convergence diagnostics.

    ``u_samples_seq[j]`` holds the readout density Q2(t_k) H(t_k) p_k at
    every node for alphas[j], from the a priori estimate of the
    penalized chain (:func:`tikhonov_approximate`), and
    ``constraint_residual_seq[j]`` its defect alpha h p in the integral
    norm. ``residual_seq[j]`` pairs alphas[j] and alphas[j+1]: the Cauchy
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

    The penalty alpha int (x, x) dt is one more observation of the whole
    state, of value zero and weight alpha (Tikhonov & Arsenin, *Solutions
    of Ill-Posed Problems*, 1977). The discretized chain is observed once
    more: each H_k gains an n x n identity block, and for each alpha the
    weight h Q2(t_k) becomes blockdiag(h Q2(t_k), alpha h I). That adds
    alpha h I to every H_k'Q2_k H_k, which makes the saddle system
    uniquely solvable. Each alpha is then one
    :func:`.discrete.apriori_horizon_estimate` on this penalized chain:
    one banded factorization, with the static estimators on the
    flattened chain as its fallback; the penalty observes every state,
    so that fallback answers every alpha, however small. The first l
    components of its readout, divided by h, are the density
    Q2(t_k) H(t_k) p_k. When the functional is representable the
    readouts converge to the minimax readout and residual_seq decays;
    otherwise residual_seq stays bounded away from zero. A
    NumericalBreakdown of one solve is re-raised naming its alpha, and so
    is an infeasible solve: the penalty observes every state, so only
    rounding that cut its rows can leave the functional unrepresentable.
    """
    _check_grid(system, grid)
    alphas = _check_alphas(alphas)
    h = grid.h
    if alphas[-1] * h == 0.0:  # a zero penalty weight is no SPD weight
        raise InvalidInput(f"alphas end at {alphas[-1]:g}, which times the step {h:g} is 0")
    l, n = system.observation_dim, system.state_dim
    dae, dbounds = discretize(system, bounds, grid)
    ell_seq = h * _sampled_functional(system, ell, grid)
    eye = np.eye(n)

    def observe_state(H):
        return np.concatenate([H, np.broadcast_to(eye, (H.shape[0], n, n))], axis=1)

    def penalized_weights(Q2, alpha):
        W = np.zeros((Q2.shape[0], l + n, l + n))
        W[:, :l, :l] = Q2
        W[:, l:, l:] = alpha * h * eye
        return W

    penalized = replace(dae, H_seq=per_entry(observe_state, dae.H_seq))
    u_list: List[np.ndarray] = []
    constraint = np.zeros(len(alphas))
    for j, alpha in enumerate(alphas):
        Q2_seq = per_entry(lambda Q2: penalized_weights(Q2, alpha), dbounds.Q2_seq)
        try:
            horizon = apriori_horizon_estimate(
                penalized, replace(dbounds, Q2_seq=Q2_seq), ell_seq
            )
            if not horizon.feasible:
                raise NumericalBreakdown(
                    "the functional came out not representable: rounding cut the penalty rows"
                )
        except NumericalBreakdown as exc:
            raise NumericalBreakdown(f"regularized solve at alpha={alpha}: {exc}") from exc
        u_list.append(horizon.outputs["u_hat"].reshape(grid.steps + 1, l + n)[:, :l] / h)
        # Dual-feasibility defect alpha*h*p per node, in the integral norm.
        defect = alpha * h * horizon.p
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
    )


# ---------------------------------------------------------------------------
# Endpoint filter


def riccati_filter(
    system: ContinuousDAE,
    bounds: ContinuousEllipsoid,
    ell0,
    y_samples,
    grid: TimeGrid,
) -> Estimate:
    """Filter for the endpoint functional (ell_0, x(t_end)), extrapolated.

    The continuous minimax filter is the limit of the discrete filter on a
    refining grid (Jazwinski, *Stochastic Processes and Filtering Theory*,
    1970). :func:`.filtering.filter_run` runs on the implicit-Euler chain
    of the grid (step h, M steps) and on the chain of every other node
    (step 2h, y read at those nodes), and each squared quantity X is
    combined by one Richardson step, 2 X(h) - X(2h) (Hairer, Norsett &
    Wanner, *Solving ODEs I*, II.9), which cancels the chains' first-order
    error. Every row of the chain is kept, so the algebraic states of a
    singular F enter x's dynamics, y and the cross-weights.

    * The worst-case mean-squared error is 2 ell'P_N(h)ell - ell'P_N(2h)ell,
      with P_N the filtered covariance of each chain.
    * ``estimate`` and ``x_hat_final`` are the readout and the center of
      the M-step chain, not extrapolated: on sampled, rough data an
      extrapolated center need not be closer.
    * ``K_nodes[k]`` is the gain at node k, Pi (P^-_k(h) + E_k) Pi, with
      P^-_k the covariance of x_k before y_k is absorbed (the filtered one
      would leave the gain twice as far off), E = P^-(h) - P^-(2h) the
      chains' first-order error at the even nodes and linearly
      interpolated in between, and Pi = F^+F the projector onto range(F'),
      which keeps out the kernel block that grows like 1/h. Both chains
      start on P^-_0 = (F'Q0F)^+, so E at t_start is extrapolated from
      the next two even nodes: for a singular F whose noise reaches both
      x and y the error's rate does not vanish there. ``K_final`` is the
      last node's.
    * ``solver`` is the M-step chain's filter record with
      ``extrapolation_gap`` = |X(h) - X(2h)| of the squared radius.

    Checks run in this order: the grid spans the horizon, the weights
    match the model, F is square, ell_0 has n entries, y has one row per
    node, and M is even (InvalidGrid otherwise: y exists only at the
    nodes). Then :func:`discretize` samples and checks every node. Only
    then is ell_0 tested against range(F'), by :func:`.linalg.in_span` on
    the row basis of F: outside it no endpoint readout has a finite
    radius, and the result is infeasible, with an infinite radius, and
    nothing is run (``solver`` None). A (F'Q0F)^+ that is not finite, or
    an F'Q0F that is not positive definite in floating point, raises
    NumericalBreakdown. The chains' verdicts come next (a singular
    information matrix, or data outside the bound), the M-step chain's
    first. Then a chain that lost a direction to rounding gives an infinite
    radius, with that chain's record and ``chain_steps``, its step count.
    Last, a gain that is not finite (an exactly singular step matrix) and a
    negative extrapolated radius raise NumericalBreakdown.
    """
    _check_grid(system, grid)
    _check_pair(system, bounds)
    m, n = system.F.shape
    if m != n:
        raise InvalidInput("riccati_filter needs a square coefficient F")
    ell0 = sized_vector(ell0, "ell0", n)
    y = _check_samples(system, y_samples, grid)
    if grid.steps % 2:
        raise InvalidGrid(
            f"riccati_filter needs an even number of grid steps, got {grid.steps}: "
            "the chain of every other node reads y at those nodes"
        )
    fine = discretize(system, bounds, grid)
    rows = svd_subspaces(system.F)
    V, kernel = rows.row_basis, rows.kernel_basis
    if not in_span(V, ell0, np.linalg.norm(ell0)):
        return Estimate(False, None, math.inf, math.inf)
    coarse = discretize(system, bounds, replace(grid, steps=grid.steps // 2))
    # (F'Q0F)^+, the covariance of x(t_start) on range(F'); an F near the
    # overflow or underflow threshold leaves F'Q0F not finite or not definite
    FV = system.F @ V
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            P0 = V @ spd_inverse(symmetrize(FV.T @ bounds.Q0 @ FV)) @ V.T
        except (ValueError, np.linalg.LinAlgError):
            P0 = None
    if P0 is None or not np.isfinite(P0).all():
        raise NumericalBreakdown(
            "(F'Q0F)^+, the covariance of x(t_start), is not finite in floating point"
        )
    run, K = _chain_run(*fine, y, ell0, P0)
    coarse_run, P_coarse = _chain_run(*coarse, y[::2], ell0, P0)
    for chain, steps in ((run, grid.steps), (coarse_run, grid.steps // 2)):
        if not chain.feasible:  # a direction lost to rounding
            lost = chain.solver | {"chain_steps": steps}
            return Estimate(False, None, math.inf, math.inf, solver=lost)
    with np.errstate(invalid="ignore"):  # an unbounded P^- is named below
        E = K[::2] - P_coarse
        E[0] = 2.0 * E[1] - E[2] if E.shape[0] > 2 else E[1]
        K[2::2] += E[1:]
        K[1::2] += 0.5 * (E[:-1] + E[1:])
        if kernel.shape[1]:
            proj = np.eye(n) - kernel @ kernel.T
            K = proj @ K @ proj
    finite = np.isfinite(K).all(axis=(1, 2))
    if not finite.all():
        t = grid.nodes()[np.argmin(finite)]
        raise NumericalBreakdown(f"the gain at t={t:.6g} is not finite")

    fine_sq, coarse_sq = (float(ell0 @ r.outputs["P_final"] @ ell0) for r in (run, coarse_run))
    sigma = 2.0 * fine_sq - coarse_sq
    if sigma < 0.0:
        raise NumericalBreakdown(
            f"extrapolated squared radius is negative: 2 x {fine_sq:.6e} (M={grid.steps}) "
            f"- {coarse_sq:.6e} (M={grid.steps // 2})"
        )
    solver = {**run.solver, "extrapolation_gap": abs(fine_sq - coarse_sq)}
    return Estimate(
        feasible=True,
        estimate=run.estimate,
        radius=math.sqrt(sigma),
        worst_case_mse=sigma,
        outputs={"K_final": K[-1], "x_hat_final": run.outputs["x_hat_final"]},
        solver=solver,
        K_nodes=K,
    )


def _chain_run(dae: DiscreteDAE, dbounds: DAEEllipsoid, y, ell, P0) -> tuple:
    """:func:`.filtering.filter_run` on one chain, and the covariance P^-_k
    of every x_k before y_k is absorbed.

    P^-_0 = P0, and from the filtered P_{k-1} of the run,

        P^-_k = F_k^{-1} (C_{k-1} P_{k-1} C_{k-1}' + B_{k-1} Q1_{k-1}^{-1} B_{k-1}') F_k^{-T},

    with every F_k^{-1} from one batched solve; an exactly singular F_k
    (x_k unbounded before y_k) gives a P^-_k that is not finite. A rank
    verdict of the run is raised again naming the chain's step count.
    """
    N, n = dae.horizon, dae.state_dim
    P = np.empty((N + 1, n, n))
    try:
        run = filter_run(dae, dbounds, y, ell, P)
    except RankDeficient as exc:
        raise RankDeficient(f"{N}-step chain: {exc}") from exc
    noise = per_entry(
        lambda B, Q: B @ np.linalg.inv(Q) @ np.swapaxes(B, 1, 2), dae.B_seq, dbounds.Q1_seq
    )
    with np.errstate(all="ignore"):
        try:
            T = np.linalg.inv(dae.F_seq[1:])
        except np.linalg.LinAlgError:  # some F_k is exactly singular: its T is not finite
            U, s, Vt = np.linalg.svd(dae.F_seq[1:])
            T = np.swapaxes(Vt, 1, 2) @ (np.swapaxes(U, 1, 2) / s[:, :, None])
        prior = dae.C_seq @ P[:-1] @ np.swapaxes(dae.C_seq, 1, 2) + noise
        P[1:] = symmetrize(T @ prior @ np.swapaxes(T, 1, 2))
    P[0] = P0
    return run, P
