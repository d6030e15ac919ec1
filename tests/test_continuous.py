"""Continuous-time machinery: implicit-Euler reduction, the two a priori
solution paths, the regularized approximation, and the gain-integrating
endpoint filter.

The workhorse example is the scalar system x' = f, y = x + g on [0, 1]
with unit weights and density functional ell(t) = 1. Its optimality
boundary value problem solves in closed form (p(t) combines 1 and
e^{+-t}), giving sigma = 1 - (e - 1)/(2 e^2) - (1 - 1/e)/2.
"""

import re

import numpy as np
import pytest
import scipy.linalg

from descriptor_minimax import (
    ConstantFunction,
    ContinuousDAE,
    ContinuousEllipsoid,
    InvalidBounds,
    InvalidGrid,
    InvalidInput,
    NumericalBreakdown,
    PolynomialFunction,
    RankDeficient,
    RiccatiBlowup,
    TableFunction,
    TimeGrid,
    apriori_estimate_continuous,
    discretize,
    filter_run,
    riccati_filter,
    tikhonov_approximate,
    variational_estimate,
)

from descriptor_minimax import continuous, discrete
from descriptor_minimax.continuous import _sampled_functional
from descriptor_minimax.discrete import flatten, flatten_bounds
from descriptor_minimax.linalg import (
    pseudo_inverse,
    require_spd,
    solve_least_squares,
    spd_inverse,
    symmetrize,
)
from descriptor_minimax.static import _saddle_matrix

from conftest import rng_for

SIGMA_EXACT = 1.0 - (np.e - 1.0) / (2.0 * np.e**2) - (1.0 - 1.0 / np.e) / 2.0
SIGMA_H_MILLI = 0.5684389435893746  # frozen flattened value at h = 1e-3


def scalar_system():
    system = ContinuousDAE(
        F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    return system, bounds


def ell_one(t):
    return np.array([1.0])


# ---------------------------------------------------------------------------
# grids and time functions


def test_time_grid_basics():
    grid = TimeGrid(0.0, 1.0, 4)
    assert grid.h == pytest.approx(0.25)
    assert grid.nodes() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_rejects_bad_input():
    with pytest.raises(InvalidGrid):
        TimeGrid(0.0, 0.0, 4)
    with pytest.raises(InvalidGrid):
        TimeGrid(0.0, 1.0, 0)


def test_table_function_lookup():
    f = TableFunction([0.0, 0.5], [np.eye(1), 2.0 * np.eye(1)])
    assert f(0.0) == pytest.approx(np.eye(1))
    assert f(0.49) == pytest.approx(np.eye(1))
    assert f(0.5) == pytest.approx(2.0 * np.eye(1))
    assert f(7.0) == pytest.approx(2.0 * np.eye(1))
    with pytest.raises(InvalidInput):
        TableFunction([0.5, 0.5], [np.eye(1), np.eye(1)])
    with pytest.raises(InvalidInput, match="share one shape"):
        TableFunction([0.0, 0.5], [np.eye(1), np.eye(2)])


def test_polynomial_function_value():
    f = PolynomialFunction([np.eye(1), 2.0 * np.eye(1)])
    assert f(0.0) == pytest.approx(np.eye(1))
    assert f(3.0) == pytest.approx(7.0 * np.eye(1))


def test_grid_must_span_horizon():
    system, bounds = scalar_system()
    with pytest.raises(InvalidGrid):
        apriori_estimate_continuous(
            system, bounds, ell_one, TimeGrid(0.0, 0.5, 8)
        )


def mismatched_weights():
    """Bounds for the scalar system with one weight 2x2 instead of 1x1."""
    one, two = np.eye(1), np.eye(2)
    return [
        ContinuousEllipsoid(Q0=two, Q1=one, Q2=one),
        ContinuousEllipsoid(Q0=one, Q1=two, Q2=one),
        ContinuousEllipsoid(Q0=one, Q1=one, Q2=two),
    ]


WEIGHT_MISMATCH = r"Q[012](\(t\))? must be 1x1, got shape \(2, 2\)"


def test_discretize_rejects_mismatched_weights():
    system, _ = scalar_system()
    for bounds in mismatched_weights():
        with pytest.raises(InvalidInput, match=WEIGHT_MISMATCH):
            discretize(system, bounds, TimeGrid(0.0, 1.0, 4))


@pytest.mark.parametrize("method", ["flattened", "bvp"])
def test_apriori_rejects_mismatched_weights(method):
    system, _ = scalar_system()
    for bounds in mismatched_weights():
        with pytest.raises(InvalidInput, match=WEIGHT_MISMATCH):
            apriori_estimate_continuous(
                system, bounds, ell_one, TimeGrid(0.0, 1.0, 4), method=method
            )


def test_tikhonov_rejects_mismatched_weights():
    system, _ = scalar_system()
    for bounds in mismatched_weights():
        with pytest.raises(InvalidInput, match=WEIGHT_MISMATCH):
            tikhonov_approximate(
                system, bounds, ell_one, TimeGrid(0.0, 1.0, 4), [0.5, 0.1]
            )


def test_riccati_rejects_mismatched_weights():
    # F = C = H = 1: before the check, a 2x2 Q1(t) surfaced as a singular
    # Riccati step and a 2x2 Q2(t) as a raw numpy error
    system = ContinuousDAE(F=[[1.0]], C=[[1.0]], H=[[1.0]], t_start=0.0, t_end=1.0)
    for bounds in mismatched_weights():
        with pytest.raises(InvalidInput, match=WEIGHT_MISMATCH):
            riccati_filter(system, bounds, [1.0], np.zeros((5, 1)), TimeGrid(0.0, 1.0, 4))


# ---------------------------------------------------------------------------
# implicit-Euler reduction


def test_discretize_layout_and_weights():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 4)
    dae, dbounds = discretize(system, bounds, grid)
    h = 0.25
    assert dae.horizon == 4
    assert dae.F_seq[0] == pytest.approx(np.array([[1.0]]))
    for k in range(4):
        assert dae.F_seq[k + 1] == pytest.approx(np.array([[1.0]]))  # F - h*0
        assert dae.C_seq[k] == pytest.approx(np.array([[1.0]]))  # F itself
        assert dae.B_seq[k] == pytest.approx(h * np.eye(1))
        assert dbounds.Q1_seq[k] == pytest.approx(h * np.eye(1))
    assert dae.S == pytest.approx(np.eye(1))
    assert dbounds.Q0 == pytest.approx(np.eye(1))
    for k in range(5):
        assert dbounds.Q2_seq[k] == pytest.approx(h * np.eye(1))


def test_discretize_checks_each_weight_once(monkeypatch):
    import descriptor_minimax.continuous as continuous_mod

    system, bounds = scalar_system()
    varying = ContinuousEllipsoid(
        Q0=[[1.0]], Q1=lambda t: np.array([[1.0 + t]]), Q2=lambda t: np.array([[2.0 + t]])
    )
    checked = {}
    real = continuous_mod.spd_stack_error

    def counted(stack, label):
        # entries the check works on: one for a stride-0 broadcast
        name = label(0).split(" at ")[0]
        checked[name] = checked.get(name, 0) + (1 if stack.strides[0] == 0 else len(stack))
        return real(stack, label)

    monkeypatch.setattr(continuous_mod, "spd_stack_error", counted)
    grid = TimeGrid(0.0, 1.0, 8)
    _, dbounds = discretize(system, bounds, grid)
    # constant weights: one check each, one scaled matrix shared by all
    # steps as a stride-0 stack
    assert checked == {"Q1(t)": 1, "Q2(t)": 1}
    assert dbounds.Q1_seq.strides[0] == 0 and dbounds.Q2_seq.strides[0] == 0
    assert len(dbounds.Q2_seq) == 9

    checked.clear()
    _, dbounds = discretize(system, varying, grid)
    # time-varying weights: one check per node, t_start included
    assert checked == {"Q1(t)": 9, "Q2(t)": 9}
    assert dbounds.Q2_seq[4] == pytest.approx(grid.h * np.array([[2.5]]))


def test_discretize_still_rejects_indefinite_weight():
    system, _ = scalar_system()
    bad = ContinuousEllipsoid(Q0=[[1.0]], Q1=lambda t: np.array([[t - 0.5]]), Q2=[[1.0]])
    with pytest.raises(InvalidBounds):
        discretize(system, bad, TimeGrid(0.0, 1.0, 4))


def _from_half(before, after):
    """A plain callable whose value switches at t = 0.5."""
    return lambda t: np.array(before if t < 0.5 else after)


BAD_CALLABLES = [
    ("C", _from_half([[0.0]], [[0.0, 1.0]]), r"C\(t\) at t=0\.5 has shape \(1, 2\)"),
    ("C", _from_half([[0.0]], [[np.nan]]), r"C\(t\) at t=0\.5 is not finite"),
    ("Q1", _from_half([[1.0]], np.eye(2)), r"Q1\(t\) at t=0\.5 has shape \(2, 2\)"),
    ("Q1", _from_half([[1.0]], [[np.nan]]), r"Q1\(t\) at t=0\.5 is not finite"),
    # 1x1 at t_start, where the model checks shapes, and 2x2 after it
    ("Q1", lambda t: np.eye(1 if t == 0.0 else 2), r"Q1\(t\) at t=0\.25 has shape \(2, 2\)"),
]


@pytest.mark.parametrize(
    "name, fn, message",
    BAD_CALLABLES,
    ids=["C-shape", "C-nan", "Q1-shape", "Q1-nan", "Q1-after-start"],
)
def test_callable_coefficients_are_checked_at_every_node(name, fn, message):
    system, bounds = scalar_system()
    if name == "C":
        system = ContinuousDAE(F=[[1.0]], C=fn, H=[[1.0]], t_start=0.0, t_end=1.0)
    else:
        bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=fn, Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 4)
    calls = [
        lambda: discretize(system, bounds, grid),
        lambda: apriori_estimate_continuous(system, bounds, ell_one, grid),
        lambda: apriori_estimate_continuous(system, bounds, ell_one, grid, method="bvp"),
        lambda: riccati_filter(system, bounds, [1.0], np.zeros((5, 1)), grid),
    ]
    for call in calls:
        with pytest.raises(InvalidInput, match=message):
            call()
    # the integral functional goes through the same sampler
    with pytest.raises(InvalidInput, match=r"ell\(t\) at t=0\.5 has shape \(2,\)"):
        apriori_estimate_continuous(system, bounds, _from_half([1.0], [1.0, 0.0]), grid)


def test_discretize_time_varying_transition():
    system = ContinuousDAE(
        F=[[1.0]],
        C=PolynomialFunction([np.zeros((1, 1)), np.eye(1)]),  # C(t) = t
        H=[[1.0]],
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    dae, _ = discretize(system, bounds, TimeGrid(0.0, 1.0, 2))
    # F_{k+1} = F - h C(t_{k+1}) with h = 1/2 at t = 1/2 and t = 1
    assert dae.F_seq[1] == pytest.approx(np.array([[1.0 - 0.25]]))
    assert dae.F_seq[2] == pytest.approx(np.array([[0.5]]))


# ---------------------------------------------------------------------------
# a priori readout paths


def test_scalar_sigma_matches_frozen_and_analytic():
    system, bounds = scalar_system()
    out = apriori_estimate_continuous(
        system, bounds, ell_one, TimeGrid(0.0, 1.0, 1000)
    )
    assert out.feasible
    assert out.worst_case_mse == pytest.approx(SIGMA_H_MILLI, rel=1e-12)
    assert out.worst_case_mse == pytest.approx(SIGMA_EXACT, abs=1e-3)


def test_scalar_paths_agree():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 64)
    a = apriori_estimate_continuous(system, bounds, ell_one, grid)
    b = apriori_estimate_continuous(system, bounds, ell_one, grid, method="bvp")
    assert a.worst_case_mse == pytest.approx(b.worst_case_mse, rel=1e-10)
    u_a, u_b = a.outputs["u_hat_samples"], b.outputs["u_hat_samples"]
    assert np.max(np.abs(u_a - u_b)) <= 1e-10
    # both give the infinite verdict on x2, which no equation or
    # observation reaches
    system = ContinuousDAE(
        F=np.diag([1.0, 0.0]), C=np.diag([-1.0, 0.0]), H=[[1.0, 0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=np.eye(2), Q1=np.eye(2), Q2=[[1.0]])
    for method in ("flattened", "bvp"):
        out = apriori_estimate_continuous(system, bounds, [0.0, 1.0], grid, method=method)
        assert not out.feasible
        assert out.worst_case_mse == np.inf
        assert out.solver["path"] == "dense"


def test_paths_agree_on_random_regular_systems():
    rng = rng_for(60)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        F = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        C = rng.standard_normal((n, n))
        H = rng.standard_normal((l, n))
        q1 = rng.standard_normal((n, n))
        q2 = rng.standard_normal((l, l))
        system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
        bounds = ContinuousEllipsoid(
            Q0=np.eye(n),
            Q1=q1 @ q1.T + 0.5 * np.eye(n),
            Q2=q2 @ q2.T + 0.5 * np.eye(l),
        )
        w = rng.standard_normal(n)

        def ell(t, w=w):
            return np.cos(t) * w

        grid = TimeGrid(0.0, 1.0, 40)
        a = apriori_estimate_continuous(system, bounds, ell, grid)
        b = apriori_estimate_continuous(system, bounds, ell, grid, method="bvp")
        assert a.feasible and b.feasible
        assert abs(a.worst_case_mse - b.worst_case_mse) <= 1e-8 * (1.0 + a.worst_case_mse)
        u_a, u_b = a.outputs["u_hat_samples"], b.outputs["u_hat_samples"]
        assert np.max(np.abs(u_a - u_b)) <= 1e-8 * (1.0 + np.max(np.abs(u_a)))


def test_estimate_against_observations():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 200)
    y = np.ones((201, 1))
    out = apriori_estimate_continuous(system, bounds, ell_one, grid, y_samples=y)
    # readout of y = 1 is the integral of u_hat, and the weights integrate
    # to roughly the same mass the exact solution carries
    quadrature = float(np.sum(grid.h * out.outputs["u_hat_samples"][:, 0]))
    assert out.estimate == pytest.approx(quadrature, rel=1e-12)


def test_grid_convergence_first_order():
    system, bounds = scalar_system()
    sigmas = {}
    for steps in (32, 64, 128):
        out = apriori_estimate_continuous(
            system, bounds, ell_one, TimeGrid(0.0, 1.0, steps)
        )
        sigmas[steps] = out.worst_case_mse
    ratio = (sigmas[32] - sigmas[64]) / (sigmas[64] - sigmas[128])
    assert 1.5 <= ratio <= 2.5


# ---------------------------------------------------------------------------
# regularized approximation


def test_tikhonov_converges_on_representable_functional():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 50)
    alphas = [2.0**-k for k in range(1, 11)]
    reg = tikhonov_approximate(system, bounds, ell_one, grid, alphas)
    exact = apriori_estimate_continuous(system, bounds, ell_one, grid)
    h = grid.h
    u_exact = exact.outputs["u_hat_samples"]
    norms = [
        np.sqrt(h * np.sum((u - u_exact) ** 2)) for u in reg.u_samples_seq
    ]
    u_norm = np.sqrt(h * np.sum(u_exact**2))
    assert norms[-1] <= 1e-3 * u_norm
    # nonincreasing after the first two iterates
    for a, b in zip(norms[2:], norms[3:]):
        assert b <= a * (1.0 + 1e-12)
    assert reg.residual_seq[-1] < 1e-2


def test_tikhonov_flags_nonrepresentable_functional():
    # F = 0, C = 0, H = 0: nothing about the state is determined, and the
    # residual diagnostic must stay at the scale of the functional itself
    system = ContinuousDAE(
        F=[[0.0]], C=[[0.0]], H=[[0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 50)
    alphas = [2.0**-k for k in range(1, 11)]
    reg = tikhonov_approximate(system, bounds, ell_one, grid, alphas)
    assert all(r > 0.9 for r in reg.residual_seq)


def test_banded_and_dense_fallback_agree(monkeypatch):
    # An infinite floor rejects every band factorization, forcing the
    # dense flattened route for both the a priori and the regularized solves
    import descriptor_minimax.linalg as linalg_mod

    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 40)
    alphas = [0.5, 0.05, 0.005]
    banded = apriori_estimate_continuous(system, bounds, ell_one, grid)
    reg_banded = tikhonov_approximate(system, bounds, ell_one, grid, alphas)
    monkeypatch.setattr(linalg_mod, "RCOND_FLOOR", np.inf)
    dense = apriori_estimate_continuous(system, bounds, ell_one, grid)
    reg_dense = tikhonov_approximate(system, bounds, ell_one, grid, alphas)
    assert banded.solver["path"] == "banded" and dense.solver["path"] == "dense"
    assert banded.worst_case_mse == pytest.approx(dense.worst_case_mse, rel=1e-10)
    assert banded.outputs["u_hat_samples"] == pytest.approx(
        dense.outputs["u_hat_samples"], abs=1e-10
    )
    for u_b, u_d in zip(reg_banded.u_samples_seq, reg_dense.u_samples_seq):
        assert u_b == pytest.approx(u_d, abs=1e-10)
    assert reg_banded.residual_seq == pytest.approx(reg_dense.residual_seq, abs=1e-10)


def test_tikhonov_breakdown_names_its_alpha():
    # a penalty below rounding leaves the witness singular: the dense
    # fallback's residual check raises, as for every other saddle solve
    system = ContinuousDAE(F=[[0.0]], C=[[0.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    with pytest.raises(NumericalBreakdown, match=r"^regularized solve at alpha=1e-300: saddle"):
        tikhonov_approximate(system, bounds, ell_one, TimeGrid(0.0, 1.0, 16), [1e-300])


def test_tikhonov_validates_alphas(monkeypatch):
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 10)

    def no_factorization(*args, **kwargs):
        raise AssertionError("alphas reached the solver")

    # every bad schedule is refused by name before anything is assembled
    monkeypatch.setattr(continuous, "discretize", no_factorization)
    monkeypatch.setattr(continuous, "apriori_horizon_estimate", no_factorization)
    bad = ([], [0.5, 0.5], [-1.0], [np.nan], [np.inf, 1.0], [[0.5], [0.25]], ["x"], [5e-324])
    for alphas in bad:
        with pytest.raises(InvalidInput, match="^alphas "):
            tikhonov_approximate(system, bounds, ell_one, grid, alphas)


def _shifted_saddle_oracle(system, bounds, ell, grid, alphas):
    """Readouts and defects of the regularized solves, from the dense
    flattened saddle matrix with alpha*h added to the diagonal of its
    H'Q2H block, solved by minimum-norm least squares; the oracle for
    :func:`tikhonov_approximate`."""
    h, M, n = grid.h, grid.steps, system.state_dim
    dae, dbounds = discretize(system, bounds, grid)
    saddle = _saddle_matrix(flatten(dae), flatten_bounds(dae, dbounds))
    dim = (M + 1) * n
    rows = saddle.shape[0] - dim
    ell_flat = h * _sampled_functional(system, ell, grid).reshape(-1)
    rhs = np.concatenate([np.zeros(rows), ell_flat])
    Q2 = np.stack([np.asarray(bounds.Q2(t), float) for t in grid.nodes()])
    H = np.stack([np.asarray(system.H(t), float) for t in grid.nodes()])
    readouts, defects = [], []
    for alpha in alphas:
        A = saddle.copy()
        A[rows + np.arange(dim), np.arange(dim)] += alpha * h
        p = solve_least_squares(A, rhs).solution[:dim].reshape(M + 1, n)
        readouts.append(np.einsum("kij,kj->ki", Q2, np.einsum("kij,kj->ki", H, p)))
        defects.append(np.linalg.norm(alpha * h * p) / np.sqrt(h))
    return readouts, np.array(defects)


def _random_continuous(rng, i):
    """System i of a mixed ensemble: F singular for odd i; constant,
    table or polynomial coefficients by i mod 3."""
    n, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    F = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    if i % 2:
        F[:, -1] = 0.0
    q1, q2 = rng.standard_normal((n, n)), rng.standard_normal((l, l))
    Q1, Q2 = q1 @ q1.T + 0.5 * np.eye(n), q2 @ q2.T + 0.5 * np.eye(l)
    C, H = rng.standard_normal((n, n)), rng.standard_normal((l, n))
    if i % 3 == 1:
        C = TableFunction([0.0, 0.3, 0.7], rng.standard_normal((3, n, n)))
        H = TableFunction([0.0, 0.5], rng.standard_normal((2, l, n)))
    elif i % 3 == 2:
        C = PolynomialFunction([C, 0.5 * rng.standard_normal((n, n))])
        H = PolynomialFunction([H, 0.5 * rng.standard_normal((l, n))])
        Q2 = PolynomialFunction([Q2, 0.2 * np.eye(l)])
    system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
    w = rng.standard_normal(n)
    return system, ContinuousEllipsoid(Q0=np.eye(n), Q1=Q1, Q2=Q2), lambda t: np.cos(t) * w


def test_tikhonov_matches_the_shifted_saddle_oracle(monkeypatch):
    # Each alpha is the a priori estimate of the chain observed once more
    # through the whole state with weight alpha*h: the same readouts and
    # defects as the shifted dense saddle system, on the banded path and
    # with every band factorization refused
    import descriptor_minimax.linalg as linalg_mod

    rng = rng_for(77)
    alphas = [1e-1, 1e-3, 1e-5]
    for i in range(20):
        system, bounds, ell = _random_continuous(rng, i)
        grid = TimeGrid(0.0, 1.0, 128 if i % 4 == 3 else 16)
        readouts, defects = _shifted_saddle_oracle(system, bounds, ell, grid, alphas)
        for floor in (linalg_mod.RCOND_FLOOR, np.inf):
            with monkeypatch.context() as patch:
                patch.setattr(linalg_mod, "RCOND_FLOOR", floor)
                reg = tikhonov_approximate(system, bounds, ell, grid, alphas)
            for u, want in zip(reg.u_samples_seq, readouts):
                assert u == pytest.approx(want, abs=1e-10 * (1.0 + np.abs(want).max()))
            assert reg.constraint_residual_seq == pytest.approx(
                defects, abs=1e-10 * (1.0 + defects.max())
            )


def test_each_alpha_is_one_apriori_estimate(monkeypatch):
    import inspect
    import sys

    assert "shift" not in inspect.signature(discrete.horizon_saddle).parameters
    calls = {"estimate": 0, "saddle": 0}
    estimate, saddle = continuous.apriori_horizon_estimate, discrete.horizon_saddle

    def spy_estimate(*args, **kwargs):
        calls["estimate"] += 1
        return estimate(*args, **kwargs)

    def spy_saddle(*args, **kwargs):
        assert sys._getframe(1).f_code.co_name == "apriori_horizon_estimate"
        calls["saddle"] += 1
        return saddle(*args, **kwargs)

    monkeypatch.setattr(continuous, "apriori_horizon_estimate", spy_estimate)
    monkeypatch.setattr(discrete, "horizon_saddle", spy_saddle)
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 32)
    tikhonov_approximate(system, bounds, ell_one, grid, [0.5, 0.05, 0.005, 0.0005])
    assert calls == {"estimate": 4, "saddle": 4}
    apriori_estimate_continuous(system, bounds, ell_one, grid)
    assert calls == {"estimate": 5, "saddle": 5}


# ---------------------------------------------------------------------------
# endpoint gain filter


def test_riccati_scalar_fixed_point():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 1000)
    y = np.zeros((1001, 1))
    out = riccati_filter(system, bounds, [1.0], y, grid)
    assert np.max(np.abs(out.K_nodes - 1.0)) <= 1e-12
    assert out.worst_case_mse == pytest.approx(1.0, abs=1e-12)
    assert out.estimate == pytest.approx(0.0, abs=1e-12)


def test_riccati_tanh_closed_form():
    # Q0 = 4 moves the start off the fixed point; the flow follows
    # K(t) = tanh(t + atanh(1/4))
    system, _ = scalar_system()
    bounds = ContinuousEllipsoid(Q0=[[4.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 1000)
    y = np.zeros((1001, 1))
    out = riccati_filter(system, bounds, [1.0], y, grid)
    exact = np.tanh(1.0 + np.arctanh(0.25))
    assert out.outputs["K_final"][0, 0] == pytest.approx(exact, abs=1e-6)
    nodes = grid.nodes()
    exact_path = np.tanh(nodes + np.arctanh(0.25))
    assert np.max(np.abs(out.K_nodes[:, 0, 0] - exact_path)) <= 1e-3


def test_riccati_zero_functional_zero_radius():
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 100)
    out = riccati_filter(system, bounds, [0.0], np.zeros((101, 1)), grid)
    assert out.worst_case_mse == pytest.approx(0.0, abs=1e-15)
    assert out.estimate == pytest.approx(0.0, abs=1e-15)


def test_riccati_nonrepresentable_endpoint():
    system = ContinuousDAE(
        F=[[0.0]], C=[[-1.0]], H=[[1.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 10)
    out = riccati_filter(system, bounds, [1.0], np.zeros((11, 1)), grid)
    assert out.feasible is False and out.worst_case_mse == np.inf
    assert (out.estimate, out.outputs, out.K_nodes) == (None, {}, None)
    assert out.solver == {"max_gain_norm": None, "gain_norm_cap": continuous.RICCATI_NORM_CAP}
    # the weights are checked first: a bad Q1 raises whatever ell_0 is
    bad = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[-1.0]], Q2=[[1.0]])
    with pytest.raises(InvalidBounds, match=r"Q1\(t\) at t=0 is not positive definite"):
        riccati_filter(system, bad, [1.0], np.zeros((11, 1)), grid)


def test_riccati_rejects_rectangular_f():
    system = ContinuousDAE(
        F=[[1.0, 0.0]], C=[[0.0, 0.0]], H=[[1.0, 0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    with pytest.raises(InvalidInput):
        riccati_filter(
            system, bounds, [1.0, 0.0], np.zeros((11, 1)), TimeGrid(0.0, 1.0, 10)
        )


def test_riccati_blowup_detected():
    # strong antistable drift with no observations: the gain grows like
    # e^{100 t} and must trip the norm cap rather than return garbage,
    # at the step where the per-step oracle trips it
    system = ContinuousDAE(
        F=[[1.0]], C=[[50.0]], H=[[0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 1000)
    y = np.zeros((1001, 1))
    with pytest.raises(RiccatiBlowup) as oracle:
        _reference_riccati(system, bounds, [1.0], y, grid)
    where = re.search(r"at t=\S+ ", str(oracle.value)).group(0)
    assert where == "at t=0.263 "
    with pytest.raises(RiccatiBlowup, match=re.escape(where)):
        riccati_filter(system, bounds, [1.0], y, grid)


def test_riccati_exactly_singular_step_is_rank_deficient():
    # F = 1, C = 2, H = 0 and h = 1/4 make the first step's operator
    # 1 - 2 h A exactly 0. solve_sylvester perturbs such a step silently,
    # so the per-step oracle runs on and trips the gain cap instead; the
    # linear solve names the singular step
    system = ContinuousDAE(F=[[1.0]], C=[[2.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 4)
    y = np.zeros((5, 1))
    with pytest.raises(RiccatiBlowup, match=r"gain norm 1\.126e\+16 at t=0\.25 "):
        _reference_riccati(system, bounds, [1.0], y, grid)
    with pytest.raises(RankDeficient, match=r"^implicit Riccati step matrix at t=0\.25 is singular$"):
        riccati_filter(system, bounds, [1.0], y, grid)


def test_riccati_consistent_with_discretized_filter():
    # F = I: the discretized information filter and the continuous gain
    # integration approach the same endpoint radius at first order in h
    system, _ = scalar_system()
    bounds = ContinuousEllipsoid(Q0=[[4.0]], Q1=[[1.0]], Q2=[[1.0]])
    diffs = []
    for steps in (16, 32, 64):
        grid = TimeGrid(0.0, 1.0, steps)
        y = np.zeros((steps + 1, 1))
        ric = riccati_filter(system, bounds, [1.0], y, grid)
        dae, dbounds = discretize(system, bounds, grid)
        run = filter_run(dae, dbounds, list(y), np.ones(1))
        filt_sq = float(run.outputs["P_final"][0, 0])
        diff = abs(filt_sq - ric.worst_case_mse)
        assert diff <= 5.0 * grid.h
        diffs.append(diff)
    assert diffs[0] > diffs[1] > diffs[2]


@pytest.mark.parametrize("steps", [4096, 10_000])
def test_fine_grid_filter_matches_the_one_shot(steps):
    # the unit scalar problem's chain is too ill-conditioned for the
    # information sweep at these grids; the QR steps answer as the
    # one-shot solves do
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, steps)
    y = 0.3 * np.sin(3.0 * grid.nodes()).reshape(-1, 1)
    dae, dbounds = discretize(system, bounds, grid)
    run = filter_run(dae, dbounds, y, np.ones(1))
    assert run.solver["path"] == "recursive"
    ell_seq = np.zeros((steps + 1, 1))
    ell_seq[-1] = 1.0
    center = variational_estimate(dae, dbounds, ell_seq, y).estimate
    squared = discrete.apriori_horizon_estimate(dae, dbounds, ell_seq).worst_case_mse
    assert run.estimate == pytest.approx(center, abs=1e-10)
    assert run.radius**2 == pytest.approx(squared, abs=1e-10)


def test_riccati_estimate_reads_data():
    # nonzero data: the endpoint estimate must match the variational
    # readout of the discretized problem to first order
    system, bounds = scalar_system()
    steps = 400
    grid = TimeGrid(0.0, 1.0, steps)
    nodes = grid.nodes()
    y = np.sin(2.0 * nodes).reshape(-1, 1)
    ric = riccati_filter(system, bounds, [1.0], y, grid)
    dae, dbounds = discretize(system, bounds, grid)
    n = 1
    ell_seq = [np.zeros(n) for _ in range(steps)] + [np.ones(n)]
    var = variational_estimate(dae, dbounds, ell_seq, list(y))
    assert ric.estimate == pytest.approx(
        var.estimate, abs=20.0 * grid.h
    )


# ---------------------------------------------------------------------------
# node sampling hoisted out of the Riccati loop


def test_node_sampling_matches_pointwise_evaluation():
    times = np.linspace(-0.3, 2.0, 257)
    rng = rng_for(13)
    functions = [
        ConstantFunction(rng.standard_normal((2, 3))),
        TableFunction([0.0, 0.25, 0.6, 1.5], rng.standard_normal((4, 2, 2))),
        PolynomialFunction(rng.standard_normal((4, 3, 2))),
        PolynomialFunction(rng.standard_normal((3, 2))),  # vector-valued
    ]
    for fn in functions:
        nodes = fn.at(times)
        pointwise = np.stack([fn(t) for t in times])
        assert nodes.shape == pointwise.shape
        assert nodes == pytest.approx(pointwise, rel=1e-12, abs=1e-12)
    # the integral functional ell(t): whole-stack sampling for the tagged
    # kinds, one call per node for a plain callable, values unchanged
    system = ContinuousDAE(F=np.eye(3), C=np.zeros((3, 3)), H=np.eye(3), t_start=0.0, t_end=1.0)
    grid = TimeGrid(0.0, 1.0, 64)
    for ell in (
        rng.standard_normal(3),
        PolynomialFunction(rng.standard_normal((3, 3))),
        TableFunction([0.0, 0.5], rng.standard_normal((2, 3))),
        lambda t: np.array([1.0, t, t * t]),
    ):
        fn = ell if callable(ell) else ConstantFunction(ell)
        pointwise = np.stack([fn(t) for t in grid.nodes()])
        assert np.array_equal(_sampled_functional(system, ell, grid), pointwise)
    with pytest.raises(InvalidInput, match=r"ell\(t\) has length 2, expected 3"):
        _sampled_functional(system, [1.0, 2.0], grid)
    poly = functions[2]
    direct = sum(c * 0.7**j for j, c in enumerate(poly.coefficients))
    assert poly(0.7) == pytest.approx(direct, rel=1e-12)


def _reference_riccati(system, bounds, ell0, y, grid):
    """The Riccati flow one step at a time: every coefficient evaluated
    and checked at its node inside the loop, one solve_sylvester per
    implicit step, then the gain cap and the state solve of that step,
    each raising its verdict; the oracle for :func:`riccati_filter`."""
    F = system.F
    n = F.shape[1]
    Fp = pseudo_inverse(F)
    proj = F @ Fp
    S = symmetrize(proj @ spd_inverse(bounds.Q0) @ proj)
    x_hat = np.zeros(n)
    h = grid.h
    ts = grid.nodes()
    gains = [Fp @ S]
    for j in range(grid.steps):
        t = ts[j + 1]
        C, H = np.asarray(system.C(t), float), np.asarray(system.H(t), float)
        Q2 = require_spd(bounds.Q2(t), "Q2(t)")
        W = H.T @ Q2 @ H
        K = Fp @ S
        A = (C - 0.5 * (K.T @ W)) @ Fp
        rhs = S + h * spd_inverse(require_spd(bounds.Q1(t), "Q1(t)"))
        S = symmetrize(scipy.linalg.solve_sylvester(np.eye(n) - h * A, -h * A.T, rhs))
        K = Fp @ S
        norm = float(np.linalg.norm(K, 2))
        if not np.isfinite(norm) or norm > continuous.RICCATI_NORM_CAP:
            raise RiccatiBlowup(
                f"gain norm {norm:.3e} at t={t} exceeds {continuous.RICCATI_NORM_CAP}"
            )
        gains.append(K)
        rhs_x = F @ x_hat + h * (K.T @ (H.T @ (Q2 @ y[j + 1])))
        try:
            x_hat = np.linalg.solve(F - h * C + h * (K.T @ W), rhs_x)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"implicit state step matrix at t={t} is singular") from exc
    v = Fp.T @ np.asarray(ell0, float)
    return np.array(gains), float(v @ S @ v), float((F @ x_hat) @ v)


@pytest.mark.parametrize("singular", [False, True])
def test_riccati_with_table_and_polynomial_coefficients_matches_reference(singular):
    rng = rng_for(21)
    F = np.diag([1.0, 0.0]) if singular else np.eye(2)
    system = ContinuousDAE(
        F=F,
        C=PolynomialFunction([[[-0.5, 0.2], [0.1, -1.2]], 0.3 * np.eye(2)]),
        H=TableFunction([0.0, 0.4], [[[1.0, 0.5]], [[0.8, 1.0]]]),
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(
        Q0=np.eye(2),
        Q1=TableFunction([0.0, 0.3, 0.8], [np.eye(2), np.diag([2.0, 1.0]), np.diag([1.0, 3.0])]),
        Q2=PolynomialFunction([[[1.0]], [[0.5]], [[0.25]]]),
    )
    grid = TimeGrid(0.0, 1.0, 300)
    y = 0.1 * rng.standard_normal((301, 1))
    ell0 = [1.0, 0.0]
    gains, sigma, estimate = _reference_riccati(system, bounds, ell0, y, grid)
    out = riccati_filter(system, bounds, ell0, y, grid)
    assert out.K_nodes == pytest.approx(gains, rel=1e-12, abs=1e-12 * np.abs(gains).max())
    assert out.worst_case_mse == pytest.approx(sigma, rel=1e-12)
    assert out.estimate == pytest.approx(estimate, rel=1e-12, abs=1e-14)


def test_riccati_checks_each_used_table_value():
    system, _ = scalar_system()
    grid = TimeGrid(0.0, 1.0, 50)
    y = np.zeros((51, 1))
    bad = ContinuousEllipsoid(
        Q0=[[1.0]], Q1=[[1.0]], Q2=TableFunction([0.0, 0.5], [[[1.0]], [[-1.0]]])
    )
    with pytest.raises(InvalidBounds, match=r"Q2\(t\) at t=0\.5 is not positive definite"):
        riccati_filter(system, bad, [1.0], y, grid)
    # a value that no node selects is never used, so never checked
    unused = ContinuousEllipsoid(
        Q0=[[1.0]], Q1=[[1.0]], Q2=TableFunction([0.0, 2.0], [[[1.0]], [[-1.0]]])
    )
    riccati_filter(system, unused, [1.0], y, grid)
    # every node's weights are checked before the first step, so a step
    # that would fail before the first bad weight value never runs
    blowup = ContinuousDAE(F=[[1.0]], C=[[50.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    late = ContinuousEllipsoid(
        Q0=[[1.0]], Q1=[[1.0]], Q2=TableFunction([0.0, 0.9], [[[1.0]], [[-1.0]]])
    )
    with pytest.raises(InvalidBounds, match=r"Q2\(t\) at t=0\.9 is not positive definite"):
        riccati_filter(blowup, late, [1.0], np.zeros((1001, 1)), TimeGrid(0.0, 1.0, 1000))


def _random_coefficient(rng, kind, make):
    """A constant, table or polynomial coefficient on [0, 1] whose every
    value ``make(rng, scale)`` draws."""
    if kind == "constant":
        return make(rng, 1.0)
    if kind == "table":
        times = np.sort(rng.uniform(0.05, 0.95, 2))
        return TableFunction([0.0, *times], [make(rng, 1.0) for _ in range(3)])
    return PolynomialFunction([make(rng, 1.0), make(rng, 0.5), make(rng, 0.25)])


def _random_riccati_problem(seed):
    rng = rng_for(seed)
    n, l = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    kinds = ("constant", "table", "polynomial")
    diag = rng.uniform(0.5, 2.0, n)
    if seed % 2 and n > 1:
        diag[rng.permutation(n)[: int(rng.integers(1, n))]] = 0.0  # singular F
    drift = lambda r, s: s * (r.standard_normal((n, n)) - 1.5 * np.eye(n))
    readout = lambda r, s: s * r.standard_normal((l, n))

    def weight(size):
        def make(r, s):
            a = r.standard_normal((size, size))
            return s * (a @ a.T + 0.5 * np.eye(size))
        return make

    system = ContinuousDAE(
        F=np.diag(diag),
        C=_random_coefficient(rng, kinds[seed % 3], drift),
        H=_random_coefficient(rng, kinds[(seed + 1) % 3], readout),
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(
        Q0=weight(n)(rng, 1.0),
        Q1=_random_coefficient(rng, kinds[(seed + 2) % 3], weight(n)),
        Q2=_random_coefficient(rng, kinds[seed % 3], weight(l)),
    )
    grid = TimeGrid(0.0, 1.0, int(rng.integers(20, 120)))
    ell0 = np.diag(diag) @ rng.standard_normal(n)  # in range(F')
    y = rng.standard_normal((grid.steps + 1, l))
    return system, bounds, ell0, y, grid


@pytest.mark.parametrize("seed", range(24))
def test_riccati_matches_the_per_step_oracle_on_random_problems(seed):
    # n in {1, 2, 3}, regular and singular diagonal F, and constant,
    # table and polynomial coefficients and weights
    system, bounds, ell0, y, grid = _random_riccati_problem(seed)
    gains, sigma, estimate = _reference_riccati(system, bounds, ell0, y, grid)
    out = riccati_filter(system, bounds, ell0, y, grid)
    assert out.K_nodes == pytest.approx(gains, rel=1e-12, abs=1e-12 * np.abs(gains).max())
    assert out.worst_case_mse == pytest.approx(sigma, rel=1e-12)
    assert out.estimate == pytest.approx(estimate, rel=1e-12)
    assert out.solver["max_gain_norm"] == pytest.approx(
        np.linalg.norm(gains[1:], 2, axis=(1, 2)).max(), rel=1e-12
    )
    assert out.solver["gain_norm_cap"] == continuous.RICCATI_NORM_CAP


VERDICT_CASES = {
    # the cap trips after interior steps, with regular and singular F
    # (the scalar case is test_riccati_blowup_detected)
    "regular 2-D": (np.eye(2), [[30.0, 1.0], [0.0, -2.0]], [[0.0, 1.0]], 500),
    "singular 2-D": (np.diag([1.0, 0.0]), [[20.0, 1.0], [0.5, -2.0]], [[0.0, 1.0]], 500),
    "late drift": ([[1.0]], TableFunction([0.0, 0.5], [[[-1.0]], [[60.0]]]), [[0.0]], 400),
    # h = 1/4: state step 0 (C = 4) and Sylvester step 1 (C = 2) are
    # both singular; the state step comes first
    "state first": ([[1.0]], TableFunction([0.0, 0.25, 0.5], [[[0.0]], [[4.0]], [[2.0]]]), [[0.0]], 4),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_riccati_verdicts_match_the_per_step_oracle(case):
    F, C, H, steps = VERDICT_CASES[case]
    n, l = np.shape(F)[0], np.shape(H)[0]
    system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=np.eye(n), Q1=np.eye(n), Q2=np.eye(l))
    args = (system, bounds, np.eye(n)[0], np.zeros((steps + 1, l)), TimeGrid(0.0, 1.0, steps))
    with pytest.raises((RiccatiBlowup, RankDeficient)) as oracle:
        _reference_riccati(*args)
    with pytest.raises((RiccatiBlowup, RankDeficient)) as fast:
        riccati_filter(*args)
    assert type(fast.value) is type(oracle.value)
    assert str(fast.value) == str(oracle.value)
    assert re.search(r"at t=0\.[1-9]", str(fast.value))  # after an interior step
