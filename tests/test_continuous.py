"""Continuous-time machinery: implicit-Euler reduction, the two a priori
solution paths, the regularized approximation, and the extrapolated
endpoint filter.

The workhorse example is the scalar system x' = f, y = x + g on [0, 1]
with unit weights and density functional ell(t) = 1. Its optimality
boundary value problem solves in closed form (p(t) combines 1 and
e^{+-t}), giving sigma = 1 - (e - 1)/(2 e^2) - (1 - 1/e)/2.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
    TableFunction,
    TimeGrid,
    apriori_estimate_continuous,
    discretize,
    filter_run,
    riccati_filter,
    tikhonov_approximate,
    variational_estimate,
)

from descriptor_minimax import continuous, discrete, filtering
from descriptor_minimax.continuous import _sampled_functional
from descriptor_minimax.discrete import flatten, flatten_bounds
from descriptor_minimax.linalg import DEFAULT_TOL, RCOND_FLOOR

from conftest import band_reference, data_energy, rng_for, saddle_matrix

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


STEPS_MESSAGE = "^steps must be a positive integer, got "


@pytest.mark.parametrize("steps", [math.nan, math.inf], ids=["nan", "inf"])
def test_time_grid_refuses_non_finite_steps(steps):
    # int(nan) raised a bare ValueError and int(inf) an OverflowError
    with pytest.raises(InvalidGrid, match=STEPS_MESSAGE + re.escape(repr(steps))):
        TimeGrid(0.0, 1.0, steps)


def test_time_grid_refuses_boolean_steps():
    # True == 1 once passed as one step; the config refuses booleans too
    with pytest.raises(InvalidGrid, match=STEPS_MESSAGE + "True$"):
        TimeGrid(0.0, 1.0, True)
    assert TimeGrid(0.0, 1.0, np.int64(3)).steps == 3
    assert TimeGrid(0.0, 1.0, 4.0).steps == 4


def test_time_grid_refuses_steps_numpy_cannot_index():
    # 10**25 steps passed, and nodes() then raised a bare ValueError
    # (Maximum allowed size exceeded) from np.linspace
    limit = np.iinfo(np.intp).max
    for steps in (10**25, 1e25, limit):
        with pytest.raises(InvalidGrid, match=rf"^steps must be below {limit}, got "):
            TimeGrid(0.0, 1.0, steps)


def test_table_function_refuses_non_finite_breakpoint():
    # a NaN breakpoint passed the increasing test, and at(0.7) then
    # silently returned the first value
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="^table breakpoints must be finite$"):
            TableFunction([0.0, bad], [np.zeros((1, 1)), np.ones((1, 1))])


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
    dense = apriori_estimate_continuous(
        system, bounds, ell_one, grid, y_samples=y, method="bvp"
    )
    assert dense.estimate == pytest.approx(out.estimate, rel=1e-12)


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
    # The three routes of the a priori and the regularized solves agree: an
    # infinite information floor turns the information route down, and an
    # infinite band floor then rejects every band factorization, forcing
    # the dense flattened route
    import descriptor_minimax.linalg as linalg_mod

    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 40)
    alphas = [0.5, 0.05, 0.005]
    routes = []
    for refused in ((), (filtering, "INFORMATION_RCOND_FLOOR"), (linalg_mod, "RCOND_FLOOR")):
        if refused:  # the floors stay infinite from here on
            monkeypatch.setattr(*refused, np.inf)
        out = apriori_estimate_continuous(system, bounds, ell_one, grid)
        routes.append((out, tikhonov_approximate(system, bounds, ell_one, grid, alphas)))
    assert [out.solver["path"] for out, _ in routes] == ["information", "banded", "dense"]
    (out, reg), *others = routes
    for other, reg_other in others:
        assert out.worst_case_mse == pytest.approx(other.worst_case_mse, rel=1e-10)
        assert out.outputs["u_hat_samples"] == pytest.approx(
            other.outputs["u_hat_samples"], abs=1e-10
        )
        for u_b, u_d in zip(reg.u_samples_seq, reg_other.u_samples_seq):
            assert u_b == pytest.approx(u_d, abs=1e-10)
        assert reg.residual_seq == pytest.approx(reg_other.residual_seq, abs=1e-10)


def test_bvp_is_the_refused_band_route(monkeypatch):
    # method="bvp" is the discretized chain's dense route: with the
    # information route turned down and every band factor refused, the
    # default method takes it too, bit for bit. Only
    # the solver record differs: the default carries the refused factor's
    # condition estimate, while bvp attempts no band factor.
    import descriptor_minimax.linalg as linalg_mod

    rng = rng_for(61)
    y = rng.standard_normal((33, 2))
    system = ContinuousDAE(
        F=np.diag([1.0, 0.0]),
        C=[[-1.0, 0.5], [0.3, -1.0]],
        H=TableFunction([0.0, 0.5], rng.standard_normal((2, 2, 2))),
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(Q0=np.eye(2), Q1=np.eye(2), Q2=2.0 * np.eye(2))
    grid = TimeGrid(0.0, 1.0, 32)

    def ell(t):
        return np.array([np.cos(t), 1.0 - t])

    bvp = apriori_estimate_continuous(system, bounds, ell, grid, y, method="bvp")
    monkeypatch.setattr(filtering, "INFORMATION_RCOND_FLOOR", np.inf)
    monkeypatch.setattr(linalg_mod, "RCOND_FLOOR", np.inf)
    refused = apriori_estimate_continuous(system, bounds, ell, grid, y)
    assert bvp.feasible and refused.feasible
    assert bvp.worst_case_mse == refused.worst_case_mse
    assert bvp.radius == refused.radius
    assert bvp.estimate == refused.estimate
    assert np.array_equal(bvp.p, refused.p)
    assert bvp.outputs.keys() == refused.outputs.keys() == {"u_hat_samples"}
    assert np.array_equal(bvp.outputs["u_hat_samples"], refused.outputs["u_hat_samples"])
    assert refused.solver["path"] == "dense" and refused.solver["rcond_floor"] == np.inf
    assert bvp.solver == {"path": "dense", "rcond_estimate": None, "rcond_floor": RCOND_FLOOR}


def test_bvp_keeps_its_method_check():
    system, bounds = scalar_system()
    with pytest.raises(InvalidInput, match=r"^unknown method 'band'$"):
        apriori_estimate_continuous(
            system, bounds, ell_one, TimeGrid(0.0, 1.0, 4), method="band"
        )


def test_tikhonov_below_rounding_is_answered():
    # F = C = H = 0: the penalty is the only observation, so p = ell/(alpha h)
    # at every node and the defect alpha h p = h ell does not decay with
    # alpha, the non-representable signature, sqrt(h (M + 1)) for ell = 1.
    # A penalty of 1e-300 is far below rounding next to the unit weights;
    # the reduced solve answers it exactly instead of refusing it
    system = ContinuousDAE(F=[[0.0]], C=[[0.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    out = tikhonov_approximate(system, bounds, ell_one, TimeGrid(0.0, 1.0, 4), [1e-3, 1e-300])
    assert out.constraint_residual_seq == pytest.approx([1.118033988749895] * 2, rel=1e-12)
    assert out.residual_seq == pytest.approx([1.118033988749895], rel=1e-12)


def test_tikhonov_breakdown_names_its_alpha(monkeypatch):
    # a breakdown of one regularized solve is re-raised with its alpha
    def breaks(*args, **kwargs):
        raise NumericalBreakdown("worst-case mean-squared error came out negative")

    system, bounds = scalar_system()
    monkeypatch.setattr(continuous, "apriori_horizon_estimate", breaks)
    with pytest.raises(
        NumericalBreakdown, match=r"^regularized solve at alpha=0.25: worst-case mean-squared"
    ):
        tikhonov_approximate(system, bounds, ell_one, TimeGrid(0.0, 1.0, 4), [0.25])


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
    saddle = saddle_matrix(flatten(dae), flatten_bounds(dae, dbounds))
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
        p = np.linalg.lstsq(A, rhs, rcond=DEFAULT_TOL)[0][:dim].reshape(M + 1, n)
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
    # defects as the shifted dense saddle system, on the information route
    # and with it turned down and every band factorization refused
    import descriptor_minimax.linalg as linalg_mod

    rng = rng_for(77)
    alphas = [1e-1, 1e-3, 1e-5]
    for i in range(20):
        system, bounds, ell = _random_continuous(rng, i)
        grid = TimeGrid(0.0, 1.0, 128 if i % 4 == 3 else 16)
        readouts, defects = _shifted_saddle_oracle(system, bounds, ell, grid, alphas)
        for floor in (linalg_mod.RCOND_FLOOR, np.inf):
            with monkeypatch.context() as patch:
                if floor == np.inf:
                    patch.setattr(filtering, "INFORMATION_RCOND_FLOOR", floor)
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
    calls = {"estimate": 0, "solve": 0}
    estimate, solved = continuous.apriori_horizon_estimate, discrete._solved

    def spy_estimate(*args, **kwargs):
        calls["estimate"] += 1
        return estimate(*args, **kwargs)

    def spy_solved(*args, **kwargs):
        assert sys._getframe(1).f_code.co_name == "apriori_horizon_estimate"
        calls["solve"] += 1
        out = solved(*args, **kwargs)
        assert out[1]["path"] == "information"
        return out

    monkeypatch.setattr(continuous, "apriori_horizon_estimate", spy_estimate)
    monkeypatch.setattr(discrete, "_solved", spy_solved)
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 32)
    tikhonov_approximate(system, bounds, ell_one, grid, [0.5, 0.05, 0.005, 0.0005])
    assert calls == {"estimate": 4, "solve": 4}
    apriori_estimate_continuous(system, bounds, ell_one, grid)
    assert calls == {"estimate": 5, "solve": 5}


# ---------------------------------------------------------------------------
# endpoint gain filter


def test_riccati_scalar_fixed_point():
    # the gain equation sits on K = 1; the extrapolated chains are second
    # order, so they stay within h^2 = 1e-6 of it at every node
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, 1000)
    y = np.zeros((1001, 1))
    out = riccati_filter(system, bounds, [1.0], y, grid)
    assert np.max(np.abs(out.K_nodes - 1.0)) <= 1e-6
    assert out.worst_case_mse == pytest.approx(1.0, abs=1e-6)
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
    assert out.solver is None  # nothing was run
    # the weights are checked first: a bad Q1 raises whatever ell_0 is
    bad = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[-1.0]], Q2=[[1.0]])
    with pytest.raises(InvalidBounds, match=r"Q1\(t\) at t=0 is not positive definite"):
        riccati_filter(system, bad, [1.0], np.zeros((11, 1)), grid)


def test_riccati_on_a_rank_zero_f_answers_zero():
    # F = 0: range(F') = {0} holds ell_0 = 0, (F'Q0F)^+ is the empty
    # inverse lifted to 0, and the readout is 0 with radius 0
    system = ContinuousDAE(F=[[0.0]], C=[[-1.0]], H=[[1.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    out = riccati_filter(system, bounds, [0.0], np.zeros((5, 1)), TimeGrid(0.0, 1.0, 4))
    assert out.feasible and (out.estimate, out.radius) == (0.0, 0.0)


def test_riccati_rejects_rectangular_f():
    system = ContinuousDAE(
        F=[[1.0, 0.0]], C=[[0.0, 0.0]], H=[[1.0, 0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    with pytest.raises(InvalidInput):
        riccati_filter(
            system, bounds, [1.0, 0.0], np.zeros((11, 1)), TimeGrid(0.0, 1.0, 10)
        )


@pytest.mark.parametrize("steps, lost_step", [(500, 191), (1000, 383)])
def test_riccati_blowup_detected(steps, lost_step):
    # strong antistable drift with no observations: the gain grows like
    # e^{100 t}, and past the lost step the chains' QR steps would answer
    # finite radii 1e9 times too small. The grid chain's lost direction
    # gives every ell_0 an infinite radius, and its record names the step
    system = ContinuousDAE(
        F=[[1.0]], C=[[50.0]], H=[[0.0]], t_start=0.0, t_end=1.0
    )
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, steps)
    out = riccati_filter(system, bounds, [1.0], np.zeros((steps + 1, 1)), grid)
    assert not out.feasible and out.radius == out.worst_case_mse == math.inf
    assert (out.estimate, out.outputs, out.K_nodes) == (None, {}, None)
    assert out.solver["chain_steps"] == steps and out.solver["path"] == "recursive"
    assert out.solver["lost_step"] == lost_step
    assert 0.0 < out.solver["lost_figure"] <= out.solver["lost_tol"] == DEFAULT_TOL


def test_riccati_exactly_singular_step_is_rank_deficient():
    # F = 1, C = 2, H = 0 and h = 1/4: the chain of every other node has
    # the step matrix F - 2hC = 0 at its step 1, so nothing pins x there
    system = ContinuousDAE(F=[[1.0]], C=[[2.0]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    grid = TimeGrid(0.0, 1.0, 4)
    y = np.zeros((5, 1))
    message = r"^2-step chain: information matrix at step 1 is singular"
    with pytest.raises(RankDeficient, match=message):
        riccati_filter(system, bounds, [1.0], y, grid)


def test_riccati_unbounded_prediction_is_a_breakdown():
    # C = 4 from t = 0.25 and h = 1/4: the grid chain's step matrix F - hC
    # is 0 at its step 1, so x there is unbounded until y absorbs it; the
    # filter answers, and the gain at that node is not finite
    C = TableFunction([0.0, 0.25, 0.5], [[[0.0]], [[4.0]], [[0.0]]])
    system = ContinuousDAE(F=[[1.0]], C=C, H=[[1.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    with pytest.raises(NumericalBreakdown, match=r"^the gain at t=0\.25 is not finite$"):
        riccati_filter(system, bounds, [1.0], np.zeros((5, 1)), TimeGrid(0.0, 1.0, 4))


def test_riccati_negative_extrapolation_is_a_breakdown():
    # C = 1.9, H = 0 and h = 1/4: the chain of every other node nearly
    # loses its step (1 - 2hC = 0.05), so 2 X(h) - X(2h) < 0 while every
    # gain is finite
    system = ContinuousDAE(F=[[1.0]], C=[[1.9]], H=[[0.0]], t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=[[1.0]], Q1=[[1.0]], Q2=[[1.0]])
    message = r"^extrapolated squared radius is negative: 2 x 2\.327259e\+02 \(M=4\) - 2\.402"
    with pytest.raises(NumericalBreakdown, match=message):
        riccati_filter(system, bounds, [1.0], np.zeros((5, 1)), TimeGrid(0.0, 1.0, 4))


def test_riccati_consistent_with_discretized_filter():
    # F = I: the discretized information filter approaches the
    # extrapolated endpoint radius at first order in h
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
def test_fine_grid_filter_matches_the_one_shot(steps, monkeypatch):
    # the unit scalar problem's band reads an rcond below the floor at
    # these grids. At M=4096 the sweep answers with one corrected step of
    # relative size 8e-11; at M=10^4 that step reads 1.1e-8, above
    # CORRECTION_TOL, and the QR steps answer. Both paths answer as the
    # one-shot solves do; an unreachable floor sends the chain to the QR
    # steps
    system, bounds = scalar_system()
    grid = TimeGrid(0.0, 1.0, steps)
    y = 0.3 * np.sin(3.0 * grid.nodes()).reshape(-1, 1)
    dae, dbounds = discretize(system, bounds, grid)
    ell_seq = np.zeros((steps + 1, 1))
    ell_seq[-1] = 1.0
    center = variational_estimate(dae, dbounds, ell_seq, y).estimate
    squared = discrete.apriori_horizon_estimate(dae, dbounds, ell_seq).worst_case_mse
    # the one-shots solve on the sweep's factor too: the band saddle, solved
    # directly, is the reference
    x_ref, p_ref, _ = band_reference(dae, dbounds, ell_seq, y)
    assert center == pytest.approx(x_ref[-1, 0], abs=1e-10)
    assert squared == pytest.approx(p_ref[-1, 0], abs=1e-10)
    path = "information" if steps == 4096 else "recursive"
    for floor, expected in ((filtering.INFORMATION_RCOND_FLOOR, path), (np.inf, "recursive")):
        monkeypatch.setattr(filtering, "INFORMATION_RCOND_FLOOR", floor)
        run = filter_run(dae, dbounds, y, np.ones(1))
        assert run.solver["path"] == expected
        assert run.estimate == pytest.approx(center, abs=1e-10)
        assert run.outputs["P_final"][0, 0] == pytest.approx(squared, abs=1e-10)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-13])
def test_riccati_is_scale_free(scale):
    # weights times s and data divided by sqrt(s) leave radius * sqrt(s) and
    # estimate * sqrt(s) as they were: no decision reads an absolute scale,
    # however large the gains grow
    system, _ = scalar_system()
    bounds = ContinuousEllipsoid(Q0=[[scale]], Q1=[[scale]], Q2=[[scale]])
    grid = TimeGrid(0.0, 1.0, 64)
    y = 0.3 * np.sin(3.0 * grid.nodes()).reshape(-1, 1)
    out = riccati_filter(system, bounds, [1.0], y / math.sqrt(scale), grid)
    assert out.radius * math.sqrt(scale) == pytest.approx(0.999945183737, abs=1e-12)
    assert out.estimate * math.sqrt(scale) == pytest.approx(0.125526555547, abs=1e-12)


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
# node sampling, and the references for the endpoint filter


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


def _kalman_bucy(system, bounds, y_fn, breaks=()):
    """Reference for :func:`riccati_filter` on a diagonal F, independent of
    the chains: the Kalman-Bucy filter of the ODE that is left once the
    algebraic states are eliminated, integrated by ``solve_ivp`` at rtol
    1e-12, piece by piece between the coefficients' ``breaks``.

    With r the indices of F's nonzero diagonal d and a the others, the
    algebraic rows 0 = C_ar x_r + C_aa x_a + f_a give x_a = -C_aa^{-1}
    (C_ar x_r + f_a), so that

        x_r' = A x_r + G f,    y = H_r x_r + D f + g,

    where f has covariance Q1^{-1} and g has Q2^{-1}: the process and the
    observation noise are correlated through f_a. x0g = F x(0) lies in
    range(F), so x_r(0) carries the weight d (Q0)_rr d. A regular F has no
    a, and this is the plain Kalman-Bucy filter. Returns P(t), the (n, n)
    covariance with zeros outside the r block, and the center at t_end.
    """
    d = np.diag(system.F)
    r, a = np.flatnonzero(d), np.flatnonzero(d == 0)
    n, nr = d.size, r.size

    def terms(t):
        C, H = np.asarray(system.C(t), float), np.asarray(system.H(t), float)
        Q1_inv = np.linalg.inv(bounds.Q1(t))
        E = np.linalg.solve(C[np.ix_(a, a)], np.hstack([C[np.ix_(a, r)], np.eye(a.size)]))
        G = np.zeros((nr, n))  # f into d x_r'
        G[:, r] = np.eye(nr)
        G[:, a] = -C[np.ix_(r, a)] @ E[:, nr:]
        D = np.zeros((H.shape[0], n))  # f into y
        D[:, a] = -H[:, a] @ E[:, nr:]
        A = (C[np.ix_(r, r)] - C[np.ix_(r, a)] @ E[:, :nr]) / d[r, None]
        G /= d[r, None]
        H_r = H[:, r] - H[:, a] @ E[:, :nr]
        R = D @ Q1_inv @ D.T + np.linalg.inv(bounds.Q2(t))
        return A, H_r, G @ Q1_inv @ G.T, R, G @ Q1_inv @ D.T

    def rhs(t, z, lo, hi):
        # a piece uses the values left of its right end
        A, H_r, Qw, R, S = terms(min(max(t, lo), np.nextafter(hi, lo)))
        P, x = z[: nr * nr].reshape(nr, nr), z[nr * nr :]
        K = np.linalg.solve(R, (P @ H_r.T + S).T).T
        dP = A @ P + P @ A.T + Qw - K @ R @ K.T
        return np.concatenate([dP.ravel(), A @ x + K @ (y_fn(t) - H_r @ x)])

    Q0 = d[r, None] * bounds.Q0[np.ix_(r, r)] * d[r]
    z = np.concatenate([np.linalg.inv(Q0).ravel(), np.zeros(nr)])
    edges = [system.t_start, *breaks, system.t_end]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(
            rhs, (lo, hi), z, "DOP853", rtol=1e-12, atol=1e-14, dense_output=True, args=(lo, hi)
        )
        pieces.append((hi, sol.sol))
        z = sol.y[:, -1]

    def P(t):
        dense = next(sol for hi, sol in pieces if t <= hi)
        out = np.zeros((n, n))
        out[np.ix_(r, r)] = dense(t)[: nr * nr].reshape(nr, nr)
        return out

    x_end = np.zeros(n)
    x_end[r] = z[nr * nr :]
    return P, x_end


def _assert_matches_kalman_bucy(out, reference, ell0, grid, every=1):
    """The extrapolated chains against the reference: the squared radius
    within 5 h^2 and the gains at every ``every``-th node within 20 h^2,
    relative to 1 plus their size, and the center, which is not
    extrapolated, within 2 h."""
    P, x_end = reference
    h = grid.h
    gains = np.array([P(t) for t in grid.nodes()])
    sigma = float(ell0 @ gains[-1] @ ell0)
    center = float(ell0 @ x_end)
    assert abs(out.worst_case_mse - sigma) <= 5.0 * h * h * (1.0 + sigma)
    gap = np.abs(out.K_nodes - gains)[::every].max()
    assert gap <= 20.0 * h * h * (1.0 + np.abs(gains).max())
    assert abs(out.estimate - center) <= 2.0 * h * (1.0 + abs(center))


@pytest.mark.parametrize("singular", [False, True])
def test_riccati_with_table_and_polynomial_coefficients_matches_reference(singular):
    # every table breakpoint is a node of both chains, so the step in
    # which a chain reads the new value moves its answer by O(h), and the
    # extrapolation cancels that too. An odd node next to a breakpoint
    # interpolates the chains' error across the jump, so there the gain
    # is first order: the gains are compared at the even nodes
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
    y_fn = lambda t: np.array([0.3 * np.sin(2.0 * t) + 0.1])
    y = np.array([y_fn(t) for t in grid.nodes()])
    ell0 = np.array([1.0, 0.0])
    out = riccati_filter(system, bounds, ell0, y, grid)
    reference = _kalman_bucy(system, bounds, y_fn, (0.3, 0.4, 0.8))
    _assert_matches_kalman_bucy(out, reference, ell0, grid, every=2)


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
    """A constant or polynomial coefficient on [0, 1] whose every value
    ``make(rng, scale)`` draws."""
    if kind == "constant":
        return make(rng, 1.0)
    return PolynomialFunction([make(rng, 1.0), make(rng, 0.5), make(rng, 0.25)])


def _spd_weight(size):
    def make(r, s):
        a = r.standard_normal((size, size))
        return s * (a @ a.T + 0.5 * np.eye(size))

    return make


def _random_riccati_problem(seed):
    """n in {1, 2, 3}, regular and singular diagonal F, constant and
    polynomial coefficients and weights, an even grid and smooth data.
    The drift's diagonal shift keeps C_aa(t) invertible on every draw,
    so a singular F stays index 1."""
    rng = rng_for(seed)
    n, l = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    kinds = ("constant", "polynomial")
    diag = rng.uniform(0.5, 2.0, n)
    if seed % 2 and n > 1:
        diag[rng.permutation(n)[: int(rng.integers(1, n))]] = 0.0  # singular F
    drift = lambda r, s: s * (0.5 * r.standard_normal((n, n)) - 1.5 * np.eye(n))
    readout = lambda r, s: s * r.standard_normal((l, n))
    system = ContinuousDAE(
        F=np.diag(diag),
        C=_random_coefficient(rng, kinds[seed % 2], drift),
        H=_random_coefficient(rng, kinds[seed // 2 % 2], readout),
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(
        Q0=_spd_weight(n)(rng, 1.0),
        Q1=_random_coefficient(rng, kinds[seed // 4 % 2], _spd_weight(n)),
        Q2=_random_coefficient(rng, kinds[seed // 2 % 2], _spd_weight(l)),
    )
    grid = TimeGrid(0.0, 1.0, 2 * int(rng.integers(10, 60)))
    ell0 = np.diag(diag) @ rng.standard_normal(n)  # in range(F')
    w = rng.standard_normal((3, l))
    y_fn = lambda t: w[0] + w[1] * np.sin(2.0 * t) + w[2] * t * t
    # data inside the bound on the grid's chain, and so on the coarse one
    energy = data_energy([y_fn(t) for t in grid.nodes()], discretize(system, bounds, grid)[1])
    w *= min(1.0, math.sqrt(0.25 / energy))
    return system, bounds, ell0, y_fn, grid


@pytest.mark.parametrize("seed", range(24))
def test_riccati_matches_the_per_step_oracle_on_random_problems(seed):
    # the oracle is the Kalman-Bucy filter of each draw, with the
    # algebraic states of a singular F eliminated, on the grid's nodes
    system, bounds, ell0, y_fn, grid = _random_riccati_problem(seed)
    y = np.array([y_fn(t) for t in grid.nodes()])
    out = riccati_filter(system, bounds, ell0, y, grid)
    _assert_matches_kalman_bucy(out, _kalman_bucy(system, bounds, y_fn), ell0, grid)


def _index_one_problem(seed):
    """F = diag(I_r, 0) with n in {2, 3}, and constant full coefficients
    and weights; the drift's diagonal shift keeps C_aa invertible."""
    rng = rng_for(seed)
    n = 2 + seed % 2
    r = int(rng.integers(1, n))
    C = 0.5 * rng.standard_normal((n, n)) - 1.5 * np.eye(n)
    system = ContinuousDAE(
        F=np.diag([1.0] * r + [0.0] * (n - r)),
        C=C,
        H=rng.standard_normal((1 + seed % 2, n)),
        t_start=0.0,
        t_end=1.0,
    )
    weight = lambda size: _spd_weight(size)(rng, 1.0)
    bounds = ContinuousEllipsoid(Q0=weight(n), Q1=weight(n), Q2=weight(1 + seed % 2))
    ell0 = np.concatenate([rng.standard_normal(r), np.zeros(n - r)])
    return system, bounds, ell0


@pytest.mark.parametrize("seed", range(20))
def test_riccati_matches_the_reduced_ode_on_index_one_problems(seed):
    # the algebraic states enter x_r's dynamics, y and the cross-weights;
    # at M = 2048 the squared radius is within 1e-6 of the reduced ODE's,
    # relative to 1 plus its size
    system, bounds, ell0 = _index_one_problem(seed)
    grid = TimeGrid(0.0, 1.0, 2048)
    out = riccati_filter(system, bounds, ell0, np.zeros((2049, system.observation_dim)), grid)
    P, _ = _kalman_bucy(system, bounds, lambda t: np.zeros(system.observation_dim))
    sigma = float(ell0 @ P(1.0) @ ell0)
    assert out.worst_case_mse == pytest.approx(sigma, abs=1e-6 * (1.0 + sigma))


def test_riccati_on_the_benchmark_index_one_problem():
    # perfbench's singular_continuous(default_rng(3)), read out at x1(1):
    # the flow that dropped x2 answered 0.4155 here. The move per doubling
    # of M falls about 4x, as a second-order method's does
    system = ContinuousDAE(
        F=np.diag([1.0, 0.0]),
        C=[[-0.9314806662851005, -0.2631894934039003], [0.3012744652063969, -1.0924865747549426]],
        H=[[1.0, 0.5470643211201995]],
        t_start=0.0,
        t_end=1.0,
    )
    bounds = ContinuousEllipsoid(
        Q0=[[0.8938514979054567, -0.2076131784167516], [-0.2076131784167516, 0.8634988177201413]],
        Q1=[[1.145979341184219, 0.41617129698090083], [0.41617129698090083, 1.7147232866931157]],
        Q2=[[1.5443239950052332]],
    )
    ell0 = np.array([1.0, 0.0])
    P, _ = _kalman_bucy(system, bounds, lambda t: np.zeros(1))
    assert float(ell0 @ P(1.0) @ ell0) == pytest.approx(0.49802, abs=1e-5)
    sigma = {}
    for M in (512, 1024, 2048, 4096, 8192):
        grid = TimeGrid(0.0, 1.0, M)
        sigma[M] = riccati_filter(system, bounds, ell0, np.zeros((M + 1, 1)), grid).worst_case_mse
    assert sigma[2048] == pytest.approx(float(ell0 @ P(1.0) @ ell0), abs=1e-5)
    moves = [abs(sigma[2 * M] - sigma[M]) for M in (512, 1024, 2048, 4096)]
    assert all(a >= 3.0 * b for a, b in zip(moves, moves[1:]))


VERDICT_CASES = {
    # the grid chain loses a direction to rounding at its step 325: an
    # infinite radius (the scalar case is test_riccati_blowup_detected)
    "late drift": (
        [[1.0]],
        TableFunction([0.0, 0.5], [[[-1.0]], [[60.0]]]),
        [[0.0]],
        400,
        math.inf,
    ),
    # h = 1/4: the chain of every other node has F - 2hC = 0 at its step 1
    "state first": (
        [[1.0]],
        TableFunction([0.0, 0.25, 0.5], [[[0.0]], [[4.0]], [[2.0]]]),
        [[0.0]],
        4,
        RankDeficient,
    ),
    "regular 2-D": (np.eye(2), [[30.0, 1.0], [0.0, -2.0]], [[0.0, 1.0]], 500, RankDeficient),
    # H reads x2, which the algebraic row ties to x1: a finite radius
    "singular 2-D": (np.diag([1.0, 0.0]), [[20.0, 1.0], [0.5, -2.0]], [[0.0, 1.0]], 500, None),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_riccati_verdicts_match_the_per_step_oracle(case):
    # the oracle is the filter run step by step on the two chains: a rank
    # verdict of either is riccati's, a lost direction of either gives
    # riccati an infinite radius, and a finite answer is the chains'
    # extrapolation
    F, C, H, steps, verdict = VERDICT_CASES[case]
    n, l = np.shape(F)[0], np.shape(H)[0]
    system = ContinuousDAE(F=F, C=C, H=H, t_start=0.0, t_end=1.0)
    bounds = ContinuousEllipsoid(Q0=np.eye(n), Q1=np.eye(n), Q2=np.eye(l))
    ell0, y = np.eye(n)[0], np.zeros((steps + 1, l))
    chains = []
    for M in (steps, steps // 2):
        dae, dbounds = discretize(system, bounds, TimeGrid(0.0, 1.0, M))
        try:
            run = filter_run(dae, dbounds, y[:: steps // M], ell0)
        except RankDeficient:
            chains.append(None)
            continue
        chains.append(ell0 @ run.outputs["P_final"] @ ell0 if run.feasible else math.inf)
    args = (system, bounds, ell0, y, TimeGrid(0.0, 1.0, steps))
    if verdict is None:
        assert chains == pytest.approx([791.7, 775.4], abs=0.05)
        assert riccati_filter(*args).worst_case_mse == pytest.approx(
            2.0 * chains[0] - chains[1], rel=1e-12
        )
        return
    if verdict == math.inf:
        assert None not in chains and math.inf in chains
        out = riccati_filter(*args)
        assert not out.feasible and out.radius == math.inf
        assert out.solver["chain_steps"] == (steps if chains[0] == math.inf else steps // 2)
        return
    with pytest.raises(verdict) as raised:
        riccati_filter(*args)
    assert None in chains
    failed = steps if chains[0] is None else steps // 2
    assert str(raised.value).startswith(f"{failed}-step chain: ")
