"""Static minimax estimation: frozen scalar values, optimality, scaling,
duality, solution independence, and the infeasible/inconsistent paths.

The scalar model F = B = H = Q1 = Q2 = [[1]] has closed forms worked out
by hand: the a priori estimate weight is 1/2 with mean-squared error 1/2,
the consistency set for y = 1 is the interval [0, 1] with center 1/2 and
radius 1/2, and for y = 0 it is [-1/sqrt(2), 1/sqrt(2)].
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descriptor_minimax import (
    InconsistentData,
    InvalidBounds,
    InvalidInput,
    KIND_APOSTERIORI,
    KIND_APRIORI,
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    representable,
    worst_case_error_of,
)
from descriptor_minimax.static import _saddle_matrix

from conftest import (
    feasible_observation,
    make_static,
    representable_functional,
    rng_for,
    scalar_static,
)


def test_scalar_apriori_frozen():
    model, apr, _ = scalar_static()
    out = apriori_estimate(model, apr, [1.0])
    assert out.feasible
    assert out.u_hat == pytest.approx([0.5], abs=1e-12)
    assert out.sigma_hat == pytest.approx(0.5, abs=1e-12)


def test_scalar_apriori_with_data():
    model, apr, _ = scalar_static()
    out = apriori_estimate(model, apr, [1.0], y=[1.0])
    assert out.estimate_value == pytest.approx(0.5, abs=1e-12)


def test_scalar_aposteriori_frozen():
    model, _, apo = scalar_static()
    out = aposteriori_estimate(model, apo, [1.0], [1.0])
    assert out.feasible
    assert out.x_hat == pytest.approx([0.5], abs=1e-12)
    assert out.estimate_value == pytest.approx(0.5, abs=1e-12)
    assert out.sigma_hat == pytest.approx(0.5, abs=1e-12)


def test_scalar_aposteriori_zero_data():
    model, _, apo = scalar_static()
    out = aposteriori_estimate(model, apo, [1.0], [0.0])
    assert out.x_hat == pytest.approx([0.0], abs=1e-12)
    assert out.sigma_hat == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_scalar_worst_case_frozen():
    model, apr, _ = scalar_static()
    assert worst_case_error_of(model, apr, [1.0], [0.5]) == pytest.approx(
        0.5, abs=1e-12
    )
    assert worst_case_error_of(model, apr, [1.0], [0.0]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_worst_case_infinite_off_range():
    # F = 0 forces the attainable-bias direction to escape: any functional
    # component outside range(F') + H-corrections with u = 0 is unbounded.
    model = StaticModel(F=[[0.0]], B=[[1.0]], H=[[1.0]])
    apr = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]], kind=KIND_APRIORI)
    assert worst_case_error_of(model, apr, [1.0], [0.0]) == np.inf


def test_optimality_of_minimax_weight():
    """wc(u_hat, 0) <= wc(u, c) + 1e-8 over random perturbations.

    The a priori weight must be the exact minimizer of the worst-case
    error over all affine estimates, so no perturbed competitor may win
    by more than rounding.
    """
    rng = rng_for(20260816)
    checked = 0
    models = 0
    while models < 25:
        n, m, p, l = (int(rng.integers(1, 4)) for _ in range(4))
        model, bounds = make_static(rng, n=n, m=m, p=p, l=l, kind=KIND_APRIORI)
        ell = representable_functional(rng, model)
        if np.linalg.norm(ell) < 1e-6:
            continue
        out = apriori_estimate(model, bounds, ell)
        if not out.feasible:
            continue
        base = worst_case_error_of(model, bounds, ell, out.u_hat)
        assert base == pytest.approx(out.sigma_hat, rel=1e-8, abs=1e-10)
        for _ in range(40):
            du = out.u_hat + rng.standard_normal(l) * rng.choice([1e-4, 0.1, 1.0])
            dc = float(rng.standard_normal() * 0.1)
            trial = worst_case_error_of(model, bounds, ell, du, dc)
            assert trial >= base - 1e-8
            checked += 1
        models += 1
    assert checked >= 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0, 10.0]))
def test_apriori_scaling_law(seed, alpha):
    rng = rng_for(seed)
    model, bounds = make_static(rng, kind=KIND_APRIORI)
    ell = representable_functional(rng, model)
    base = apriori_estimate(model, bounds, ell)
    scaled = apriori_estimate(model, bounds, alpha * ell)
    if not base.feasible:
        assert not scaled.feasible
        return
    assert scaled.sigma_hat == pytest.approx(
        alpha**2 * base.sigma_hat, rel=1e-10, abs=1e-12
    )
    assert scaled.u_hat == pytest.approx(alpha * base.u_hat, rel=1e-9, abs=1e-10)


def test_duality_identity():
    # (ell, x_hat) = (Q2 H p, y): the center readout equals the a priori
    # weight applied to the data.
    rng = rng_for(99)
    done = 0
    while done < 50:
        model, bounds = make_static(rng)
        ell = representable_functional(rng, model)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        out = aposteriori_estimate(model, bounds, ell, y)
        if not out.feasible:
            continue
        lhs = float(ell @ out.x_hat)
        rhs = float((bounds.Q2 @ model.H @ out.p) @ y)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        done += 1


def test_estimate_independent_of_dual_solution():
    """u_hat, (ell,p) and (ell,x_hat) are invariant across solutions of the
    saddle system when F is singular and the dual pair is non-unique."""
    rng = rng_for(5)
    for _ in range(10):
        n, m = 3, 3
        # F and H built over a shared rank-2 row space: the saddle system
        # then has a genuine kernel along ker(F) ∩ ker(H'Q2H)
        P = rng.standard_normal((2, n))
        F = rng.standard_normal((m, 2)) @ P
        model = StaticModel(
            F=F, B=rng.standard_normal((m, 3)), H=rng.standard_normal((2, 2)) @ P
        )
        bounds = StaticEllipsoid(Q1=np.eye(3), Q2=np.eye(2), kind=KIND_APRIORI)
        ell = representable_functional(rng, model)
        out = apriori_estimate(model, bounds, ell)
        assert out.feasible
        A = _saddle_matrix(model, bounds)
        _, s, vt = np.linalg.svd(A)
        null_count = int(np.sum(s <= 1e-10 * s[0]))
        assert null_count >= 1
        kernel = vt[len(s) - null_count :].T
        rhs = np.concatenate([np.zeros(m), ell])
        base = np.concatenate([out.p, out.z_hat])
        for _ in range(5):
            other = base + kernel @ rng.standard_normal(kernel.shape[1])
            assert np.linalg.norm(A @ other - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))
            p_other = other[:n]
            u_other = bounds.Q2 @ model.H @ p_other
            assert u_other == pytest.approx(out.u_hat, abs=1e-7)
            assert float(ell @ p_other) == pytest.approx(out.sigma_hat, abs=1e-7)


def test_inconsistent_data_raises():
    model, _, apo = scalar_static()
    with pytest.raises(InconsistentData):
        aposteriori_estimate(model, apo, [1.0], [10.0])


def test_nonrepresentable_is_flagged_not_raised():
    model = StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0, 0.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]], kind=KIND_APOSTERIORI)
    assert not representable(model, [0.0, 1.0])
    out = aposteriori_estimate(model, bounds, [0.0, 1.0], [0.5])
    assert not out.feasible
    assert out.sigma_hat == np.inf
    # the center is still the data-consistent point even when the radius
    # in this direction is infinite
    assert out.x_hat is not None


def test_aposteriori_assembles_and_solves_once(monkeypatch):
    # The center and the a priori solution share one saddle assembly and
    # one least-squares solve; the other solve is the representability test
    import descriptor_minimax.linalg as linalg_mod
    import descriptor_minimax.static as static_mod

    calls = {"assemble": 0, "solve": 0}
    assemble, solve = static_mod._saddle_matrix, linalg_mod.solve_least_squares

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(static_mod, "_saddle_matrix", counted_assemble)
    monkeypatch.setattr(static_mod, "solve_least_squares", counted_solve)
    monkeypatch.setattr(linalg_mod, "solve_least_squares", counted_solve)
    model, _, apo = scalar_static()
    out = aposteriori_estimate(model, apo, [1.0], [1.0])
    assert out.feasible and out.sigma_hat == pytest.approx(0.5)
    assert calls == {"assemble": 1, "solve": 2}


def test_kind_mismatch_raises():
    model, apr, apo = scalar_static()
    with pytest.raises(InvalidInput):
        apriori_estimate(model, apo, [1.0])
    with pytest.raises(InvalidInput):
        aposteriori_estimate(model, apr, [1.0], [1.0])


def test_bad_bounds_rejected():
    with pytest.raises(InvalidBounds):
        StaticEllipsoid(Q1=[[-1.0]], Q2=[[1.0]], kind=KIND_APRIORI)
    with pytest.raises(InvalidBounds):
        StaticEllipsoid(Q1=[[1.0]], Q2=[[0.0]], kind=KIND_APRIORI)


def test_dimension_mismatch_raises():
    model, apr, _ = scalar_static()
    with pytest.raises(InvalidInput):
        apriori_estimate(model, apr, [1.0, 2.0])
    with pytest.raises(InvalidInput):
        StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0]])
