"""Static minimax estimation: frozen scalar values, optimality, scaling,
duality, solution independence, and the infeasible/inconsistent paths.

The scalar model F = B = H = Q1 = Q2 = [[1]] has closed forms worked out
by hand: the a priori estimate weight is 1/2 with mean-squared error 1/2,
the consistency set for y = 1 is the interval [0, 1] with center 1/2 and
radius 1/2, and for y = 0 it is [-1/sqrt(2), 1/sqrt(2)].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descriptor_minimax import (
    InconsistentData,
    InvalidBounds,
    InvalidInput,
    NumericalBreakdown,
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    representable,
)
from descriptor_minimax.linalg import svd_subspaces

from conftest import (
    feasible_observation,
    make_static,
    random_spd,
    representable_functional,
    rng_for,
    saddle_matrix,
    saddle_reference,
    scalar_static,
    worst_case_error_of,
)


def test_scalar_apriori_frozen():
    model, bounds = scalar_static()
    out = apriori_estimate(model, bounds, [1.0])
    assert out.feasible
    assert out.outputs["u_hat"] == pytest.approx([0.5], abs=1e-12)
    assert out.worst_case_mse == pytest.approx(0.5, abs=1e-12)


def test_scalar_apriori_with_data():
    model, bounds = scalar_static()
    out = apriori_estimate(model, bounds, [1.0], y=[1.0])
    assert out.estimate == pytest.approx(0.5, abs=1e-12)


def test_scalar_aposteriori_frozen():
    model, bounds = scalar_static()
    out = aposteriori_estimate(model, bounds, [1.0], [1.0])
    assert out.feasible
    assert out.outputs["x_hat"] == pytest.approx([0.5], abs=1e-12)
    assert out.estimate == pytest.approx(0.5, abs=1e-12)
    assert out.radius == pytest.approx(0.5, abs=1e-12)


def test_scalar_aposteriori_zero_data():
    model, bounds = scalar_static()
    out = aposteriori_estimate(model, bounds, [1.0], [0.0])
    assert out.outputs["x_hat"] == pytest.approx([0.0], abs=1e-12)
    assert out.radius == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_scalar_worst_case_frozen():
    model, bounds = scalar_static()
    assert worst_case_error_of(model, bounds, [1.0], [0.5]) == pytest.approx(
        0.5, abs=1e-12
    )
    assert worst_case_error_of(model, bounds, [1.0], [0.0]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_worst_case_infinite_off_range():
    # F = 0 forces the attainable-bias direction to escape: any functional
    # component outside range(F') + H-corrections with u = 0 is unbounded.
    model = StaticModel(F=[[0.0]], B=[[1.0]], H=[[1.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    assert worst_case_error_of(model, bounds, [1.0], [0.0]) == np.inf


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
        model, bounds = make_static(rng, n=n, m=m, p=p, l=l)
        ell = representable_functional(rng, model)
        if np.linalg.norm(ell) < 1e-6:
            continue
        out = apriori_estimate(model, bounds, ell)
        if not out.feasible:
            continue
        base = worst_case_error_of(model, bounds, ell, out.outputs["u_hat"])
        assert base == pytest.approx(out.worst_case_mse, rel=1e-8, abs=1e-10)
        for _ in range(40):
            du = out.outputs["u_hat"] + rng.standard_normal(l) * rng.choice([1e-4, 0.1, 1.0])
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
    model, bounds = make_static(rng)
    ell = representable_functional(rng, model)
    base = apriori_estimate(model, bounds, ell)
    scaled = apriori_estimate(model, bounds, alpha * ell)
    if not base.feasible:
        assert not scaled.feasible
        return
    assert scaled.worst_case_mse == pytest.approx(
        alpha**2 * base.worst_case_mse, rel=1e-10, abs=1e-12
    )
    assert scaled.outputs["u_hat"] == pytest.approx(
        alpha * base.outputs["u_hat"], rel=1e-9, abs=1e-10
    )


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
        lhs = float(ell @ out.outputs["x_hat"])
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
        bounds = StaticEllipsoid(Q1=np.eye(3), Q2=np.eye(2))
        ell = representable_functional(rng, model)
        out = apriori_estimate(model, bounds, ell)
        assert out.feasible
        A = saddle_matrix(model, bounds)
        _, s, vt = np.linalg.svd(A)
        null_count = int(np.sum(s <= 1e-10 * s[0]))
        assert null_count >= 1
        kernel = vt[len(s) - null_count :].T
        rhs = np.concatenate([np.zeros(m), ell])
        # the dual part of the base solution from the saddle's own
        # equations given p: [-G; F'] z = [0; ell] - [F; H'Q2H] p
        z = np.linalg.lstsq(A[:, n:], rhs - A[:, :n] @ out.p, rcond=None)[0]
        base = np.concatenate([out.p, z])
        for _ in range(5):
            other = base + kernel @ rng.standard_normal(kernel.shape[1])
            assert np.linalg.norm(A @ other - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))
            p_other = other[:n]
            u_other = bounds.Q2 @ model.H @ p_other
            assert u_other == pytest.approx(out.outputs["u_hat"], abs=1e-7)
            assert float(ell @ p_other) == pytest.approx(out.worst_case_mse, abs=1e-7)


def test_estimates_are_scale_free():
    # weights times s and data times 1/sqrt(s) leave every center * sqrt(s)
    # and radius * sqrt(s) as they were: the reduction's rank cut and
    # membership test read no absolute scale
    scales = (1e-12, 1e-6, 1e6, 1e12)
    for seed in range(100, 140):
        rng = rng_for(seed)
        model, bounds = make_static(rng, n=3, m=3, p=3, l=2)
        ell = rng.standard_normal(3)
        y = rng.standard_normal(2)
        y *= math.sqrt(0.5 / float(y @ bounds.Q2 @ y))

        def answers(s):
            scaled = StaticEllipsoid(Q1=s * bounds.Q1, Q2=s * bounds.Q2)
            post = aposteriori_estimate(model, scaled, ell, y / math.sqrt(s))
            prior = apriori_estimate(model, scaled, ell, y / math.sqrt(s))
            values = [post.estimate, post.radius, prior.estimate, prior.radius]
            return np.array(values) * math.sqrt(s)

        base = answers(1.0)
        for s in scales:
            assert np.abs(answers(s) - base).max() <= 1e-12 * (1.0 + np.abs(base).max())


def _ensemble_problem(rng, i):
    """Problem i of a mixed ensemble: shapes 1 to 4, F of deficient rank
    on every third draw, B rarely square, a random (so sometimes not
    representable) functional, and data of energy 0.5."""
    n, m, p, l = (int(v) for v in rng.integers(1, 5, 4))
    F = rng.standard_normal((m, n))
    if i % 3 == 0 and min(m, n) > 1:
        r = int(rng.integers(1, min(m, n)))
        F = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    model = StaticModel(F=F, B=rng.standard_normal((m, p)), H=rng.standard_normal((l, n)))
    bounds = StaticEllipsoid(Q1=random_spd(rng, p), Q2=random_spd(rng, l))
    y = rng.standard_normal(l)
    return model, bounds, rng.standard_normal(n), y * math.sqrt(0.5 / float(y @ bounds.Q2 @ y))


def test_estimates_match_the_saddle_reference():
    # 400 draws through both estimators against one least-squares solve of
    # the dense saddle: the same verdict as representable(), and on a finite
    # radius the same (ell, p), center and squared radius. Where ker [F, -B]
    # is {0} the only model solution is x = 0, and the radius is exactly 0
    rng = rng_for(43)
    verdicts, trivial = {True: 0, False: 0}, 0
    for i in range(400):
        model, bounds, ell, y = _ensemble_problem(rng, i)
        feasible, mse, center, beta = saddle_reference(model, bounds, ell, y)
        prior = apriori_estimate(model, bounds, ell)
        post = aposteriori_estimate(model, bounds, ell, y)
        assert prior.feasible == post.feasible == feasible == representable(model, ell)
        verdicts[feasible] += 1
        if not feasible:
            assert prior.radius == post.radius == math.inf
            continue
        assert prior.worst_case_mse == pytest.approx(mse, rel=1e-9, abs=1e-9)
        assert post.estimate == pytest.approx(center, rel=1e-9, abs=1e-9)
        squared = (1.0 - beta) * mse
        assert post.radius**2 == pytest.approx(squared, rel=1e-9, abs=1e-9)
        if not svd_subspaces(np.hstack([model.F, -model.B])).kernel_basis.shape[1]:
            assert prior.worst_case_mse == post.radius == post.estimate == 0.0
            trivial += 1
    assert min(verdicts.values()) >= 20 and trivial >= 5


def test_inconsistent_data_raises():
    # x_hat = 5 needs beta = (10 - 5) * 10 = 50 of the unit budget
    model, bounds = scalar_static()
    with pytest.raises(InconsistentData) as info:
        aposteriori_estimate(model, bounds, [1.0], [10.0])
    assert str(info.value) == (
        "observations are inconsistent with the disturbance bound (energy overshoot 4.900e+01)"
    )


@pytest.mark.parametrize("y", [1.0, 1e14, 1e100])
def test_data_the_model_explains_exactly_needs_no_energy(y):
    # x = (0, y) explains any y with f = 0: the whitened K has full row
    # rank, so every d is in its range and beta is 0, not the rounding of
    # the projection, about (eps y)^2
    model = StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0, 1.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    at_zero = aposteriori_estimate(model, bounds, [1.0, 1.0], [0.0])
    out = aposteriori_estimate(model, bounds, [1.0, 1.0], [y])
    assert out.radius == pytest.approx(at_zero.radius, abs=1e-15)
    assert at_zero.radius == pytest.approx(1.0, abs=1e-15)
    assert out.estimate == pytest.approx(y, rel=1e-15)


def test_nonrepresentable_is_flagged_not_raised():
    model = StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0, 0.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    assert not representable(model, [0.0, 1.0])
    out = aposteriori_estimate(model, bounds, [0.0, 1.0], [0.5])
    assert not out.feasible
    assert out.radius == np.inf
    # the center is still the data-consistent point even when the radius
    # in this direction is infinite
    assert "x_hat" in out.outputs
    # the readout chosen before data gets the same verdict
    prior = apriori_estimate(model, bounds, [0.0, 1.0], y=[0.5])
    assert not prior.feasible
    assert prior.worst_case_mse == np.inf
    assert "u_hat" not in prior.outputs


def test_whitened_rows_beyond_the_float_range_are_a_breakdown():
    # [F; H] has rank 2 in exact arithmetic: rows that overflow once
    # whitened are named, not read as an infinite radius
    model = StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1e300, 1.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1e300]])
    message = "^the whitened rows of the reduced model are not finite"
    with pytest.raises(NumericalBreakdown, match=message):
        apriori_estimate(model, bounds, [1.0, 1.0])
    with pytest.raises(NumericalBreakdown, match=message):
        aposteriori_estimate(model, bounds, [1.0, 1.0], [0.0])


def test_aposteriori_reduces_once_and_factors_once(monkeypatch):
    # One null-space basis of [F, -B] and one thin SVD of the whitened rows
    # give the center, beta, the verdict and the radius: no least-squares
    # solve and no separate representability test run
    import descriptor_minimax.static as static_mod

    calls = {"reduce": 0, "svd": 0, "lstsq": 0, "representable": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(static_mod, "svd_subspaces", counted("reduce", static_mod.svd_subspaces))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(static_mod, "representable", counted("representable", representable))
    model, bounds = scalar_static()
    out = aposteriori_estimate(model, bounds, [1.0], [1.0])
    assert out.feasible and out.radius == pytest.approx(0.5)
    assert calls == {"reduce": 1, "svd": 2, "lstsq": 0, "representable": 0}


def test_bad_bounds_rejected():
    with pytest.raises(InvalidBounds):
        StaticEllipsoid(Q1=[[-1.0]], Q2=[[1.0]])
    with pytest.raises(InvalidBounds):
        StaticEllipsoid(Q1=[[1.0]], Q2=[[0.0]])


def test_dimension_mismatch_raises():
    model, bounds = scalar_static()
    with pytest.raises(InvalidInput):
        apriori_estimate(model, bounds, [1.0, 2.0])
    with pytest.raises(InvalidInput):
        StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0]])


def test_readme_quick_start_runs(capsys):
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[0.5] 0.5"


def test_readme_module_table_names_exist():
    # every name README's "Key entry points" table puts in a module's
    # "provides" cell is an attribute of that module
    import importlib
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nKey entry points", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    missing = []
    for module_cell, provides in rows:
        module = importlib.import_module(f"descriptor_minimax.{module_cell.strip().strip('`')}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", provides):
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert rows and not missing, missing
