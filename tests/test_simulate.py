"""Forward simulation of admissible disturbance draws."""

import numpy as np
import pytest
import scipy.linalg

import descriptor_minimax.filtering as filtering_mod

from descriptor_minimax import (
    DAEEllipsoid,
    DiscreteDAE,
    InvalidInput,
    NumericalBreakdown,
    SingularStep,
    simulate,
)

from conftest import make_discrete, rng_for, scalar_chain


def _energy(dae, bounds, result):
    total = float(result.initial_data @ (bounds.Q0 @ result.initial_data))
    for k in range(dae.horizon):
        f = result.process[k]
        total += float(f @ (bounds.Q1_seq[k] @ f))
    for k in range(dae.horizon + 1):
        g = result.noise[k]
        total += float(g @ (bounds.Q2_seq[k] @ g))
    return total


def test_zero_mode_is_identically_zero():
    dae, bounds = scalar_chain()
    out = simulate(dae, bounds, disturbance="zero")
    assert np.all(out.states == 0.0)
    assert np.all(out.observations == 0.0)
    assert out.quad_form == 0.0


def test_boundary_mode_spends_the_whole_budget():
    rng = rng_for(1)
    for trial in range(10):
        dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=3)
        out = simulate(dae, bounds, disturbance="boundary", seed=trial)
        assert out.quad_form == pytest.approx(1.0, abs=1e-9)
        assert _energy(dae, bounds, out) == pytest.approx(1.0, abs=1e-9)


def test_uniform_mode_stays_inside():
    rng = rng_for(2)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=3)
    for seed in range(20):
        out = simulate(dae, bounds, disturbance="uniform", seed=seed)
        assert out.quad_form <= 1.0 + 1e-9


def test_trajectory_satisfies_the_recursion():
    rng = rng_for(3)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=4)
    out = simulate(dae, bounds, disturbance="boundary", seed=7)
    assert np.linalg.norm(
        dae.F_seq[0] @ out.states[0] - dae.S @ out.initial_data
    ) <= 1e-10
    for k in range(dae.horizon):
        lhs = dae.F_seq[k + 1] @ out.states[k + 1]
        rhs = dae.C_seq[k] @ out.states[k] + dae.B_seq[k] @ out.process[k]
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
    for k in range(dae.horizon + 1):
        expected = dae.H_seq[k] @ out.states[k] + out.noise[k]
        assert out.observations[k] == pytest.approx(expected, abs=1e-12)


def test_determinism_and_seed_sensitivity():
    rng = rng_for(4)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=3)
    a = simulate(dae, bounds, seed=11)
    b = simulate(dae, bounds, seed=11)
    c = simulate(dae, bounds, seed=12)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observations, b.observations)
    assert not np.array_equal(a.states, c.states)


def test_singular_step_rejected():
    one = np.ones((1, 1))
    dae = DiscreteDAE(
        F_seq=np.stack([one, np.zeros((1, 1))]),
        C_seq=np.stack([one]),
        B_seq=np.stack([one]),
        S=one,
        H_seq=np.stack([one, one]),
    )
    bounds = DAEEllipsoid(
        Q0=one, Q1_seq=np.stack([one]), Q2_seq=np.stack([one, one])
    )
    with pytest.raises(SingularStep):
        simulate(dae, bounds, disturbance="boundary", seed=0)


def test_invalid_mode_rejected():
    dae, bounds = scalar_chain()
    with pytest.raises(InvalidInput):
        simulate(dae, bounds, disturbance="gaussian")


def _reference_simulation(dae, bounds, seed):
    """Boundary draw of the same seed, one step and one block at a time.

    Kept as the oracle for the batched unwhitening, forcing, observations
    and energy of :func:`simulate`.
    """
    N, m, p, l = dae.horizon, dae.equation_dim, dae.disturbance_dim, dae.observation_dim
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(m + N * p + (N + 1) * l)
    xi /= np.linalg.norm(xi)

    def unwhiten(Q, block):
        return scipy.linalg.solve_triangular(np.linalg.cholesky(Q).T, block, lower=False)

    x0g = unwhiten(bounds.Q0, xi[:m])
    f = [unwhiten(bounds.Q1_seq[k], xi[m + k * p : m + (k + 1) * p]) for k in range(N)]
    base = m + N * p
    g = [unwhiten(bounds.Q2_seq[k], xi[base + k * l : base + (k + 1) * l]) for k in range(N + 1)]
    x = [np.linalg.solve(dae.F_seq[0], dae.S @ x0g)]
    for k in range(N):
        x.append(np.linalg.solve(dae.F_seq[k + 1], dae.C_seq[k] @ x[k] + dae.B_seq[k] @ f[k]))
    y = [dae.H_seq[k] @ x[k] + g[k] for k in range(N + 1)]
    energy = float(x0g @ bounds.Q0 @ x0g)
    energy += sum(float(v @ bounds.Q1_seq[k] @ v) for k, v in enumerate(f))
    energy += sum(float(v @ bounds.Q2_seq[k] @ v) for k, v in enumerate(g))
    return np.array(x), np.array(y), energy


def test_batched_simulation_matches_step_by_step_reference():
    rng = rng_for(5)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        l, N = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        dae, bounds = make_discrete(rng, n=n, m=n, l=l, N=N)
        states, observations, energy = _reference_simulation(dae, bounds, trial)
        out = simulate(dae, bounds, disturbance="boundary", seed=trial)
        scale = 1.0 + np.abs(states).max()
        assert out.states == pytest.approx(states, rel=1e-12, abs=1e-12 * scale)
        assert out.observations == pytest.approx(observations, rel=1e-12, abs=1e-12 * scale)
        assert out.quad_form == pytest.approx(energy, rel=1e-12)
        assert out.quad_form == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("steps", [1, 3, 7, 40])
def test_simulation_carries_the_state_across_block_edges(steps, monkeypatch):
    # the recursion runs as one banded solve per block of ``steps`` steps,
    # each started from the state the block before ended on (40: one block)
    rng = rng_for(7)
    dae, bounds = make_discrete(rng, n=3, m=3, l=2, N=40)
    states, observations, _ = _reference_simulation(dae, bounds, 3)
    monkeypatch.setattr(filtering_mod, "_BAND_ENTRIES", 2 * 3 * 3 * steps)
    out = simulate(dae, bounds, disturbance="boundary", seed=3)
    scale = 1.0 + np.abs(states).max()
    assert out.states == pytest.approx(states, rel=1e-12, abs=1e-12 * scale)
    assert out.observations == pytest.approx(observations, rel=1e-12, abs=1e-12 * scale)


def test_singular_step_names_the_first_singular_matrix():
    rng = rng_for(6)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=30)
    F = np.array(dae.F_seq)
    F[12] = np.outer([1.0, 1.0], [2.0, 1.0])
    F[20] = np.zeros((2, 2))
    dae = DiscreteDAE(F_seq=F, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=dae.H_seq)
    with pytest.raises(SingularStep, match="F_12 is singular"):
        simulate(dae, bounds, disturbance="boundary", seed=0)


def test_step_rank_is_judged_at_the_default_tolerance():
    # s_min/s_max = 1e-11 is singular by the rank cut DEFAULT_TOL = 1e-10
    # that judges S and the B_k, although cond(F_k) = 1e11 is finite;
    # 1e-9 passes
    rng = rng_for(6)
    dae, bounds = make_discrete(rng, n=2, m=2, l=2, N=8)
    rotation = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    for ratio, singular in ((1e-11, True), (1e-9, False)):
        F = np.array(dae.F_seq)
        F[5] = rotation @ np.diag([3.0, 3.0 * ratio])
        chain = DiscreteDAE(F_seq=F, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=dae.H_seq)
        if singular:
            with pytest.raises(SingularStep, match=r"^F_5 is singular; cannot propagate forward$"):
                simulate(chain, bounds, disturbance="boundary", seed=0)
        else:
            assert np.isfinite(simulate(chain, bounds, disturbance="boundary", seed=0).states).all()


def test_an_overflowed_observation_is_refused():
    # the states stay finite and H_1 x_1 overflows; an overflowed state is
    # test_cli.py::test_simulate_refuses_an_overflowed_draw's case
    dae, bounds = scalar_chain()
    blind = DiscreteDAE(
        F_seq=dae.F_seq, C_seq=dae.C_seq, B_seq=dae.B_seq, S=1e5 * dae.S,
        H_seq=np.stack([dae.H_seq[0], 1e308 * dae.H_seq[1]]),
    )
    with pytest.raises(
        NumericalBreakdown,
        match=r"^state or observation at step 1 is not finite; the forward recursion overflowed$",
    ):
        simulate(blind, bounds, disturbance="boundary", seed=0)
