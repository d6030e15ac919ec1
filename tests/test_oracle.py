"""Brute-force reachability sampling and the independent center oracle.

Membership is re-verified here from scratch: for each sampled state x
the minimum disturbance energy consistent with x and y is computed by a
projection that shares no code with the sampler.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from descriptor_minimax import (
    DimensionTooLarge,
    DiscreteDAE,
    EmptySet,
    InvalidInput,
    SingularNormalEquations,
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    chebyshev_check,
    quadratic_center_oracle,
    sample_reachability,
)
from descriptor_minimax.discrete import flatten, flatten_bounds

from conftest import (
    feasible_observation,
    make_discrete,
    make_static,
    representable_functional,
    rng_for,
    scalar_static,
)


def _membership_energy(model, bounds, y, x):
    """Least energy of (f, g) with F x = B f, g = y - H x.

    Minimum-norm f solves the weighted least squares min (Q1 f, f)
    subject to B f = F x; infeasible x reports +inf.
    """
    L = np.linalg.cholesky(bounds.Q1)
    # substitute f = L^{-T} w, minimize |w|^2 s.t. (B L^{-T}) w = F x
    BL = model.B @ np.linalg.inv(L.T)
    target = model.F @ x
    w, *_ = np.linalg.lstsq(BL, target, rcond=None)
    if np.linalg.norm(BL @ w - target) > 1e-8 * (1.0 + np.linalg.norm(target)):
        return np.inf
    g = y - model.H @ x
    return float(w @ w + g @ (bounds.Q2 @ g))


def test_samples_satisfy_membership():
    rng = rng_for(1001)
    done = 0
    while done < 10:
        model, bounds = make_static(rng)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        samples = sample_reachability(model, bounds, y, 500, seed=done)
        assert len(samples) == 500
        for x in samples.x:
            assert _membership_energy(model, bounds, y, x) <= 1.0 + 1e-12
        done += 1


def test_boundary_samples_sit_on_the_shell():
    model, bounds = scalar_static()
    samples = sample_reachability(model, bounds, [1.0], 400, seed=3)
    energies = np.array(
        [_membership_energy(model, bounds, np.array([1.0]), x) for x in samples.x]
    )
    on_shell = np.sum(np.abs(energies - 1.0) <= 1e-9)
    assert on_shell >= 150  # alternating boundary/interior draw pattern


def test_scalar_deviation_attains_radius():
    model, bounds = scalar_static()
    out = aposteriori_estimate(model, bounds, [1.0], [1.0])
    samples = sample_reachability(model, bounds, [1.0], 2000, seed=0)
    report = chebyshev_check(samples, [1.0], out.estimate_value, out.sigma_hat)
    assert report.violation_count == 0
    assert report.samples_checked == 2000
    assert report.max_abs_deviation == pytest.approx(0.5, abs=1e-6)


def test_no_violations_across_random_instances():
    rng = rng_for(77)
    done = 0
    while done < 100:
        model, bounds = make_static(rng)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        ell = representable_functional(rng, model)
        out = aposteriori_estimate(model, bounds, ell, y)
        if not out.feasible:
            continue
        samples = sample_reachability(model, bounds, y, 400, seed=done)
        if len(samples) == 0:
            continue
        report = chebyshev_check(samples, ell, out.estimate_value, out.sigma_hat)
        assert report.violation_count == 0
        done += 1


def test_determinism_same_seed():
    rng = rng_for(5)
    model, bounds = make_static(rng)
    y = np.zeros(model.observation_dim)
    a = sample_reachability(model, bounds, y, 1000, seed=42)
    b = sample_reachability(model, bounds, y, 1000, seed=42)
    assert np.array_equal(a.x, b.x)
    c = sample_reachability(model, bounds, y, 1000, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_frozen_stream_across_chunks():
    # 5000 draws span three chunks. The recorded values pin the chunking
    # and the per-chunk substreams; the scalar model keeps every product a
    # single rounding, so they hold on every BLAS.
    model, bounds = scalar_static()
    samples = sample_reachability(model, bounds, [1.0], 5000, seed=11)
    frozen = {
        0: 0.0,
        1: 0.12627225442038398,
        2047: 0.8651940092854086,
        2048: 0.9999999999999998,
        4095: 0.436523051422308,
        4096: 0.9999999999999998,
        4999: 0.5087235421743945,
    }
    for row, value in frozen.items():
        assert samples.x[row, 0] == value
    assert math.fsum(samples.x[:, 0]) == 2494.192688584893
    assert np.array_equal(samples.boundary, np.arange(5000) % 2 == 0)


def test_sampler_memory_stays_near_its_output():
    # A 64-dimensional flattened chain: the chunks are drawn into the
    # returned array, so the traced peak is the output plus one chunk's
    # temporaries, not a second copy of every chunk.
    dae, bounds = make_discrete(rng_for(0), n=2, N=31)
    model = flatten(dae)
    flat_bounds = flatten_bounds(dae, bounds)
    y = np.zeros(model.observation_dim)
    tracemalloc.start()
    try:
        samples = sample_reachability(model, flat_bounds, y, 20_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.x.shape == (20_000, 64)
    assert peak < 2 * samples.x.nbytes


def _readout_problems():
    """Static shapes, rank-deficient F and H, a set with a flat direction
    (x2 is free), and regular and descriptor chains of 64 states."""
    rng = rng_for(9)
    problems = {}
    model, bounds = make_static(rng, n=3, m=2, p=2, l=2)
    problems["static"] = (model, bounds, feasible_observation(rng, model, bounds))
    model = StaticModel(
        F=rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3)),
        B=rng.standard_normal((3, 2)),
        H=rng.standard_normal((2, 1)) @ rng.standard_normal((1, 3)),
    )
    unit = StaticEllipsoid(Q1=np.eye(2), Q2=np.eye(2))
    problems["rank-deficient"] = (model, unit, np.zeros(2))
    model = StaticModel(F=[[1.0, 0.0]], B=[[1.0]], H=[[1.0, 0.0]])
    problems["flat"] = (model, StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]]), np.array([0.5]))
    dae, bounds = make_discrete(rng_for(0), n=2, N=31)
    F_seq = dae.F_seq.copy()
    F_seq[:, :, 1] = 0.0  # every F_k singular
    descriptor = DiscreteDAE(
        F_seq=F_seq, C_seq=dae.C_seq, B_seq=dae.B_seq, S=dae.S, H_seq=dae.H_seq
    )
    for name, chain in (("chain", dae), ("descriptor-chain", descriptor)):
        model = flatten(chain)
        y = np.zeros(model.observation_dim)
        problems[name] = (model, flatten_bounds(chain, bounds), y)
    return problems


READOUT_PROBLEMS = _readout_problems()

# Readouts with fewer rows than the set has positive-curvature directions
# (64 for the chains, 3 for the static set): the sampler draws their values
# from the exact distribution of L x, not by projecting the same draws.
REDUCED_READOUTS = [("chain", 1), ("chain", 3), ("descriptor-chain", 1),
                    ("descriptor-chain", 3), ("static", 1)]


def _readout_inside_the_set(model, bounds, y, L, values, directions):
    """Along each direction d, the values (L'd, x) stay within that
    functional's a posteriori radius of its estimate."""
    for d in directions:
        est = aposteriori_estimate(model, bounds, L.T @ d, y)
        check = chebyshev_check(values, d, est.estimate_value, est.sigma_hat)
        assert check.violation_count == 0


@pytest.mark.parametrize("count", [1, 2047, 2048, 2049, 5000])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(READOUT_PROBLEMS))
def test_readout_matches_the_states_it_projects(name, k, count):
    # Unreduced readouts project the same draws as the states, value for
    # value; reduced ones are other draws of the same set (their
    # distribution is tested below), so they are checked against its bounds.
    model, bounds, y = READOUT_PROBLEMS[name]
    L = rng_for(k).standard_normal((k, model.state_dim))
    states = sample_reachability(model, bounds, y, count, seed=5)
    values = sample_reachability(model, bounds, y, count, seed=5, readout=L)
    assert values.x.shape == (count, k)
    assert np.array_equal(values.boundary, states.boundary)
    assert not values.empty
    if (name, k) in REDUCED_READOUTS:
        _readout_inside_the_set(model, bounds, y, L, values, np.eye(k))
    else:
        reference = states.x @ L.T
        assert np.abs(values.x - reference).max() <= 1e-12 * np.abs(reference).max()
    if name == "flat" and count > 1:
        assert np.ptp(states.x[:, 1]) > 10.0  # the free direction is sampled


def _free_problem():
    """x2, x3 and x4 are free: three flat directions, more than the two
    rows of the readout, beside one curved one."""
    model = StaticModel(F=[[1.0, 0.0, 0.0, 0.0]], B=[[1.0]], H=[[1.0, 0.0, 0.0, 0.0]])
    return model, StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]]), np.array([0.5])


@pytest.mark.parametrize(
    "name, k", REDUCED_READOUTS + [("free", 2)], ids=lambda v: str(v)
)
def test_reduced_readout_has_the_distribution_of_the_projected_states(name, k):
    # Two independent seeds: each coordinate's boundary and interior halves
    # pass a two-sample KS test against L x of the states, and no value
    # leaves the set along 20 random directions of the readout.
    problem = _free_problem() if name == "free" else READOUT_PROBLEMS[name]
    model, bounds, y = problem
    L = rng_for(k).standard_normal((k, model.state_dim))
    count = 20_000
    states = sample_reachability(model, bounds, y, count, seed=5)
    values = sample_reachability(model, bounds, y, count, seed=6, readout=L)
    reference = states.x @ L.T
    assert np.array_equal(values.boundary, states.boundary)
    for half in (values.boundary, ~values.boundary):
        for col in range(k):
            p = scipy.stats.ks_2samp(values.x[half, col], reference[half, col]).pvalue
            assert p >= 1e-3, f"coordinate {col}: KS p-value {p:.2e}"
    _readout_inside_the_set(model, bounds, y, L, values, rng_for(17).standard_normal((20, k)))


def test_readout_keeps_the_empty_set_and_checks_its_shape():
    model, bounds = scalar_static()
    samples = sample_reachability(model, bounds, [10.0], 100, seed=0, readout=[[1.0]])
    assert samples.empty
    assert samples.x.shape == (0, 1)
    with pytest.raises(InvalidInput, match="readout has 2 columns, expected 1"):
        sample_reachability(model, bounds, [1.0], 100, seed=0, readout=[[1.0, 0.0]])


def test_readout_memory_stays_near_its_output():
    # 10^5 draws on 64 states: the states would take 51.2 MB. Projected
    # before the lift, the traced peak stays below an eighth of that.
    dae, bounds = make_discrete(rng_for(0), n=2, N=31)
    model = flatten(dae)
    flat_bounds = flatten_bounds(dae, bounds)
    y = np.zeros(model.observation_dim)
    ell = rng_for(1).standard_normal((1, model.state_dim))
    count = 100_000
    tracemalloc.start()
    try:
        samples = sample_reachability(model, flat_bounds, y, count, seed=0, readout=ell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states_bytes = count * model.state_dim * 8
    assert samples.x.shape == (count, 1)
    assert peak < states_bytes / 8


def test_empty_set_detected():
    model, bounds = scalar_static()
    samples = sample_reachability(model, bounds, [10.0], 100, seed=0)
    assert samples.empty
    assert len(samples) == 0
    with pytest.raises(EmptySet):
        chebyshev_check(samples, [1.0], 0.0, 1.0)


def test_infinite_radius_never_violated():
    model, bounds = scalar_static()
    samples = sample_reachability(model, bounds, [1.0], 100, seed=0)
    report = chebyshev_check(samples, [1.0], 0.0, np.inf)
    assert report.violation_count == 0


def test_dimension_cap():
    n = 65
    model = StaticModel(F=np.eye(n), B=np.eye(n), H=np.eye(n))
    bounds = StaticEllipsoid(Q1=np.eye(n), Q2=np.eye(n))
    with pytest.raises(DimensionTooLarge):
        sample_reachability(model, bounds, np.zeros(n), 10, seed=0)


def test_quadratic_center_oracle_scalar():
    model, bounds = scalar_static()
    assert quadratic_center_oracle(model, bounds, [1.0]) == pytest.approx(
        [0.5], abs=1e-14
    )


def test_quadratic_center_oracle_matches_center():
    rng = rng_for(31)
    done = 0
    while done < 40:
        n = int(rng.integers(1, 4))
        m = n + int(rng.integers(0, 2))
        l = int(rng.integers(1, 4))
        model, bounds = make_static(rng, n=n, m=m, p=m, l=l)
        # square invertible B with a safe margin
        B = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        model = StaticModel(F=model.F, B=B, H=model.H)
        y = feasible_observation(rng, model, bounds)
        if y is None:
            continue
        try:
            center = quadratic_center_oracle(model, bounds, y)
        except SingularNormalEquations:
            continue
        out = aposteriori_estimate(model, bounds, np.zeros(n), y)
        assert np.linalg.norm(center - out.x_hat) <= 1e-8 * (
            1.0 + np.linalg.norm(center)
        )
        done += 1


def test_quadratic_center_oracle_rejects_singular_information():
    model = StaticModel(F=[[0.0]], B=[[1.0]], H=[[0.0]])
    bounds = StaticEllipsoid(Q1=[[1.0]], Q2=[[1.0]])
    with pytest.raises(SingularNormalEquations):
        quadratic_center_oracle(model, bounds, [0.0])
