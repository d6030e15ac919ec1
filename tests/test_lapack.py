"""The LAPACK shim and the helpers written on its raw wrappers.

``descriptor_minimax._lapack`` loads scipy's ``_flapack`` extension from
its file, or falls back to ``scipy.linalg.lapack`` when the file is not
there. Either way the answers of every LAPACK-backed path on a seeded
ensemble must be the same, bit for bit; a probe in fresh interpreters
checks that, forcing the fallback by pointing the shim's finder at a
folder without the extension.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from descriptor_minimax import _lapack
from descriptor_minimax.linalg import solve_triangular, spd_solve


# Prints the route the shim took and the ensemble's digest. The package is
# imported first: conftest, which the ensemble draws from, imports
# scipy.linalg, and the shim takes an imported scipy.linalg's extension.
_PROBE = """
import importlib.machinery, importlib.util, os, sys, tempfile
if sys.argv[1] == "fallback":  # the shim's finder names a folder without the extension
    find_spec, empty = importlib.util.find_spec, tempfile.mkdtemp()
    def finder(name, package=None):
        if name != "scipy":
            return find_spec(name, package)
        return importlib.machinery.ModuleSpec(
            "scipy", None, origin=os.path.join(empty, "scipy", "__init__.py"))
    importlib.util.find_spec = finder
from descriptor_minimax import _lapack
sys.path.insert(0, sys.argv[2])
from test_lapack import _ensemble_digest
print(_lapack.lapack.__name__, _ensemble_digest())
"""


def _ensemble_digest() -> str:
    """sha256 of the answers of filter_run (sweep, corrected sweep and QR
    steps), variational_estimate, riccati_filter, simulate and spd_solve
    on seeded problems."""
    from descriptor_minimax import (
        ContinuousDAE,
        ContinuousEllipsoid,
        DiscreteDAE,
        TimeGrid,
        discretize,
        filter_run,
        riccati_filter,
        simulate,
        variational_estimate,
    )

    from conftest import make_discrete, random_spd, within_bound

    digest = hashlib.sha256()

    def add(*values):
        for value in values:
            if value is not None:
                digest.update(np.asarray(value, dtype=float).tobytes())

    def add_estimate(result):
        add(result.estimate, result.radius, *result.outputs.values())

    rng = np.random.default_rng(41)
    for N in (4, 40):
        dae, bounds = make_discrete(rng, N=N)
        y = within_bound(rng.standard_normal((N + 1, 2)), bounds)
        ell = rng.standard_normal(2)
        add_estimate(filter_run(dae, bounds, y, ell))
        add_estimate(variational_estimate(dae, bounds, rng.standard_normal((N + 1, 2)), y))
        sim = simulate(dae, bounds, seed=N)
        add(sim.states, sim.observations, sim.initial_data, sim.process, sim.noise)
        # cond(B_k) = 1e5 keeps the filter off the sweep: the QR steps answer
        stiff = DiscreteDAE(
            F_seq=dae.F_seq,
            C_seq=dae.C_seq,
            B_seq=np.broadcast_to(np.diag([1.0, 1e-5]), (N, 2, 2)),
            S=dae.S,
            H_seq=dae.H_seq,
        )
        run = filter_run(stiff, bounds, y, ell)
        assert run.solver["path"] == "recursive"
        add_estimate(run)
    # the unit scalar problem on 1024 steps ends the sweep in a corrected step
    system = ContinuousDAE(F=[[1.0]], C=[[0.0]], H=[[1.0]], t_start=0.0, t_end=1.0)
    weights = ContinuousEllipsoid(Q0=np.eye(1), Q1=np.eye(1), Q2=np.eye(1))
    for steps in (256, 1024):
        grid = TimeGrid(0.0, 1.0, steps)
        y = 0.3 * np.sin(3.0 * grid.nodes())[:, None]
        add_estimate(riccati_filter(system, weights, [1.0], y, grid))
    run = filter_run(*discretize(system, weights, grid), y, [1.0])
    assert run.solver["correction"] is not None
    add_estimate(run)
    for n in (1, 3, 8):
        add(spd_solve(random_spd(rng, n), rng.standard_normal((n, 2))))
    return digest.hexdigest()


def _run_probe(route: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, route, os.path.dirname(__file__)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_fallback_gives_the_direct_route_answers_bit_for_bit():
    direct = _run_probe("direct")
    fallback = _run_probe("fallback")
    assert direct[0] == "scipy.linalg._flapack"
    assert fallback[0] == "scipy.linalg.lapack"
    assert direct[1] == fallback[1]


def test_the_shim_takes_the_module_of_an_imported_scipy_linalg():
    # scipy.linalg is imported here: loading again must neither add a second
    # copy of the extension nor take scipy's own entry out of sys.modules
    module = sys.modules["scipy.linalg._flapack"]
    assert _lapack._load() is module
    assert sys.modules["scipy.linalg._flapack"] is module
    assert _lapack.lapack.dpotrf is scipy.linalg.lapack.dpotrf


def test_spd_solve_keeps_the_errors_of_cho_factor():
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2))
    with pytest.raises(ValueError):
        spd_solve(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        spd_solve(np.eye(2), np.array([1.0, np.inf]))


def test_spd_solve_is_cho_factor_and_cho_solve_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        root = rng.standard_normal((n, n))
        q = root @ root.T + n * np.eye(n)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(0.5 * (q + q.T)), b)
            got = spd_solve(q, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_solve_triangular_raises_on_a_zero_pivot():
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_triangular(a, np.ones((3, 1)))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("lower", [False, True])
def test_solve_triangular_is_scipys_bit_for_bit(order, trans, lower):
    rng = np.random.default_rng([7, trans, lower])
    for n in (1, 2, 5, 16):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        a = np.asarray(np.tril(a) if lower else np.triu(a), order=order)
        for b in (rng.standard_normal((n, 1)), rng.standard_normal((n, n + 1))):
            want = scipy.linalg.solve_triangular(a, b, trans=trans, lower=lower)
            got = solve_triangular(a, b, trans=trans, lower=lower)
            assert got.tobytes() == want.tobytes()

