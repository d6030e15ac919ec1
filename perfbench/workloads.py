"""The benchmark's workloads: requests, their inputs and their checks.

Each workload sends a fixed number of rounds (``ROUNDS``) of the same
request slots. A slot is one request class at one size; every round
draws a fresh instance for it, so no answer can be reused from an
earlier round. A slot's latency is the median over its rounds. The
slot count, and with it the percentile behind ``latency_tail_s``
(``TAIL_PERCENTILE``), does not depend on how fast the program is.
A request is one ``descriptor_minimax.cli.main`` call on files on disk.
Each request carries a check that compares what the call returned with an
answer computed independently in :mod:`reference`; checks run after
the timed loop.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import instances as inst
import reference as ref
from descriptor_minimax import cli


class Mismatch(Exception):
    """A request's answer disagrees with the independent reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def close(got, want, rtol=1e-6, what="value") -> None:
    ok = isinstance(got, (int, float)) and abs(got - want) <= rtol * max(abs(got), abs(want)) + 1e-12
    expect(ok, f"{what} {got!r} differs from reference {want!r}")


@dataclass
class Request:
    cls: str                               # request class, used for warm-up and medians
    call: Callable[[], tuple]              # returns (exit code, stdout, stderr, report)
    check: Callable[[tuple], None]         # raises on a wrong answer
    size: Optional[int] = None             # N on the n=2 one-shot ladder
    slot: int = 0                          # position in the round, the same in every round


def slotted(reqs):
    """Number the requests of a round and put them in a fixed shuffled order.

    The order spreads each class over the round and is the same in every
    round, so the rounds of one slot are a round's length apart.
    """
    for i, request in enumerate(reqs):
        request.slot = i
    return [reqs[i] for i in np.random.default_rng(0).permutation(len(reqs))]


def main_request(cls, argv, check, size=None, report_path=None) -> Request:
    """A ``cli.main`` call with stdout and stderr captured."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), None

    def checked(outcome):
        code, out, err, _ = outcome
        if report_path is not None and os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                out = fh.read()
        check(code, out, err)

    return Request(cls, call, checked, size)


def _report(code, text, expected_code=0) -> dict:
    expect(code == expected_code, f"exit code {code}, expected {expected_code}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# Discrete requests


def _verify_estimate(rep, c, y, ell):
    want = ref.Information(c).posterior(y, ref.terminal(c, ell))
    close(rep["estimate"], want["estimate"], what="estimate")
    close(rep["sigma_hat"], want["radius"], what="radius")


def _verify_filter(rep, c, y, ell):
    """Attained radius <= reported radius <= a priori radius."""
    want = ref.Information(c).posterior(y, ref.terminal(c, ell))
    close(rep["estimate"], want["estimate"], what="estimate")
    sigma = rep["sigma_hat"]
    expect(
        want["radius"] * (1 - 1e-9) <= sigma <= want["prior_radius"] * (1 + 1e-9),
        f"radius {sigma!r} outside [{want['radius']!r}, {want['prior_radius']!r}]",
    )


def _report_check(verify, *args):
    def check(code, text, err):
        verify(_report(code, text), *args)

    return check


def _chain_files(d, tag, c, y, mode, ell):
    config = inst.write_json(os.path.join(d, f"{tag}.json"), inst.chain_doc(c, mode, ell=ell))
    obs = inst.write_csv(os.path.join(d, f"{tag}-y.csv"), "y", y)
    return config, obs


def estimate_request(rng, d, tag, N, n=2, descriptor=False) -> Request:
    c = inst.chain(rng, N, n=n, descriptor=descriptor)
    _, y = inst.trajectory(rng, c, rng.uniform(0.2, 0.8))
    ell = rng.standard_normal(n)
    config, obs = _chain_files(d, tag, c, y, "aposteriori", ell)
    out = os.path.join(d, f"{tag}-report.json")
    argv = ["estimate", "--config", config, "--observations", obs, "--output", out]
    kind = "descriptor" if descriptor else "regular"
    return main_request(
        f"estimate-{kind}-n{n}-N{N}",
        argv,
        _report_check(_verify_estimate, c, y, ell),
        size=N if n == 2 else None,
        report_path=out,
    )


def filter_request(rng, d, tag, N, n=2, invariant=False) -> Request:
    c = inst.chain(rng, N, n=n, invariant=invariant)
    _, y = inst.trajectory(rng, c, rng.uniform(0.2, 0.8))
    ell = rng.standard_normal(n)
    config, obs = _chain_files(d, tag, c, y, "filter", ell)
    out = os.path.join(d, f"{tag}-report.json")
    argv = ["filter", "--config", config, "--observations", obs, "--output", out]
    return main_request(
        f"filter-n{n}-N{N}", argv, _report_check(_verify_filter, c, y, ell), report_path=out
    )


def nonrepresentable_request(rng, d, tag, N=50) -> Request:
    c, v = inst.unobservable_terminal(rng, N)
    _, y = inst.trajectory(rng, c, 0.5)
    config, obs = _chain_files(d, tag, c, y, "aposteriori", v)
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text, expected_code=2)
        expect(rep["sigma_hat"] == "infinite" and rep["feasible"] is False, "finite radius reported")

    argv = ["estimate", "--config", config, "--observations", obs, "--output", out]
    return main_request("estimate-nonrepresentable", argv, check, report_path=out)


def inconsistent_request(rng, d, tag, N=50) -> Request:
    """Observations scaled until the least energy explaining them is 4."""
    c = inst.chain(rng, N)
    _, y = inst.trajectory(rng, c, 0.5)
    ell = rng.standard_normal(2)
    energy = ref.Information(c).posterior(y, ref.terminal(c, ell))["energy"]
    y = y * math.sqrt(4.0 / energy)
    config, obs = _chain_files(d, tag, c, y, "aposteriori", ell)

    def check(code, text, err):
        expect(code == 1, f"exit code {code}, expected 1")
        expect(err.startswith("error:"), f"stderr {err[:80]!r}")

    argv = ["estimate", "--config", config, "--observations", obs]
    return main_request("estimate-inconsistent", argv, check)


def validate_request(rng, d, tag, N=31, samples=100_000) -> Request:
    """Oracle attack on a flattened state of 2 (N+1) <= 64 dimensions."""
    c = inst.chain(rng, N)
    _, y = inst.trajectory(rng, c, rng.uniform(0.2, 0.8))
    ell = rng.standard_normal(2)
    config, obs = _chain_files(d, tag, c, y, "aposteriori", ell)
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text)
        oracle = rep["diagnostics"]["oracle"]
        expect(oracle["samples_checked"] == samples, "sample count")
        expect(oracle["violation_count"] == 0, f"{oracle['violation_count']} violations")
        _verify_estimate(rep, c, y, ell)

    argv = ["validate", "--config", config, "--observations", obs,
            "--samples", str(samples), "--seed", str(int(rng.integers(2**31))), "--output", out]
    return main_request("validate", argv, check, report_path=out)


def simulate_request(rng, d, tag, N) -> Request:
    """Boundary draw; the energy is recomputed from the written CSVs."""
    c = inst.chain(rng, N)
    doc = inst.chain_doc(c, "filter", ell=np.ones(2))
    doc["simulation"] = {"disturbance": "boundary"}
    config = inst.write_json(os.path.join(d, f"{tag}.json"), doc)
    out = os.path.join(d, f"{tag}-out")

    def check(code, text, err):
        rep = _report(code, text)
        x = inst.read_csv(os.path.join(out, "states.csv"))
        y = inst.read_csv(os.path.join(out, "observations.csv"))
        expect(x.shape == (N + 1, 2) and y.shape == (N + 1, 2), "trajectory shape")
        f = np.einsum("kij,kj->ki", c.F[1:], x[1:]) - np.einsum("kij,kj->ki", c.C, x[:-1])
        g = y - np.einsum("kij,kj->ki", c.H, x)
        x0g = c.F[0] @ x[0]
        energy = float(
            x0g @ c.Q0 @ x0g
            + np.einsum("ki,kij,kj->", f, c.Q1, f)
            + np.einsum("ki,kij,kj->", g, c.Q2, g)
        )
        close(rep["diagnostics"]["quad_form"], energy, what="reported energy")
        close(energy, 1.0, what="boundary energy")

    argv = ["simulate", "--config", config, "--output", out, "--seed", str(int(rng.integers(2**31)))]
    return main_request("simulate", argv, check)


# ---------------------------------------------------------------------------
# Continuous requests


def scalar_apriori_request(rng, d, tag, M) -> Request:
    """Closed-form limit within the first-order grid error a^2 / (q M)."""
    q, a = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    problem = inst.scalar_continuous(q0=q, q=q)
    config = inst.write_json(os.path.join(d, f"{tag}.json"), problem.doc("apriori", [a], M))
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text)
        limit = a * a / q * ref.SCALAR_APRIORI_LIMIT
        expect(abs(rep["sigma_hat"] - limit) <= a * a / (q * M), "off the closed-form limit")
        close(rep["sigma_hat"], ref.continuous_apriori(problem, [a], M)[0], 1e-8, "radius")

    argv = ["estimate", "--config", config, "--output", out]
    return main_request(f"apriori-scalar-M{M}", argv, check, report_path=out)


def singular_apriori_request(rng, d, tag, M) -> Request:
    problem = inst.singular_continuous(rng)
    ell = rng.standard_normal(2)
    config = inst.write_json(os.path.join(d, f"{tag}.json"), problem.doc("apriori", ell, M))
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text)
        close(rep["sigma_hat"], ref.continuous_apriori(problem, ell, M)[0], 1e-8, "radius")

    argv = ["estimate", "--config", config, "--output", out]
    return main_request(f"apriori-singular-M{M}", argv, check, report_path=out)


def tikhonov_request(rng, d, tag, M, alphas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5)) -> Request:
    """Residuals must decay and the last readout sit O(alpha) from the limit."""
    q = rng.uniform(0.5, 2.0)
    problem = inst.scalar_continuous(q0=q, q=q)
    doc = problem.doc("tikhonov", [1.0], M, alphas=alphas)
    config = inst.write_json(os.path.join(d, f"{tag}.json"), doc)
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text)
        residual = rep["diagnostics"]["residual_seq"]
        expect(all(b < a for a, b in zip(residual, residual[1:])), "residuals do not decay")
        u = ref.continuous_apriori(problem, [1.0], M)[1]
        gap = float(np.max(np.abs(np.asarray(rep["outputs"]["u_hat_samples"]) - u)))
        expect(gap <= 10 * alphas[-1] * (1 + np.max(np.abs(u))), f"readout gap {gap:.3e}")

    argv = ["tikhonov", "--config", config, "--output", out]
    return main_request(f"tikhonov-M{M}", argv, check, report_path=out)


def riccati_request(rng, d, tag, M, singular=False) -> Request:
    """Scalar: the tanh gain within a^2 / M. Singular 2-D: a finite answer.

    The singular case has no independent value to meet: at M = 2048 its
    radius sits about 2% above the terminal radius of the implicit-Euler
    chain, and the gap does not close as M grows, so that chain is no
    reference for it.
    """
    if singular:
        problem = inst.singular_continuous(rng)
        ell, a, q0 = [1.0, 0.0], None, None
    else:
        q0, a = rng.uniform(1.5, 6.0), rng.uniform(0.5, 2.0)
        problem = inst.scalar_continuous(q0=q0)
        ell = [a]
    y = 0.05 * rng.standard_normal((M + 1, problem.H.shape[0]))
    config = inst.write_json(os.path.join(d, f"{tag}.json"), problem.doc("riccati", ell, M))
    obs = inst.write_csv(os.path.join(d, f"{tag}-y.csv"), "y", y)
    out = os.path.join(d, f"{tag}-report.json")

    def check(code, text, err):
        rep = _report(code, text)
        sigma = rep["sigma_hat"]
        expect(isinstance(sigma, float) and math.isfinite(sigma) and sigma >= 0, "radius")
        expect(math.isfinite(rep["estimate"]), "estimate")
        if not singular:
            exact = a * a * ref.tanh_gain(q0)
            expect(abs(sigma - exact) <= a * a / M, f"radius {sigma!r} off tanh gain {exact!r}")

    argv = ["riccati", "--config", config, "--observations", obs, "--output", out]
    kind = "singular" if singular else "scalar"
    return main_request(f"riccati-{kind}-M{M}", argv, check, report_path=out)


# ---------------------------------------------------------------------------
# Workloads


class OneshotLadder:
    """Dense one-shot solves over a horizon ladder, plus the special cases.

    Seven faster slots (N=50 chains, the special cases, tikhonov) and
    seven slower ones around eight N=100 chains put the median and the
    tail rank inside the N=100 group. Each ladder slot
    alternates between a regular and a descriptor chain from round to
    round, so both kinds run at every N, N=400 included, at the cost of
    one N=400 solve per round.
    """

    name = "oneshot_ladder"
    ROUNDS = 2
    TAIL_PERCENTILE = 54.5  # rank n-11 of 22 slots
    # (N, slots) per round
    LADDER = ((50, 4), (100, 8), (200, 2), (400, 1))

    def warmup(self, rng, d):
        return self._requests(rng, d, "w", 0, ((50, 2),), n8=25, M=(64, 32, 32), samples=1000)

    def round_requests(self, rng, d, tag, index):
        return slotted(
            self._requests(rng, d, tag, index, self.LADDER, n8=50, M=(1024, 256, 128), samples=100_000)
        )

    def _requests(self, rng, d, tag, index, ladder, n8, M, samples):
        reqs = []
        for N, slots in ladder:
            for i in range(slots):
                descriptor = (i + index) % 2 == 1
                reqs.append(estimate_request(rng, d, f"{tag}-e{N}-{i}", N, descriptor=descriptor))
        reqs.append(estimate_request(rng, d, f"{tag}-n8", n8, n=8))
        reqs.append(nonrepresentable_request(rng, d, f"{tag}-nonrep"))
        reqs.append(inconsistent_request(rng, d, f"{tag}-incons"))
        reqs.append(scalar_apriori_request(rng, d, f"{tag}-cs", M[0]))
        reqs.append(singular_apriori_request(rng, d, f"{tag}-c2", M[1]))
        reqs.append(tikhonov_request(rng, d, f"{tag}-tik", M[2]))
        reqs.append(validate_request(rng, d, f"{tag}-val", samples=samples))
        return reqs


class RecursiveLong:
    """Long horizons through the recursive filter, Riccati flow and simulator.

    One slot per request class and a second 2-D Riccati slot, so the
    median is the mean of two slots (the n=32 filter and the scalar
    Riccati run) rather than one. With six slots no percentile has ten
    requests beyond it, so ``latency_tail_s`` is the slowest slot, the
    N=10^4 filter.
    """

    name = "recursive_long"
    ROUNDS = 4
    TAIL_PERCENTILE = 100.0  # the slowest of 6 slots

    def warmup(self, rng, d):
        return self._requests(rng, d, "w", N=100, N32=20, M=(64, 32))

    def round_requests(self, rng, d, tag, index):
        return slotted(self._requests(rng, d, tag, N=10_000, N32=1000, M=(4096, 2048)))

    def _requests(self, rng, d, tag, N, N32, M):
        """Simulate and filter at N, n=32 filter, scalar and twice 2-D Riccati."""
        return [
            simulate_request(rng, d, f"{tag}-sim", N),
            filter_request(rng, d, f"{tag}-f", N),
            filter_request(rng, d, f"{tag}-f32", N32, n=32, invariant=True),
            riccati_request(rng, d, f"{tag}-rs", M[0]),
            riccati_request(rng, d, f"{tag}-r2", M[1], singular=True),
            riccati_request(rng, d, f"{tag}-r2b", M[1], singular=True),
        ]


WORKLOADS = {w.name: w for w in (OneshotLadder, RecursiveLong)}
