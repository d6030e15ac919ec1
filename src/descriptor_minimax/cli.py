"""Command-line interface.

Subcommands::

    estimate   a priori or a posteriori estimation per the config mode
    filter     recursive filter over a discrete (or discretized) horizon
    riccati    continuous endpoint filter via the descriptor Riccati flow
    tikhonov   regularized approximation sweep with residual diagnostics
    simulate   draw an admissible disturbance, write trajectory CSVs
    validate   re-derive a produced estimate with the sampling oracle
    check      parse and validate the configuration, and sample a
               continuous one on its grid; solve nothing

Which modes and problem kinds each command runs, and which need
--observations, is read from one table, COMMANDS.

Exit codes: 0 on success, 2 when the requested functional has infinite
worst-case error (a legitimate mathematical answer, not a crash), and 1
on any error, a command-line usage error included. Reports are JSON on
stdout, or written to --output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .config import (
    KINDS,
    MODES,
    ProblemConfig,
    ResultReport,
    parse_config,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .continuous import (
    TimeGrid,
    apriori_estimate_continuous,
    discretize,
    riccati_filter,
    tikhonov_approximate,
)
from .discrete import (
    apriori_horizon_estimate,
    flatten,
    flatten_bounds,
    solver_record,
    stack_functional,
    stack_observations,
    variational_estimate,
)
from .errors import EstimationError, InvalidInput, NotRepresentable
from .filtering import filter_run
from .oracle import chebyshev_check, sample_reachability
from .simulate import simulate as simulate_dae
from .static import apriori_estimate, aposteriori_estimate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

_DEFAULT_VALIDATE_SAMPLES = 100_000


def _load_observations(path, config: ProblemConfig, grid: Optional[TimeGrid]):
    data = read_trajectory_csv(path, prefix="y")
    l = config.model.observation_dim
    if data.shape[1] != l:
        raise InvalidInput(
            f"observations have {data.shape[1]} columns, model expects {l}"
        )
    if config.kind == "static":
        if data.shape[0] != 1:
            raise InvalidInput("static problems take exactly one observation row")
        return data[0]
    if config.kind == "discrete_dae":
        expected = config.model.horizon + 1
    else:
        expected = grid.steps + 1
    if data.shape[0] != expected:
        raise InvalidInput(
            f"observations have {data.shape[0]} rows, expected {expected}"
        )
    return data


def _ell_seq(config: ProblemConfig):
    """Per-step functional blocks for a discrete problem.

    A bare vector means the terminal functional (ell, x_N); earlier
    blocks are zero.
    """
    model = config.model
    if config.estimation.ell_seq is not None:
        return list(config.estimation.ell_seq)
    ell = config.estimation.ell
    seq = [np.zeros(model.state_dim) for _ in range(model.horizon + 1)]
    seq[-1] = ell
    return seq


def _effective_grid(config: ProblemConfig, grid_steps: Optional[int]) -> Optional[TimeGrid]:
    if config.grid is None:
        return None
    if grid_steps is None:
        return config.grid
    return TimeGrid(start=config.grid.start, end=config.grid.end, steps=grid_steps)


def _discrete(config: ProblemConfig, grid: Optional[TimeGrid]) -> tuple:
    """The model and bounds as a discrete chain; a continuous problem is
    discretized on ``grid``, which samples and checks every coefficient
    and weight at every node."""
    if config.kind == "continuous_dae":
        return discretize(config.model, config.bounds, grid)
    return config.model, config.bounds


def _estimate(config, observations, grid, **_) -> tuple:
    kind, mode = config.kind, config.estimation.mode
    diagnostics = {"kind": kind, "mode": mode}
    if kind == "static":
        if mode == "apriori":
            rep = apriori_estimate(
                config.model, config.bounds, config.estimation.ell, observations
            )
            outputs = {"u_hat": rep.u_hat, "p": rep.p}
        else:
            rep = aposteriori_estimate(
                config.model, config.bounds, config.estimation.ell, observations
            )
            outputs = {"x_hat": rep.x_hat, "u_hat": rep.u_hat}
        diagnostics["solver"] = solver_record("dense")
    elif kind == "discrete_dae":
        if mode == "apriori":
            rep = apriori_horizon_estimate(
                config.model, config.bounds, _ell_seq(config), observations
            )
            u_hat = rep.u_hat_seq
            outputs = {"u_hat": None if u_hat is None else u_hat.reshape(-1)}
        else:
            rep = variational_estimate(
                config.model, config.bounds, _ell_seq(config), observations
            )
            outputs = {"x_hat_seq": rep.x_hat_seq}
        diagnostics["solver"] = rep.solver
    else:  # continuous: integral functional, a priori only
        rep = apriori_estimate_continuous(
            config.model,
            config.bounds,
            config.estimation.ell_fn,
            grid,
            y_samples=observations,
        )
        outputs = {"u_hat_samples": rep.u_hat_samples}
        diagnostics.update(grid_steps=grid.steps, solver=rep.solver)
    report = ResultReport(
        command="estimate",
        estimate=rep.estimate_value,
        sigma_hat=rep.sigma_hat,
        feasible=rep.feasible,
        outputs={k: v for k, v in outputs.items() if v is not None},
        diagnostics=diagnostics,
    )
    return report, EXIT_OK if rep.feasible else EXIT_INFEASIBLE


def _filter(config, observations, grid, **_) -> tuple:
    dae, dbounds = _discrete(config, grid)
    ell = config.estimation.ell
    result = filter_run(dae, dbounds, observations, ell)
    radius_sq = float(ell @ (result.final.P @ ell))
    report = ResultReport(
        command="filter",
        estimate=result.estimate_value,
        sigma_hat=math.sqrt(max(radius_sq, 0.0)),
        feasible=True,
        outputs={
            "x_hat_final": result.final.x_hat,
            "x_hat_seq": result.x_hat_seq,
            "P_final": result.final.P,
        },
        diagnostics={"kind": config.kind, "steps": dae.horizon},
    )
    return report, EXIT_OK


def _riccati(config, observations, grid, **_) -> tuple:
    try:
        result = riccati_filter(
            config.model, config.bounds, config.estimation.ell, observations, grid
        )
    except NotRepresentable as exc:
        report = ResultReport(
            command="riccati",
            estimate=None,
            sigma_hat=math.inf,
            feasible=False,
            diagnostics={"reason": str(exc)},
        )
        return report, EXIT_INFEASIBLE
    report = ResultReport(
        command="riccati",
        estimate=result.estimate_value,
        sigma_hat=result.sigma_hat,
        feasible=True,
        outputs={"K_final": result.K_final, "x_hat_final": result.x_hat_final},
        diagnostics={"kind": config.kind, "grid_steps": grid.steps},
    )
    return report, EXIT_OK


def _tikhonov(config, observations, grid, **_) -> tuple:
    result = tikhonov_approximate(
        config.model,
        config.bounds,
        config.estimation.ell_fn,
        grid,
        config.estimation.alphas,
    )
    report = ResultReport(
        command="tikhonov",
        estimate=None,
        sigma_hat=None,
        feasible=True,
        outputs={
            "u_hat_samples": result.u_samples_seq[-1],
            "alphas": list(result.alphas),
        },
        diagnostics={
            "residual_seq": result.residual_seq,
            "cauchy_seq": result.cauchy_seq,
            "constraint_residual_seq": result.constraint_residual_seq,
            "grid_steps": grid.steps,
        },
    )
    return report, EXIT_OK


def _simulate(config, observations, grid, *, seed, output, **_) -> tuple:
    dae, dbounds = _discrete(config, grid)
    result = simulate_dae(
        dae, dbounds, disturbance=config.simulation.disturbance, seed=seed
    )
    os.makedirs(output, exist_ok=True)
    states_path = os.path.join(output, "states.csv")
    obs_path = os.path.join(output, "observations.csv")
    write_trajectory_csv(states_path, "x", result.states)
    write_trajectory_csv(obs_path, "y", result.observations)
    report = ResultReport(
        command="simulate",
        estimate=None,
        sigma_hat=None,
        feasible=True,
        outputs={"states": states_path, "observations": obs_path},
        diagnostics={
            "quad_form": result.quad_form,
            "disturbance": config.simulation.disturbance,
            "seed": seed,
            "steps": dae.horizon,
        },
    )
    return report, EXIT_OK


def _validate(config, observations, grid, *, samples, seed, **_) -> tuple:
    """Make the a posteriori estimate, then attack it with the sampling oracle."""
    if samples < 1:
        raise InvalidInput(f"--samples must be at least 1, got {samples}")
    center, _ = _estimate(config, observations, grid)
    if config.kind == "static":
        model, bounds = config.model, config.bounds
        ell, y = config.estimation.ell, observations
    else:
        model = flatten(config.model)
        bounds = flatten_bounds(config.model, config.bounds)
        ell = stack_functional(config.model, _ell_seq(config))
        y = stack_observations(config.model, observations)

    sigma = center.sigma_hat
    sample_set = sample_reachability(model, bounds, y, samples, seed)
    check = chebyshev_check(sample_set, ell, center.estimate, sigma)
    attained = (
        check.max_abs_deviation / sigma
        if sigma not in (None, 0.0) and math.isfinite(sigma)
        else None
    )
    report = ResultReport(
        command="validate",
        estimate=center.estimate,
        sigma_hat=sigma,
        feasible=True,
        diagnostics={
            "oracle": {
                "samples_checked": check.samples_checked,
                "violation_count": check.violation_count,
                "max_abs_deviation": check.max_abs_deviation,
                "attained_fraction": attained,
                "seed": seed,
            },
            "solver": center.diagnostics["solver"],
        },
    )
    return report, EXIT_OK if check.violation_count == 0 else EXIT_ERROR


def _check(config, observations, grid, **_) -> tuple:
    _discrete(config, grid)
    report = ResultReport(
        command="check",
        estimate=None,
        sigma_hat=None,
        feasible=True,
        diagnostics={"kind": config.kind, "mode": config.estimation.mode},
    )
    return report, EXIT_OK


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner and what it runs on.

    ``run(config, observations, grid, *, seed, samples, output)`` returns
    (ResultReport, exit code). The command accepts a config only when
    its mode is in ``modes`` and its kind in ``kinds``; ``--observations``
    is required in the modes listed in ``observations``. With
    ``output_dir`` the command needs ``--output`` and writes files into
    that directory; otherwise ``--output`` names the report file.
    """

    run: Callable[..., tuple]
    modes: Tuple[str, ...]
    kinds: Tuple[str, ...] = KINDS
    observations: Tuple[str, ...] = ()
    output_dir: bool = False


# The one table of which estimate each command runs (README "CLI").
_DYNAMIC = ("discrete_dae", "continuous_dae")
COMMANDS = {
    "estimate": Command(
        _estimate, ("apriori", "aposteriori"), observations=("aposteriori",)
    ),
    "filter": Command(_filter, ("filter",), _DYNAMIC, observations=("filter",)),
    "riccati": Command(
        _riccati, ("riccati",), ("continuous_dae",), observations=("riccati",)
    ),
    "tikhonov": Command(_tikhonov, ("tikhonov",), ("continuous_dae",)),
    "simulate": Command(_simulate, MODES, _DYNAMIC, output_dir=True),
    "validate": Command(
        _validate,
        ("aposteriori",),
        ("static", "discrete_dae"),
        observations=("aposteriori",),
    ),
    "check": Command(_check, MODES),
}


def run(
    command: str,
    config: ProblemConfig,
    observations=None,
    *,
    samples: int = _DEFAULT_VALIDATE_SAMPLES,
    seed: Optional[int] = None,
    grid: Optional[TimeGrid] = None,
    output_dir: Optional[str] = None,
) -> tuple:
    """Dispatch one command against a parsed config.

    ``grid`` replaces the config's grid for a continuous problem.
    Returns (ResultReport, exit_code) with the command's wall time in
    ``timings["seconds"]``. Raises EstimationError subclasses for
    invalid requests; the CLI entry point maps those to exit 1.
    """
    spec = COMMANDS.get(command)
    if spec is None:
        raise InvalidInput(f"unknown command {command!r}")
    if seed is not None and seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
    kind, mode = config.kind, config.estimation.mode
    if mode not in spec.modes or kind not in spec.kinds:
        raise InvalidInput(
            f"{command} runs modes {', '.join(spec.modes)} on kinds "
            f"{', '.join(spec.kinds)}; the config has mode {mode!r} and kind {kind!r}"
        )
    if observations is None and mode in spec.observations:
        raise InvalidInput(f"{command} in mode {mode} requires --observations")
    if spec.output_dir and output_dir is None:
        raise InvalidInput(f"{command} requires --output DIRECTORY")
    started = time.perf_counter()
    report, code = spec.run(
        config,
        observations,
        config.grid if grid is None else grid,
        seed=config.seed if seed is None else seed,
        samples=samples,
        output=output_dir,
    )
    report.timings["seconds"] = time.perf_counter() - started
    return report, code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descriptor-minimax",
        description="Worst-case optimal estimation for linear descriptor systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="problem description (JSON)")
        p.add_argument("--observations", help="trajectory CSV with y columns")
        p.add_argument("--output", help="report file, or directory for simulate")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--samples",
            type=int,
            default=_DEFAULT_VALIDATE_SAMPLES,
            help="oracle sample count for validate",
        )
        p.add_argument(
            "--grid-steps", type=int, default=None, help="override grid steps"
        )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means an infinite radius here
        return EXIT_ERROR if exc.code else EXIT_OK  # EXIT_OK after --help
    output_dir = COMMANDS[args.command].output_dir
    try:
        config = parse_config(args.config)
        grid = _effective_grid(config, args.grid_steps)
        observations = (
            _load_observations(args.observations, config, grid)
            if args.observations
            else None
        )
        report, code = run(
            args.command,
            config,
            observations,
            samples=args.samples,
            seed=args.seed,
            grid=grid,
            output_dir=args.output if output_dir else None,
        )
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    text = report.to_json()
    if args.output and not output_dir:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
