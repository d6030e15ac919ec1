"""Command-line interface.

Subcommands::

    estimate   a priori or a posteriori estimation per the config mode
    filter     recursive filter over a discrete (or discretized) horizon
    riccati    continuous endpoint filter via the descriptor Riccati flow
    tikhonov   regularized approximation sweep with residual diagnostics
    simulate   draw an admissible disturbance, write trajectory CSVs
    validate   re-derive a produced estimate with the sampling oracle
    check      parse and validate the configuration, nothing else

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
from typing import Optional

import numpy as np

from .config import (
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
from .static import KIND_APOSTERIORI, apriori_estimate, aposteriori_estimate

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


def _finish(report: ResultReport, started: float) -> ResultReport:
    report.timings["seconds"] = time.perf_counter() - started
    return report


def _run_estimate(config, observations, grid) -> tuple:
    mode = config.estimation.mode
    started = time.perf_counter()
    if mode not in ("apriori", "aposteriori"):
        raise InvalidInput(
            f"estimate handles modes apriori/aposteriori; config says {mode!r}"
        )

    if config.kind == "static":
        ell = config.estimation.ell
        if mode == "apriori":
            rep = apriori_estimate(config.model, config.bounds, ell, y=observations)
            outputs = {"u_hat": rep.u_hat, "p": rep.p}
        else:
            if observations is None:
                raise InvalidInput("aposteriori estimation requires --observations")
            rep = aposteriori_estimate(config.model, config.bounds, ell, observations)
            outputs = {"x_hat": rep.x_hat, "u_hat": rep.u_hat}
        report = ResultReport(
            command="estimate",
            estimate=rep.estimate_value,
            sigma_hat=rep.sigma_hat,
            feasible=rep.feasible,
            outputs={k: v for k, v in outputs.items() if v is not None},
            diagnostics={
                "kind": config.kind,
                "mode": mode,
                "solver": solver_record("dense"),
            },
        )
        code = EXIT_OK if rep.feasible else EXIT_INFEASIBLE
        return _finish(report, started), code

    if config.kind == "discrete_dae":
        ell_seq = _ell_seq(config)
        if mode == "apriori":
            rep = apriori_horizon_estimate(
                config.model, config.bounds, ell_seq, observations
            )
            report = ResultReport(
                command="estimate",
                estimate=rep.estimate_value,
                sigma_hat=rep.sigma_hat,
                feasible=rep.feasible,
                outputs=(
                    {"u_hat": rep.u_hat_seq.reshape(-1)}
                    if rep.u_hat_seq is not None
                    else {}
                ),
                diagnostics={"kind": config.kind, "mode": mode, "solver": rep.solver},
            )
            return _finish(report, started), (
                EXIT_OK if rep.feasible else EXIT_INFEASIBLE
            )
        if observations is None:
            raise InvalidInput("aposteriori estimation requires --observations")
        rep = variational_estimate(config.model, config.bounds, ell_seq, observations)
        report = ResultReport(
            command="estimate",
            estimate=rep.estimate_value,
            sigma_hat=rep.sigma_hat,
            feasible=rep.feasible,
            outputs={"x_hat_seq": rep.x_hat_seq},
            diagnostics={"kind": config.kind, "mode": mode, "solver": rep.solver},
        )
        return _finish(report, started), (
            EXIT_OK if rep.feasible else EXIT_INFEASIBLE
        )

    # Continuous: integral functional, a priori only.
    if mode != "apriori":
        raise InvalidInput("continuous estimate supports mode apriori only")
    result = apriori_estimate_continuous(
        config.model,
        config.bounds,
        config.estimation.ell_fn,
        grid,
        y_samples=observations,
    )
    report = ResultReport(
        command="estimate",
        estimate=result.estimate_value,
        sigma_hat=result.sigma_hat,
        feasible=result.feasible,
        outputs=(
            {"u_hat_samples": result.u_hat_samples}
            if result.u_hat_samples is not None
            else {}
        ),
        diagnostics={
            "kind": config.kind,
            "mode": mode,
            "grid_steps": grid.steps,
            "solver": result.solver,
        },
    )
    return _finish(report, started), (
        EXIT_OK if result.feasible else EXIT_INFEASIBLE
    )


def _run_filter(config, observations, grid) -> tuple:
    started = time.perf_counter()
    if config.estimation.mode != "filter":
        raise InvalidInput("filter command needs estimation.mode == 'filter'")
    if observations is None:
        raise InvalidInput("filter requires --observations")
    if config.kind == "static":
        raise InvalidInput("filter needs a discrete or continuous model")
    if config.kind == "continuous_dae":
        dae, dbounds = discretize(config.model, config.bounds, grid)
    else:
        dae, dbounds = config.model, config.bounds
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
    return _finish(report, started), EXIT_OK


def _run_riccati(config, observations, grid) -> tuple:
    started = time.perf_counter()
    if config.estimation.mode != "riccati":
        raise InvalidInput("riccati command needs estimation.mode == 'riccati'")
    if config.kind != "continuous_dae":
        raise InvalidInput("riccati needs a continuous model")
    if observations is None:
        raise InvalidInput("riccati requires --observations")
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
        return _finish(report, started), EXIT_INFEASIBLE
    report = ResultReport(
        command="riccati",
        estimate=result.estimate_value,
        sigma_hat=result.sigma_hat,
        feasible=True,
        outputs={"K_final": result.K_final, "x_hat_final": result.x_hat_final},
        diagnostics={"kind": config.kind, "grid_steps": grid.steps},
    )
    return _finish(report, started), EXIT_OK


def _run_tikhonov(config, grid) -> tuple:
    started = time.perf_counter()
    if config.estimation.mode != "tikhonov":
        raise InvalidInput("tikhonov command needs estimation.mode == 'tikhonov'")
    if config.kind != "continuous_dae":
        raise InvalidInput("tikhonov needs a continuous model")
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
    return _finish(report, started), EXIT_OK


def _run_simulate(config, grid, seed, out_dir) -> tuple:
    started = time.perf_counter()
    if config.kind == "static":
        raise InvalidInput("simulate needs a discrete or continuous model")
    if out_dir is None:
        raise InvalidInput("simulate requires --output DIRECTORY")
    if config.kind == "continuous_dae":
        dae, dbounds = discretize(config.model, config.bounds, grid)
    else:
        dae, dbounds = config.model, config.bounds
    result = simulate_dae(
        dae, dbounds, disturbance=config.simulation.disturbance, seed=seed
    )
    os.makedirs(out_dir, exist_ok=True)
    states_path = os.path.join(out_dir, "states.csv")
    obs_path = os.path.join(out_dir, "observations.csv")
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
    return _finish(report, started), EXIT_OK


def _run_validate(config, observations, grid, samples, seed) -> tuple:
    """Recompute the estimate, then attack it with the sampling oracle."""
    started = time.perf_counter()
    if observations is None:
        raise InvalidInput("validate requires --observations")
    if config.kind == "static":
        if config.estimation.mode != "aposteriori":
            raise InvalidInput("validate covers aposteriori estimates")
        model, bounds = config.model, config.bounds
        ell = config.estimation.ell
        y = observations
        rep = aposteriori_estimate(model, bounds, ell, y)
        estimate, sigma = rep.estimate_value, rep.sigma_hat
        solver = solver_record("dense")
    elif config.kind == "discrete_dae":
        if config.estimation.mode != "aposteriori":
            raise InvalidInput("validate covers aposteriori estimates")
        ell_seq = _ell_seq(config)
        traj = variational_estimate(config.model, config.bounds, ell_seq, observations)
        estimate, sigma = traj.estimate_value, traj.sigma_hat
        solver = traj.solver
        model = flatten(config.model)
        bounds = flatten_bounds(config.model, config.bounds, KIND_APOSTERIORI)
        ell = stack_functional(config.model, ell_seq)
        y = stack_observations(config.model, observations)
    else:
        raise InvalidInput("validate covers static and discrete_dae problems")

    sample_set = sample_reachability(model, bounds, y, samples, seed)
    check = chebyshev_check(sample_set, ell, estimate, sigma)
    attained = (
        check.max_abs_deviation / sigma
        if sigma not in (None, 0.0) and math.isfinite(sigma)
        else None
    )
    report = ResultReport(
        command="validate",
        estimate=estimate,
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
            "solver": solver,
        },
    )
    code = EXIT_OK if check.violation_count == 0 else EXIT_ERROR
    return _finish(report, started), code


def run(
    command: str,
    config: ProblemConfig,
    observations=None,
    *,
    samples: int = _DEFAULT_VALIDATE_SAMPLES,
    seed: Optional[int] = None,
    grid_steps: Optional[int] = None,
    output_dir: Optional[str] = None,
) -> tuple:
    """Dispatch one command against a parsed config.

    Returns (ResultReport, exit_code). Raises EstimationError subclasses
    for invalid requests; the CLI entry point maps those to exit 1.
    """
    if seed is not None and seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
    grid = _effective_grid(config, grid_steps)
    seed = config.seed if seed is None else seed
    if command == "check":
        report = ResultReport(
            command="check",
            estimate=None,
            sigma_hat=None,
            feasible=True,
            diagnostics={"kind": config.kind, "mode": config.estimation.mode},
        )
        return report, EXIT_OK
    if command == "estimate":
        return _run_estimate(config, observations, grid)
    if command == "filter":
        return _run_filter(config, observations, grid)
    if command == "riccati":
        return _run_riccati(config, observations, grid)
    if command == "tikhonov":
        return _run_tikhonov(config, grid)
    if command == "simulate":
        return _run_simulate(config, grid, seed, output_dir)
    if command == "validate":
        return _run_validate(config, observations, grid, samples, seed)
    raise InvalidInput(f"unknown command {command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descriptor-minimax",
        description="Worst-case optimal estimation for linear descriptor systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "filter", "riccati", "tikhonov", "simulate", "validate", "check"):
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
            grid_steps=args.grid_steps,
            output_dir=args.output if args.command == "simulate" else None,
        )
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    text = report.to_json()
    if args.output and args.command != "simulate":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
