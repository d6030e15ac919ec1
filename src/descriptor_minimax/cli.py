"""Command-line interface.

Commands::

    estimate   a priori or a posteriori estimation per the config mode
    filter     recursive filter over a discrete (or discretized) horizon
    riccati    continuous endpoint filter: the chain filter on the grid and
               on every other node, extrapolated
    tikhonov   regularized approximation sweep with residual diagnostics
    simulate   draw an admissible disturbance, write trajectory CSVs
    validate   re-derive a produced estimate with the sampling oracle
    check      parse and validate the configuration, and sample a
               continuous one on its grid; solve nothing

One parser reads every command line: the command and six options, in
any order. Which modes and problem kinds each command runs, and which
need --observations, is read from one table, COMMANDS. The estimator
that reads the observations checks their count and length.

Exit codes, chosen in run() from the report alone: 0 when it is
feasible, 2 when it is not, which means the requested functional has
infinite worst-case error (a legitimate mathematical answer, not a
crash), and 1 on any error, a command-line usage error and a file that
cannot be written included. Reports are one line of JSON on stdout, or
written to --output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .config import (
    KINDS,
    MODES,
    ProblemConfig,
    ResultReport,
    estimate_report,
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
    stack_functional,
    stack_observations,
    variational_estimate,
)
from .errors import EstimationError, InvalidInput, SolveFailure
from .filtering import filter_run
from .oracle import chebyshev_check, sample_reachability
from .simulate import simulate as simulate_dae
from .static import apriori_estimate, aposteriori_estimate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

_DEFAULT_VALIDATE_SAMPLES = 100_000


def _load_observations(path, config: ProblemConfig):
    """The rows of an observation CSV, or a static problem's one row.

    The estimator that reads the rows checks their count and length.
    """
    data = read_trajectory_csv(path, prefix="y")
    if config.kind != "static":
        return data
    if data.shape[0] != 1:
        raise InvalidInput("static problems take exactly one observation row")
    return data[0]


def _effective_grid(config: ProblemConfig, grid_steps: Optional[int]) -> Optional[TimeGrid]:
    if grid_steps is None:
        return config.grid
    if config.grid is None:
        raise InvalidInput(
            f"--grid-steps applies to continuous_dae problems; the config is {config.kind}"
        )
    return TimeGrid(start=config.grid.start, end=config.grid.end, steps=grid_steps)


def _discrete(config: ProblemConfig, grid: Optional[TimeGrid]) -> tuple:
    """The model and bounds as a discrete chain; a continuous problem is
    discretized on ``grid``, which samples and checks every coefficient
    and weight at every node."""
    if config.kind == "continuous_dae":
        return discretize(config.model, config.bounds, grid)
    return config.model, config.bounds


def _estimated(command, config, observations, grid) -> tuple:
    """Run the estimator that ``command`` makes for the config's kind and
    mode; return its Estimate and the report's diagnostics besides the
    solver record.

    The estimators are read as module globals at call time, so a wrapper
    installed on this module (as perfbench's tracer does) sees each call.
    """
    kind, mode, ell = config.kind, config.estimation.mode, config.estimation.ell
    model, bounds = config.model, config.bounds
    if command == "filter":
        dae, dbounds = _discrete(config, grid)
        result = filter_run(dae, dbounds, observations, ell)
        return result, {"kind": kind, "steps": dae.horizon}
    if command == "riccati":
        result = riccati_filter(model, bounds, ell, observations, grid)
        return result, {"kind": kind, "grid_steps": grid.steps}
    diagnostics = {"kind": kind, "mode": mode}
    if kind == "static":
        solve = apriori_estimate if mode == "apriori" else aposteriori_estimate
        result = solve(model, bounds, ell, observations)
    elif kind == "discrete_dae":
        solve = apriori_horizon_estimate if mode == "apriori" else variational_estimate
        result = solve(model, bounds, ell, observations)
    else:  # continuous: integral functional, a priori only
        result = apriori_estimate_continuous(model, bounds, ell, grid, y_samples=observations)
        diagnostics["grid_steps"] = grid.steps
    return result, diagnostics


def _estimate(config, observations, grid, *, command, **_) -> ResultReport:
    """The report of ``estimate``, ``filter`` or ``riccati``."""
    result, diagnostics = _estimated(command, config, observations, grid)
    return estimate_report(command, result, diagnostics)


def _tikhonov(config, observations, grid, **_) -> ResultReport:
    result = tikhonov_approximate(
        config.model,
        config.bounds,
        config.estimation.ell,
        grid,
        config.estimation.alphas,
    )
    return ResultReport(
        command="tikhonov",
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


def _simulate(config, observations, grid, *, seed, output, **_) -> ResultReport:
    dae, dbounds = _discrete(config, grid)
    result = simulate_dae(dae, dbounds, disturbance=config.disturbance, seed=seed)
    os.makedirs(output, exist_ok=True)
    states_path = os.path.join(output, "states.csv")
    obs_path = os.path.join(output, "observations.csv")
    write_trajectory_csv(states_path, "x", result.states)
    write_trajectory_csv(obs_path, "y", result.observations)
    return ResultReport(
        command="simulate",
        outputs={"states": states_path, "observations": obs_path},
        diagnostics={
            "quad_form": result.quad_form,
            "disturbance": config.disturbance,
            "seed": seed,
            "steps": dae.horizon,
        },
    )


def _validate(config, observations, grid, *, samples, seed, **_) -> ResultReport:
    """Make the a posteriori estimate, then attack it with the sampling
    oracle; a sampled state beyond the reported radius is a SolveFailure.
    An infinite radius cannot be broken, so it is reported (exit 2) with
    ``"oracle": null`` and no draws."""
    if samples is None:
        samples = _DEFAULT_VALIDATE_SAMPLES
    if samples < 1:
        raise InvalidInput(f"--samples must be at least 1, got {samples}")
    center, _ = _estimated("estimate", config, observations, grid)
    diagnostics = {"oracle": None}
    if center.feasible:
        diagnostics["oracle"] = _attack(config, observations, center, samples, seed)
    return estimate_report("validate", replace(center, outputs={}), diagnostics)


def _attack(config, observations, center, samples, seed) -> dict:
    """Sample ``(ell, x)`` over the consistent states, projecting each
    chunk onto ell before the lift, and check it against the radius."""
    if config.kind == "static":
        model, bounds = config.model, config.bounds
        ell, y = config.estimation.ell, observations
    else:
        model = flatten(config.model)
        bounds = flatten_bounds(config.model, config.bounds)
        ell = stack_functional(config.model, config.estimation.ell)
        y = stack_observations(config.model, observations)

    radius = center.radius
    sample_set = sample_reachability(
        model, bounds, y, samples, seed, readout=ell[None, :]
    )
    check = chebyshev_check(sample_set, [1.0], center.estimate, radius)
    if check.violation_count:
        raise SolveFailure(
            f"{check.violation_count} of {check.samples_checked} sampled states "
            f"violate the reported radius {radius:.6g}; the largest deviation is "
            f"{check.max_abs_deviation:.6g}"
        )
    return {
        "samples_checked": check.samples_checked,
        "violation_count": check.violation_count,
        "max_abs_deviation": check.max_abs_deviation,
        "attained_fraction": check.max_abs_deviation / radius if radius else None,
        "seed": seed,
    }


def _check(config, observations, grid, **_) -> ResultReport:
    _discrete(config, grid)
    return ResultReport(
        command="check",
        diagnostics={"kind": config.kind, "mode": config.estimation.mode},
    )


@dataclass(frozen=True)
class Command:
    """One command: its runner and what it runs on.

    ``run(config, observations, grid, *, command, seed, samples, output)``
    returns the ResultReport only; :func:`run` reads the exit code from its
    ``feasible``. The command accepts a config only when its mode is in
    ``modes`` and its kind in ``kinds``; ``--observations`` is required
    in the modes listed in ``observations``. With
    ``output_dir`` the command needs ``--output`` and writes files into
    that directory; otherwise ``--output`` names the report file.
    ``options`` lists which of ``seed`` and ``samples`` the command
    reads; it refuses the others.
    """

    run: Callable[..., ResultReport]
    modes: Tuple[str, ...]
    kinds: Tuple[str, ...] = KINDS
    observations: Tuple[str, ...] = ()
    output_dir: bool = False
    options: Tuple[str, ...] = ()


# The one table of which estimate each command runs (README "CLI").
_DYNAMIC = ("discrete_dae", "continuous_dae")
COMMANDS = {
    "estimate": Command(
        _estimate, ("apriori", "aposteriori"), observations=("aposteriori",)
    ),
    "filter": Command(_estimate, ("filter",), _DYNAMIC, observations=("filter",)),
    "riccati": Command(
        _estimate, ("riccati",), ("continuous_dae",), observations=("riccati",)
    ),
    "tikhonov": Command(_tikhonov, ("tikhonov",), ("continuous_dae",)),
    "simulate": Command(_simulate, MODES, _DYNAMIC, output_dir=True, options=("seed",)),
    "validate": Command(
        _validate,
        ("aposteriori",),
        ("static", "discrete_dae"),
        observations=("aposteriori",),
        options=("seed", "samples"),
    ),
    "check": Command(_check, MODES),
}


def run(
    command: str,
    config: ProblemConfig,
    observations=None,
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    grid: Optional[TimeGrid] = None,
    output_dir: Optional[str] = None,
) -> tuple:
    """Dispatch one command against a parsed config.

    ``grid`` replaces the config's grid for a continuous problem.
    ``seed`` (which overrides the config's) and ``samples`` (default
    100000) are refused by a command that does not read them.
    Returns (ResultReport, exit_code) with the command's wall time in
    ``timings["seconds"]``. The exit code is decided here alone:
    EXIT_OK for a feasible report, EXIT_INFEASIBLE (an infinite radius)
    otherwise. Raises EstimationError subclasses for invalid requests
    and failed solves; the CLI entry point maps those to exit 1.
    """
    spec = COMMANDS.get(command)
    if spec is None:
        raise InvalidInput(f"unknown command {command!r}")
    for name, value in (("seed", seed), ("samples", samples)):
        if value is not None and name not in spec.options:
            readers = " and ".join(c for c, s in COMMANDS.items() if name in s.options)
            raise InvalidInput(f"--{name} applies to {readers}; the command is {command}")
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
    report = spec.run(
        config,
        observations,
        config.grid if grid is None else grid,
        command=command,
        seed=config.seed if seed is None else seed,
        samples=samples,
        output=output_dir,
    )
    report.timings["seconds"] = time.perf_counter() - started
    return report, EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descriptor-minimax",
        description="Worst-case optimal estimation for linear descriptor systems",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run (README \"CLI\")")
    parser.add_argument("--config", required=True, help="problem description (JSON)")
    parser.add_argument("--observations", help="trajectory CSV with y columns")
    parser.add_argument("--output", help="report file, or directory for simulate")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--samples", type=int, help="oracle sample count for validate")
    parser.add_argument(
        "--grid-steps", type=int, default=None, help="override the continuous grid's steps"
    )
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Python's cyclic garbage collector is paused from argument parsing
    through the report write: parsing a large config builds enough
    lists to set off repeated full-heap scans, and a request leaves no
    reference cycle behind for the collector to free. The collector is
    switched back on afterwards only if it was on when ``main`` started.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _request(argv)
    finally:
        if collecting:
            gc.enable()


def _request(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means an infinite radius here
        return EXIT_ERROR if exc.code else EXIT_OK  # EXIT_OK after --help
    output_dir = COMMANDS[args.command].output_dir
    try:
        config = parse_config(args.config)
        grid = _effective_grid(config, args.grid_steps)
        observations = (
            _load_observations(args.observations, config) if args.observations else None
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
        text = report.to_json()
        if args.output and not output_dir:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return code
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # every failed read is already a ParseError
        reason = exc.strerror or exc
        print(f"error: cannot write {exc.filename or args.output}: {reason}", file=sys.stderr)
        return EXIT_ERROR
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
