"""Configuration schema, result reports, and trajectory file IO.

A problem lives in one JSON document with top-level keys ``kind``,
``model``, ``bounds``, ``estimation``, optional ``grid`` (continuous
problems), optional ``simulation``, and ``seed``. Matrices are nested
row-major lists; time-varying coefficients are tagged objects

    {"type": "constant",   "value": [[...]]}
    {"type": "table",      "times": [t0, ...], "values": [[[...]], ...]}
    {"type": "polynomial", "coefficients": [[[...]], ...]}

Validation is layered: JSON syntax errors raise ParseError, layout
violations raise SchemaError with the offending field path, and shape
mismatches raise DimensionError (a SchemaError subclass). Matrices and
vectors pass the checks of :mod:`.linalg`, in its wording. All checks
run before any solve is attempted.

Reports are written, never read back. They serialize an infinite float,
such as an infinite ``sigma_hat``, as the string "infinite", never as a
bare non-numeric float token. Both JSON and CSV emit shortest repr, so
``json`` and ``np.loadtxt`` parse a float back to the identical double.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from . import continuous, static
from .continuous import (
    ConstantFunction,
    ContinuousDAE,
    ContinuousEllipsoid,
    PolynomialFunction,
    TableFunction,
    TimeGrid,
)
from .discrete import DAEEllipsoid, DiscreteDAE, _check_bounds
from .errors import (
    DimensionError,
    EstimationError,
    InvalidBounds,
    InvalidInput,
    ParseError,
    SchemaError,
)
from .linalg import as_matrix, as_matrix_stack, as_vector
from .simulate import DISTURBANCES
from .static import Estimate, StaticEllipsoid, StaticModel

KINDS = ("static", "discrete_dae", "continuous_dae")
MODES = ("apriori", "aposteriori", "filter", "riccati", "tikhonov")


# ---------------------------------------------------------------------------
# Low-level field extraction


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path} must be an object")
    if key not in mapping:
        raise SchemaError(f"missing required field {path}.{key}")
    return mapping[key]


def _integer(value, path: str, least: Optional[int] = None) -> int:
    """An int or integral float, never a bool, and at least ``least`` if given."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise SchemaError(f"{path} must be an integer{bound}, got {value!r}")
    return int(value)


def _schema(check):
    """``check(value, path)`` from :mod:`.linalg` with its InvalidInput
    raised as a SchemaError: a document's layout is a schema matter."""

    def checked(value, path: str) -> np.ndarray:
        try:
            return check(value, path)
        except InvalidInput as exc:
            raise SchemaError(str(exc)) from exc

    return checked


_matrix = _schema(as_matrix)
_vector = _schema(as_vector)


def _time_function(obj, path: str, vector: bool = False):
    """Parse a tagged time-varying coefficient; bare arrays mean constant."""
    reader = _vector if vector else _matrix
    if isinstance(obj, list):
        return ConstantFunction(reader(obj, path))
    if not isinstance(obj, dict):
        raise SchemaError(f"{path} must be an array or a tagged object")
    ftype = _require(obj, "type", path)
    try:
        if ftype == "constant":
            return ConstantFunction(reader(_require(obj, "value", path), f"{path}.value"))
        if ftype == "table":
            times = _vector(_require(obj, "times", path), f"{path}.times")
            values = _require(obj, "values", path)
            if not isinstance(values, list) or not values:
                raise SchemaError(f"{path}.values must be a non-empty list")
            parsed = [
                reader(v, f"{path}.values[{i}]") for i, v in enumerate(values)
            ]
            return TableFunction(times, parsed)
        if ftype == "polynomial":
            coeffs = _require(obj, "coefficients", path)
            if not isinstance(coeffs, list) or not coeffs:
                raise SchemaError(f"{path}.coefficients must be a non-empty list")
            parsed = [
                reader(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs)
            ]
            return PolynomialFunction(parsed)
    except InvalidInput as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}.type must be constant, table, or polynomial")


def _matrix_seq(block: dict, name: str, count: int, path: str):
    """Read ``name_seq`` (exact length) or broadcast a single ``name``.

    A sequence is one :func:`.linalg.as_matrix_stack`: a bad entry is a
    SchemaError naming it (``model.F_seq[3] contains non-finite
    entries``), and entries of different shapes are a DimensionError. A
    single matrix is validated once and repeated with stride 0, so the
    model constructors check it once too.
    """
    seq_key = f"{name}_seq"
    if seq_key in block:
        raw = block[seq_key]
        if not isinstance(raw, list) or len(raw) != count:
            raise SchemaError(f"{path}.{seq_key} must be a list of {count} matrices")
        try:
            return as_matrix_stack(raw, f"{path}.{seq_key}", check=_matrix)
        except InvalidInput as exc:
            raise DimensionError(str(exc)) from exc
    if name in block:
        single = _matrix(block[name], f"{path}.{name}")
        return np.broadcast_to(single, (count,) + single.shape)
    raise SchemaError(f"missing required field {path}.{name} or {path}.{seq_key}")


# ---------------------------------------------------------------------------
# Typed configuration


@dataclass(frozen=True)
class EstimationSpec:
    """The functional ``ell`` in the form its (kind, mode) estimator reads:
    a vector for static problems and for the filter and Riccati endpoint
    readouts, an (N+1, n) array of per-step blocks for the one-shot
    discrete modes, a time function for continuous apriori and tikhonov.
    """

    mode: str
    ell: Any
    alphas: Optional[Sequence[float]] = None  # tikhonov schedule


@dataclass(frozen=True)
class ProblemConfig:
    kind: str
    model: Union[StaticModel, DiscreteDAE, ContinuousDAE]
    bounds: Union[StaticEllipsoid, DAEEllipsoid, ContinuousEllipsoid]
    estimation: EstimationSpec
    grid: Optional[TimeGrid]
    seed: int
    disturbance: str  # simulation.disturbance, one of simulate.DISTURBANCES


def _parse_static(model_block, bounds_block, path="model") -> tuple:
    F = _matrix(_require(model_block, "F", path), f"{path}.F")
    B = _matrix(_require(model_block, "B", path), f"{path}.B")
    H = _matrix(_require(model_block, "H", path), f"{path}.H")
    try:
        model = StaticModel(F=F, B=B, H=H)
    except InvalidInput as exc:
        raise DimensionError(f"model: {exc}") from exc
    Q1 = _matrix(_require(bounds_block, "Q1", "bounds"), "bounds.Q1")
    Q2 = _matrix(_require(bounds_block, "Q2", "bounds"), "bounds.Q2")
    try:
        bounds = StaticEllipsoid(Q1=Q1, Q2=Q2)
        static._check_pair(model, bounds)
    except InvalidBounds as exc:
        raise SchemaError(f"bounds: {exc}") from exc
    except InvalidInput as exc:
        raise DimensionError(f"bounds.{exc}") from exc
    return model, bounds


def _parse_discrete(model_block, bounds_block) -> tuple:
    horizon = _integer(_require(model_block, "horizon", "model"), "model.horizon", 0)
    F_seq = _matrix_seq(model_block, "F", horizon + 1, "model")
    C_seq = _matrix_seq(model_block, "C", horizon, "model") if horizon else ()
    B_seq = _matrix_seq(model_block, "B", horizon, "model") if horizon else ()
    H_seq = _matrix_seq(model_block, "H", horizon + 1, "model")
    S = (
        _matrix(model_block["S"], "model.S")
        if "S" in model_block
        else np.eye(np.shape(F_seq[0])[0])
    )
    try:
        model = DiscreteDAE(F_seq=F_seq, C_seq=C_seq, B_seq=B_seq, S=S, H_seq=H_seq)
    except InvalidInput as exc:
        raise DimensionError(f"model: {exc}") from exc
    Q0 = _matrix(_require(bounds_block, "Q0", "bounds"), "bounds.Q0")
    Q1_seq = _matrix_seq(bounds_block, "Q1", horizon, "bounds") if horizon else ()
    Q2_seq = _matrix_seq(bounds_block, "Q2", horizon + 1, "bounds")
    try:
        bounds = DAEEllipsoid(Q0=Q0, Q1_seq=Q1_seq, Q2_seq=Q2_seq)
        _check_bounds(model, bounds)
    except InvalidBounds as exc:
        raise SchemaError(f"bounds.{exc}") from exc
    except InvalidInput as exc:
        raise DimensionError(f"bounds.{exc}") from exc
    return model, bounds


def _parse_continuous(model_block, bounds_block) -> tuple:
    F = _matrix(_require(model_block, "F", "model"), "model.F")
    C = _time_function(_require(model_block, "C", "model"), "model.C")
    H = _time_function(_require(model_block, "H", "model"), "model.H")
    t_start = _require(model_block, "t_start", "model")
    t_end = _require(model_block, "t_end", "model")
    if not isinstance(t_start, (int, float)) or not isinstance(t_end, (int, float)):
        raise SchemaError("model.t_start and model.t_end must be numbers")
    try:
        model = ContinuousDAE(
            F=F, C=C, H=H, t_start=float(t_start), t_end=float(t_end)
        )
    except InvalidInput as exc:
        raise DimensionError(f"model: {exc}") from exc
    Q0 = _matrix(_require(bounds_block, "Q0", "bounds"), "bounds.Q0")
    Q1 = _time_function(_require(bounds_block, "Q1", "bounds"), "bounds.Q1")
    Q2 = _time_function(_require(bounds_block, "Q2", "bounds"), "bounds.Q2")
    try:
        bounds = ContinuousEllipsoid(Q0=Q0, Q1=Q1, Q2=Q2)
        continuous._check_pair(model, bounds)
    except InvalidBounds as exc:
        raise SchemaError(f"bounds: {exc}") from exc
    except InvalidInput as exc:
        raise DimensionError(f"bounds.{exc}") from exc
    return model, bounds


def _parse_estimation(block, kind: str, model) -> EstimationSpec:
    mode = _require(block, "mode", "estimation")
    if mode not in MODES:
        raise SchemaError(f"estimation.mode must be one of {MODES}, got {mode!r}")
    if kind == "static" and mode not in ("apriori", "aposteriori"):
        raise SchemaError(f"estimation.mode {mode!r} needs a dynamic model")
    if kind == "discrete_dae" and mode in ("riccati", "tikhonov"):
        raise SchemaError(f"estimation.mode {mode!r} needs a continuous model")
    if kind == "continuous_dae" and mode == "aposteriori":
        raise SchemaError(
            "aposteriori mode is not available for continuous_dae; discretize "
            "to a discrete_dae problem instead"
        )

    n = model.state_dim
    one_shot_chain = kind == "discrete_dae" and mode in ("apriori", "aposteriori")
    alphas = None
    if "ell_seq" in block and not one_shot_chain:
        raise SchemaError(
            "estimation.ell_seq is only valid for discrete_dae in mode apriori "
            f"or aposteriori, not for {kind} in mode {mode}; use estimation.ell"
        )
    if kind == "continuous_dae" and mode in ("apriori", "tikhonov"):
        ell = _time_function(
            _require(block, "ell", "estimation"), "estimation.ell", vector=True
        )
    elif "ell_seq" in block:
        raw = block["ell_seq"]
        if not isinstance(raw, list):
            raise SchemaError("estimation.ell_seq must be a list of vectors")
        blocks = [_vector(v, f"estimation.ell_seq[{i}]") for i, v in enumerate(raw)]
        if len(blocks) != model.horizon + 1:
            raise DimensionError(
                f"estimation.ell_seq needs {model.horizon + 1} entries, got {len(blocks)}"
            )
        for i, v in enumerate(blocks):
            if v.shape[0] != n:
                raise DimensionError(f"estimation.ell_seq[{i}] has wrong length")
        ell = np.array(blocks)
    else:
        ell = _vector(_require(block, "ell", "estimation"), "estimation.ell")
        if ell.shape[0] != n:
            raise DimensionError(f"estimation.ell has length {ell.shape[0]}, expected {n}")
        if one_shot_chain:  # a bare vector reads the terminal state
            ell = np.concatenate([np.zeros((model.horizon, n)), ell[None]])

    if mode == "tikhonov":
        raw = _require(block, "alphas", "estimation")
        try:
            alphas = list(continuous._check_alphas(raw))
        except InvalidInput as exc:
            raise SchemaError(f"estimation.{exc}") from exc
    return EstimationSpec(mode=mode, ell=ell, alphas=alphas)


def parse_config(source) -> ProblemConfig:
    """Parse and validate a problem description.

    ``source`` may be a path to a JSON file or an already-loaded dict.
    """
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")

    kind = _require(raw, "kind", "config")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    model_block = _require(raw, "model", "config")
    bounds_block = _require(raw, "bounds", "config")
    estimation_block = _require(raw, "estimation", "config")

    if kind == "static":
        model, bounds = _parse_static(model_block, bounds_block)
    elif kind == "discrete_dae":
        model, bounds = _parse_discrete(model_block, bounds_block)
    else:
        model, bounds = _parse_continuous(model_block, bounds_block)

    estimation = _parse_estimation(estimation_block, kind, model)

    grid = None
    if kind == "continuous_dae":
        gb = _require(raw, "grid", "config")
        try:
            grid = TimeGrid(
                start=float(_require(gb, "start", "grid")),
                end=float(_require(gb, "end", "grid")),
                steps=_integer(_require(gb, "steps", "grid"), "steps"),
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"grid: {exc}") from exc
        except EstimationError as exc:
            raise SchemaError(f"grid: {exc}") from exc
    elif "grid" in raw and raw["grid"] is not None:
        raise SchemaError("grid is only meaningful for continuous_dae problems")

    seed = _integer(raw.get("seed", 0), "seed", 0)

    sim_block = raw.get("simulation", {}) or {}
    disturbance = sim_block.get("disturbance", "boundary")
    if disturbance not in DISTURBANCES:
        raise SchemaError(
            f"simulation.disturbance must be one of {DISTURBANCES}, got {disturbance!r}"
        )

    return ProblemConfig(
        kind=kind,
        model=model,
        bounds=bounds,
        estimation=estimation,
        grid=grid,
        seed=seed,
        disturbance=disturbance,
    )


# ---------------------------------------------------------------------------
# Result reports


@dataclass
class ResultReport:
    """Everything a command run produced, in serializable form.

    The commands that make an estimate build theirs with
    :func:`estimate_report`; the others leave ``estimate`` and
    ``sigma_hat`` None.
    """

    command: str
    estimate: Optional[float] = None
    sigma_hat: Optional[float] = None
    feasible: bool = True
    outputs: Dict[str, Any] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "estimate": _jsonable(self.estimate),
            "sigma_hat": _jsonable(self.sigma_hat),
            "feasible": self.feasible,
            "outputs": _jsonable(self.outputs),
            "diagnostics": _jsonable(self.diagnostics),
            "timings": _jsonable(self.timings),
        }

    def to_json(self) -> str:
        """The report as one line of JSON with sorted keys. Without
        ``indent`` json runs its C encoder."""
        return json.dumps(self.to_dict(), sort_keys=True)


def estimate_report(command: str, result: Estimate, diagnostics: Dict[str, Any]) -> ResultReport:
    """The report of ``command`` on the estimate ``result``: its center,
    verdict and outputs, and ``diagnostics`` with the solver record added.

    ``sigma_hat`` is the worst-case mean-squared error where the estimate
    has one (the a priori modes and ``riccati``) and the radius otherwise.
    These two meanings live here alone: perfbench/workloads.py reads the
    field under this name and in both meanings, so renaming it waits for a
    change to the benchmark.
    """
    mse = result.worst_case_mse
    return ResultReport(
        command=command,
        estimate=result.estimate,
        sigma_hat=mse if mse is not None else result.radius,
        feasible=result.feasible,
        outputs=result.outputs,
        diagnostics={**diagnostics, "solver": result.solver},
    )


def _jsonable(value):
    """``value`` with arrays as lists, numpy scalars as Python numbers and
    an infinite float as the string ``"infinite"``, recursively. At module
    level, unlike a closure that calls itself, it leaves no reference
    cycle behind for the collector."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Trajectory CSV files


def write_trajectory_csv(path, prefix: str, data) -> None:
    """Write rows of a trajectory with header ``k,<prefix>0,...``.

    Values are emitted as shortest round-trip decimal strings, so a
    read-back reproduces every double bit for bit.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidInput("trajectory data must be 1-D or 2-D")
    header = ",".join(["k"] + [f"{prefix}{j}" for j in range(arr.shape[1])])
    lines = [header]
    lines += [f"{k},{','.join(map(repr, row))}" for k, row in enumerate(arr.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path, prefix: Optional[str] = None) -> np.ndarray:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Returns the (rows, columns) array of values in index order, zero rows
    included; the k column must be the consecutive integers from 0.
    Blank lines and spaces around fields are ignored. One ``np.loadtxt``
    reads the rows; only if it or the index test fails are they scanned,
    so the ParseError names the first bad row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "k" or len(header) < 2:
        raise ParseError(f"{path}: header must start with 'k' and name columns")
    if prefix is not None:
        expected = [f"{prefix}{j}" for j in range(len(header) - 1)]
        if header[1:] != expected:
            raise ParseError(
                f"{path}: expected columns {expected}, found {header[1:]}"
            )
    rows = lines[1:]
    if not rows:
        return np.zeros((0, len(header) - 1))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _find_bad_row(path, rows, len(header))
        # a spelling Python's float reads and numpy's does not, such as 1_0
        raise ParseError(f"{path}: {exc}") from exc
    if data.shape[1] != len(header) or not np.array_equal(
        data[:, 0], np.arange(len(rows))
    ):
        _find_bad_row(path, rows, len(header))
    return np.ascontiguousarray(data[:, 1:])


def _find_bad_row(path, rows: list, fields: int) -> None:
    """Raise a ParseError naming the first row with the wrong field
    count, a non-numeric field or an index other than its position."""
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != fields:
            raise ParseError(f"{path}: row {i} has {len(parts)} fields, expected {fields}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise ParseError(f"{path}: row {i} is not numeric: {exc}") from exc
        if values[0] != i:
            raise ParseError(f"{path}: row {i} has index {parts[0]}, expected {i}")
