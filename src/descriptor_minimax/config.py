"""Configuration schema, result reports, and trajectory file IO.

A problem lives in one JSON document with top-level keys ``kind``,
``model``, ``bounds``, ``estimation``, optional ``grid`` (continuous
problems), optional ``simulation``, and ``seed``. Matrices are nested
row-major lists and vectors are lists, of JSON numbers: a string, a
boolean, a null or an object as an entry is a SchemaError naming it,
as is any of them in place of a number such as ``t_start``. Time-varying
coefficients are tagged objects

    {"type": "constant",   "value": [[...]]}
    {"type": "table",      "times": [t0, ...], "values": [[[...]], ...]}
    {"type": "polynomial", "coefficients": [[[...]], ...]}

Documents are read and reports written by ``orjson``, which keeps to
RFC 8259: a ``NaN``, ``Infinity`` or out-of-range number token in a file
is a syntax error, and an integer literal outside [-2**63, 2**64 - 1]
reads as a float. A file that is not UTF-8 is a ParseError naming the
line of its first bad byte.

Validation is layered: JSON syntax errors raise ParseError, layout
violations raise SchemaError with the offending field path, and shape
mismatches raise DimensionError (a SchemaError subclass). Matrices and
vectors pass the checks of :mod:`.linalg`, in its wording. All checks
run before any solve is attempted.

Reports are written, never read back. They serialize an infinite float
outside an array, such as an infinite ``sigma_hat``, as the string
"infinite"; a non-finite entry of an output array is ``null``. No report
holds a bare non-numeric float token. Trajectory CSV files are written
by ``orjson`` too and hold finite values only: the writer refuses a
non-finite entry. Both JSON and CSV emit a float's shortest round-trip
digits in one spelling (``1e16``, ``0.00001``), so any JSON reader parses
it back to the identical double. The CSV reader is ``orjson`` as well:
it reads the file once as bytes and parses the rows as one JSON array of
arrays, so a field is a number in JSON's grammar (``nan``, ``inf``,
``.1``, ``+0.2`` and ``1.`` are not), and spaces and tabs around header
and row fields, blank lines and ``\r\n`` line ends are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np
import orjson

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
# numpy's generators take any non-negative integer, but a report that
# echoes the seed holds integers below 2**64 only
SEED_LIMIT = 2**64


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


# JSON values that are not numbers: a matrix or vector entry that is one of
# these is refused, where ``np.asarray(..., dtype=float)`` would take "1",
# true and false as numbers and null as NaN.
_NOT_NUMBERS = (str, bool, type(None), dict)
_NUMBERS = {int, float}


def _numbers(value, depth: int) -> Optional[np.ndarray]:
    """``value``, lists nested ``depth`` deep with one length per level and
    int or float entries, as one float array; None if it is not that.

    One ``np.fromiter`` over the entries, after one length test per level
    and one type test: ``type``, not ``isinstance``, as ``bool`` is an
    ``int``. A string or an object in place of a list is flattened into
    its characters or keys, which fail the type test, and a number in
    place of a list has no length.
    """
    shape = []
    level = [value]
    try:
        for _ in range(depth):
            lengths = set(map(len, level))
            if len(lengths) != 1:
                return None
            shape.append(lengths.pop())
            level = list(chain.from_iterable(level))
    except TypeError:
        return None
    if not level or not set(map(type, level)) <= _NUMBERS:
        return None
    return np.fromiter(level, float, len(level)).reshape(shape)


def _typed(value, depth: int, path: str):
    """The entries of document field ``path`` as one float array (see
    :func:`_numbers`); otherwise ``value`` itself, for the checks of
    :mod:`.linalg` to word, once no entry is a string, a boolean, a null
    or an object: a SchemaError names the first that is."""
    try:
        typed = _numbers(value, depth)
    except OverflowError:  # an int beyond the float range: the scan names it
        typed = None
    if typed is not None:
        return typed
    if isinstance(value, (list, tuple)):
        _refuse_non_numbers(value, path)
    return value


def _refuse_non_numbers(entries, path: str) -> None:
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if isinstance(entry, (list, tuple)):
            _refuse_non_numbers(entry, where)
        elif isinstance(entry, _NOT_NUMBERS):
            raise SchemaError(f"{where} is not a number, got {entry!r}")
        elif isinstance(entry, int):
            _as_float(entry, where)


def _as_float(value, path: str) -> float:
    """An int or float as a float; an int beyond the float range (a
    document given as a dict may hold 10**400) is a SchemaError."""
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(
            f"{path} is out of the range of a float, got an integer of {value.bit_length()} bits"
        ) from None


def _number(value, path: str) -> float:
    """A scalar field that must be a number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path} must be a number, got {value!r}")
    return _as_float(value, path)


def _schema(check, depth: int):
    """``check(value, path)`` from :mod:`.linalg` on a document field whose
    entries are numbers ``depth`` lists deep (:func:`_typed`), with its
    InvalidInput raised as a SchemaError: a document's layout is a schema
    matter."""

    def checked(value, path: str) -> np.ndarray:
        try:
            return check(_typed(value, depth, path), path)
        except InvalidInput as exc:
            raise SchemaError(str(exc)) from exc

    return checked


_matrix = _schema(as_matrix, 2)
_vector = _schema(as_vector, 1)


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
        stack = _typed(raw, 3, f"{path}.{seq_key}")
        if isinstance(stack, np.ndarray):
            stack.flags.writeable = False  # fresh: as_matrix_stack need not copy it
        try:
            return as_matrix_stack(stack, f"{path}.{seq_key}", check=_matrix)
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
    t_start = _number(_require(model_block, "t_start", "model"), "model.t_start")
    t_end = _number(_require(model_block, "t_end", "model"), "model.t_end")
    try:
        model = ContinuousDAE(F=F, C=C, H=H, t_start=t_start, t_end=t_end)
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
            alphas = list(continuous._check_alphas(_typed(raw, 1, "estimation.alphas")))
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
            with open(source, "rb") as fh:
                document = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        try:
            raw = orjson.loads(document)  # bytes: no cached UTF-8 copy of a str
        except orjson.JSONDecodeError as exc:
            # orjson reports bad UTF-8 at line 1, column 1; name its line
            try:
                document.decode("utf-8")
            except UnicodeDecodeError as bad:
                line = document.count(b"\n", 0, bad.start) + 1
                raise ParseError(
                    f"{source}: not UTF-8 text at line {line} ({bad.reason})"
                ) from bad
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
                start=_number(_require(gb, "start", "grid"), "start"),
                end=_number(_require(gb, "end", "grid"), "end"),
                steps=_integer(_require(gb, "steps", "grid"), "steps"),
            )
        except EstimationError as exc:
            raise SchemaError(f"grid: {exc}") from exc
    elif "grid" in raw and raw["grid"] is not None:
        raise SchemaError("grid is only meaningful for continuous_dae problems")

    seed = _integer(raw.get("seed", 0), "seed", 0)
    if seed >= SEED_LIMIT:
        raise SchemaError(f"seed must be below 2**64, got {seed}")

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
        """The report as one line of JSON with sorted keys and compact
        separators; a non-finite array entry is ``null``."""
        return orjson.dumps(self.to_dict(), option=orjson.OPT_SORT_KEYS).decode()


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

    One ``orjson.dumps`` of the rows ``[k, *row]`` formats every value
    in native code; its outer brackets are cut and each ``],[`` becomes
    a line break. Floats take their shortest round-trip digits in the
    reports' spelling (``1e16``, ``0.00001``), so a read-back reproduces
    every double bit for bit. A non-finite entry, which JSON would write
    as ``null``, is an InvalidInput naming its row, raised before the
    file is opened.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidInput("trajectory data must be 1-D or 2-D")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise InvalidInput(f"{path}: row {np.argmin(finite)} contains non-finite entries")
    header = ",".join(["k"] + [f"{prefix}{j}" for j in range(arr.shape[1])])
    text = header.encode() + b"\n"
    if len(arr):
        rows = orjson.dumps([[k, *row] for k, row in enumerate(arr.tolist())])
        text += rows[2:-2].replace(b"],[", b"\n") + b"\n"
    with open(path, "wb") as fh:
        fh.write(text)


# JSON's whitespace, and the bytes a line of numbers may hold in JSON's
# grammar: digits, the signs of a number, commas and that whitespace.
_SPACE = b" \t\r\n"
_ROW_BYTES = b"0123456789.eE+-," + _SPACE


def read_trajectory_csv(path, prefix: Optional[str] = None) -> np.ndarray:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Returns the (rows, columns) array of values in index order, zero rows
    included; the k column must be the consecutive integers from 0.
    Fields are numbers in JSON's grammar, the one the writer emits, so
    ``nan``, ``inf``, ``.1``, ``+0.2`` and ``1.`` are not numeric. Blank
    lines, spaces and tabs around fields (header fields too) and ``\r\n``
    line ends are skipped. The file is read once as bytes, and the rows
    are parsed by one ``orjson.loads`` of the rows as a JSON array of
    arrays; only if that or the shape and index test fails are they
    scanned, so the ParseError names the first bad row.
    """
    try:
        with open(path, "rb") as fh:
            head, _, rows = fh.read().lstrip(_SPACE).partition(b"\n")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not head:
        raise ParseError(f"{path}: empty trajectory file")
    header = [name.strip(" \t\r") for name in _utf8(path, head).split(",")]
    if header[0] != "k" or len(header) < 2:
        raise ParseError(f"{path}: header must start with 'k' and name columns")
    if prefix is not None:
        expected = [f"{prefix}{j}" for j in range(len(header) - 1)]
        if header[1:] != expected:
            raise ParseError(
                f"{path}: expected columns {expected}, found {header[1:]}"
            )
    rows = rows.strip(_SPACE)
    if not rows:
        return np.zeros((0, len(header) - 1))
    data = _parsed(rows)
    if (
        data is None
        or data.shape[1] != len(header)
        or not np.array_equal(data[:, 0], np.arange(len(data)))
    ):
        _find_bad_row(path, _utf8(path, rows), len(header))
    return np.ascontiguousarray(data[:, 1:])


def _parsed(rows: bytes) -> Optional[np.ndarray]:
    """The lines of ``rows`` as one float array, from one ``orjson.loads``
    of them as a JSON array of arrays; None when a byte is outside the
    grammar of JSON numbers, or the lines are not JSON or are ragged."""
    if rows.translate(None, _ROW_BYTES):
        return None
    try:
        values = orjson.loads(b"".join((b"[[", rows.replace(b"\n", b"],["), b"]]")))
        try:
            return np.array(values, dtype=float)
        except ValueError:  # ragged, if only by the empty rows of blank lines
            return np.array([row for row in values if row], dtype=float)
    except ValueError:  # not JSON, or ragged
        return None


def _utf8(path, text: bytes) -> str:
    """``text``, bytes read from ``path``, decoded as UTF-8, or a ParseError."""
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _find_bad_row(path, body: str, fields: int) -> None:
    """Raise a ParseError naming the first row of ``body`` with the wrong
    field count, a field that is not a JSON number or an index other than
    its position."""
    rows = [line for line in body.split("\n") if line.strip(" \t\r")]
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != fields:
            raise ParseError(f"{path}: row {i} has {len(parts)} fields, expected {fields}")
        values = []
        for part in parts:
            try:
                value = orjson.loads(part)
            except orjson.JSONDecodeError:
                value = None
            if type(value) not in (int, float):
                raise ParseError(
                    f"{path}: row {i} is not numeric: {part.strip()!r} is not a JSON number"
                )
            values.append(value)
        if values[0] != i:
            raise ParseError(f"{path}: row {i} has index {parts[0].strip()}, expected {i}")
    raise ParseError(f"{path}: the rows do not form a trajectory")
