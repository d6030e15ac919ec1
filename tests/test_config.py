"""Config documents, result reports, and trajectory CSV files."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import descriptor_minimax.config as config_mod
from descriptor_minimax.config import (
    ResultReport,
    parse_config,
    read_trajectory_csv,
    write_trajectory_csv,
)
from descriptor_minimax import (
    ConstantFunction,
    DimensionError,
    InvalidInput,
    ParseError,
    SchemaError,
)


def static_doc():
    return {
        "kind": "static",
        "model": {"F": [[1.0]], "B": [[1.0]], "H": [[1.0]]},
        "bounds": {"Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": "aposteriori", "ell": [1.0]},
        "seed": 7,
    }


def discrete_doc():
    return {
        "kind": "discrete_dae",
        "model": {
            "horizon": 1,
            "F": [[1.0]],
            "C": [[1.0]],
            "B": [[1.0]],
            "S": [[1.0]],
            "H": [[1.0]],
        },
        "bounds": {"Q0": [[1.0]], "Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {
            "mode": "aposteriori",
            "ell_seq": [[0.0], [1.0]],
        },
    }


def continuous_doc():
    return {
        "kind": "continuous_dae",
        "model": {
            "F": [[1.0]],
            "C": [[0.0]],
            "H": [[1.0]],
            "t_start": 0.0,
            "t_end": 1.0,
        },
        "bounds": {"Q0": [[1.0]], "Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": "apriori", "ell": [1.0]},
        "grid": {"start": 0.0, "end": 1.0, "steps": 100},
    }


def test_parse_static_document():
    config = parse_config(static_doc())
    assert config.kind == "static"
    assert config.seed == 7
    assert config.model.F == pytest.approx(np.array([[1.0]]))
    assert config.estimation.ell == pytest.approx([1.0])


def test_parse_discrete_document_replicates_single_matrices():
    config = parse_config(discrete_doc())
    assert config.model.horizon == 1
    assert len(config.model.F_seq) == 2
    assert len(config.bounds.Q2_seq) == 2
    assert config.estimation.ell[1] == pytest.approx([1.0])


def test_functional_takes_the_form_its_estimator_reads():
    assert parse_config(static_doc()).estimation.ell.tolist() == [1.0]
    doc = discrete_doc()
    doc["estimation"] = {"mode": "apriori", "ell": [2.0]}  # the terminal block
    assert parse_config(doc).estimation.ell.tolist() == [[0.0], [2.0]]
    doc["estimation"] = {"mode": "filter", "ell": [2.0]}
    assert parse_config(doc).estimation.ell.tolist() == [2.0]
    assert isinstance(parse_config(continuous_doc()).estimation.ell, ConstantFunction)
    for entries, message in (
        ([[1.0]], r"ell_seq needs 2 entries, got 1"),
        ([[0.0], [1.0, 2.0]], r"ell_seq\[1\] has wrong length"),
    ):
        doc = discrete_doc()
        doc["estimation"]["ell_seq"] = entries
        with pytest.raises(DimensionError, match=message):
            parse_config(doc)
    # per-step blocks are for the one-shot discrete modes only
    for make, mode in (
        (discrete_doc, "filter"),
        (static_doc, "aposteriori"),
        (continuous_doc, "riccati"),
        (continuous_doc, "apriori"),
    ):
        doc = make()
        doc["estimation"] = {"mode": mode, "ell": [1.0], "ell_seq": [[0.0], [1.0]]}
        with pytest.raises(SchemaError, match=rf"^estimation\.ell_seq is only valid .* in mode {mode};"):
            parse_config(doc)


def test_parse_discrete_document_with_sequences():
    doc = discrete_doc()
    doc["model"]["F_seq"] = [[[1.0]], [[2.0]]]
    del doc["model"]["F"]
    config = parse_config(doc)
    assert config.model.F_seq[1] == pytest.approx(np.array([[2.0]]))


def test_parse_continuous_document_with_tagged_functions():
    doc = continuous_doc()
    doc["model"]["C"] = {
        "type": "table",
        "times": [0.0, 0.5],
        "values": [[[0.0]], [[1.0]]],
    }
    doc["bounds"]["Q2"] = {"type": "polynomial", "coefficients": [[[1.0]], [[1.0]]]}
    config = parse_config(doc)
    assert config.model.C(0.25) == pytest.approx(np.array([[0.0]]))
    assert config.model.C(0.75) == pytest.approx(np.array([[1.0]]))
    assert config.bounds.Q2(2.0) == pytest.approx(np.array([[3.0]]))
    assert config.grid.steps == 100


def test_parse_keeps_the_tikhonov_schedule():
    doc = continuous_doc()
    doc["estimation"] = {
        "mode": "tikhonov",
        "ell": [1.0],
        "alphas": [0.5, 0.25, 0.125],
    }
    config = parse_config(doc)
    assert config.estimation.alphas == [0.5, 0.25, 0.125]


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_config({"kind": "mystery"})
    doc = static_doc()
    del doc["model"]
    with pytest.raises(SchemaError):
        parse_config(doc)
    doc = static_doc()
    doc["estimation"]["mode"] = "filter"  # needs a dynamic model
    with pytest.raises(SchemaError):
        parse_config(doc)
    doc = static_doc()
    doc["bounds"]["Q1"] = [[-1.0]]  # not positive definite
    with pytest.raises(SchemaError):
        parse_config(doc)
    doc = static_doc()
    doc["grid"] = {"start": 0.0, "end": 1.0, "steps": 4}
    with pytest.raises(SchemaError):
        parse_config(doc)
    doc = continuous_doc()
    doc["estimation"]["mode"] = "aposteriori"
    with pytest.raises(SchemaError):
        parse_config(doc)
    for alphas, message in (
        ([0.5, 0.5], "must be strictly decreasing"),
        ([float("nan")], "contains non-finite entries"),
        ([float("inf"), 1.0], "contains non-finite entries"),
        ([], "must be a non-empty flat sequence"),
    ):
        doc = continuous_doc()
        doc["estimation"] = {"mode": "tikhonov", "ell": [1.0], "alphas": alphas}
        with pytest.raises(SchemaError, match=f"^estimation.alphas {message}"):
            parse_config(doc)
    doc = continuous_doc()
    doc["bounds"]["Q1"] = {
        "type": "table",
        "times": [0.0, 0.5],
        "values": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    }
    with pytest.raises(SchemaError, match=r"bounds\.Q1: table values must share one shape"):
        parse_config(doc)
    # integer fields take no bools and no fractional numbers
    for value in (True, 1.5):
        doc = discrete_doc()
        doc["model"]["horizon"] = value
        with pytest.raises(SchemaError, match=r"model\.horizon must be an integer"):
            parse_config(doc)
    for value in (64.9, True, "64"):
        doc = continuous_doc()
        doc["grid"]["steps"] = value
        with pytest.raises(SchemaError, match=r"grid: steps must be an integer"):
            parse_config(doc)
    for value in (False, 0.5, -1):
        doc = static_doc()
        doc["seed"] = value
        with pytest.raises(SchemaError, match=r"seed must be an integer"):
            parse_config(doc)
    # a dict built in Python may hold NaN; a non-finite horizon endpoint is rejected
    for field in ("t_start", "t_end"):
        doc = continuous_doc()
        doc["model"][field] = float("nan")
        with pytest.raises(SchemaError, match="both finite"):
            parse_config(doc)


def test_dimension_errors():
    doc = static_doc()
    doc["model"]["F"] = [[1.0, 0.0]]  # H stays 1x1: column mismatch
    with pytest.raises(DimensionError):
        parse_config(doc)
    doc = static_doc()
    doc["estimation"]["ell"] = [1.0, 2.0]
    with pytest.raises(DimensionError):
        parse_config(doc)
    for name in ("Q1", "Q2"):
        doc = static_doc()
        doc["bounds"][name] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(DimensionError, match=rf"bounds\.{name} is 2x2"):
            parse_config(doc)
    for name in ("Q0", "Q1", "Q2"):
        doc = continuous_doc()
        doc["bounds"][name] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(DimensionError, match=rf"bounds\.{name}(\(t\))? must be 1x1"):
            parse_config(doc)
    # DimensionError must be catchable as a schema problem
    assert issubclass(DimensionError, SchemaError)


def _long_discrete_doc(N=20):
    doc = discrete_doc()
    doc["model"]["horizon"] = N
    doc["model"]["F_seq"] = [[[1.0]] for _ in range(N + 1)]
    del doc["model"]["F"]
    doc["bounds"]["Q1_seq"] = [[[1.0]] for _ in range(N)]
    del doc["bounds"]["Q1"]
    doc["estimation"]["ell_seq"] = [[0.0] for _ in range(N + 1)]
    return doc


def test_parse_discrete_builds_stacks_and_broadcasts_single_matrices():
    config = parse_config(_long_discrete_doc())
    assert config.model.F_seq.shape == (21, 1, 1)
    assert config.model.C_seq.strides[0] == 0  # one "C" repeated
    assert config.bounds.Q2_seq.strides[0] == 0
    with pytest.raises(ValueError):
        config.model.F_seq[0][0, 0] = 2.0


def test_interior_failures_keep_their_class_and_name_their_entry():
    doc = _long_discrete_doc()
    doc["model"]["F_seq"][3] = [[float("nan")]]
    with pytest.raises(SchemaError, match=r"model\.F_seq\[3\] contains non-finite entries"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["model"]["F_seq"][4] = [1.0]
    with pytest.raises(SchemaError, match=r"model\.F_seq\[4\] must be 2-D, got shape \(1,\)"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["bounds"]["Q1_seq"][17] = [[-1.0]]
    with pytest.raises(SchemaError, match=r"bounds\.Q1_seq\[17\] is not positive definite"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["model"]["F_seq"][2] = [[1.0, 0.0]]
    with pytest.raises(DimensionError, match=r"F_seq\[2\] has shape \(1, 2\)"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["bounds"]["Q1_seq"][9] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DimensionError, match=r"Q1_seq\[9\] has shape \(2, 2\)"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["bounds"]["Q2"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DimensionError, match=r"Q2_seq\[0\] has shape \(2, 2\), expected \(1, 1\)"):
        parse_config(doc)
    doc = _long_discrete_doc()
    doc["bounds"]["Q0"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DimensionError, match="Q0"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# matrix and vector entries are JSON numbers


def _tagged_doc():
    """continuous_doc with a table, a polynomial and a Tikhonov schedule."""
    doc = continuous_doc()
    doc["model"]["C"] = {"type": "table", "times": [0.0, 0.5], "values": [[[0.0]], [[1.0]]]}
    doc["bounds"]["Q2"] = {"type": "polynomial", "coefficients": [[[1.0]], [[1.0]]]}
    doc["estimation"] = {"mode": "tikhonov", "ell": [1.0], "alphas": [0.5, 0.25]}
    return doc


def _stack_with(value):
    stack = [[[1.0]] for _ in range(21)]
    stack[3] = [[value]]
    return stack


# document, the field's keys, its value with the entry, the entry's name
NON_NUMBER_FIELDS = [
    (static_doc, ("model", "F"), lambda v: [[v]], "model.F[0][0]"),
    (static_doc, ("bounds", "Q2"), lambda v: [[v]], "bounds.Q2[0][0]"),
    (static_doc, ("estimation", "ell"), lambda v: [v], "estimation.ell[0]"),
    (_long_discrete_doc, ("model", "F_seq"), _stack_with, "model.F_seq[3][0][0]"),
    (_long_discrete_doc, ("model", "S"), lambda v: [[v]], "model.S[0][0]"),
    (discrete_doc, ("estimation", "ell_seq"), lambda v: [[0.0], [v]], "estimation.ell_seq[1][0]"),
    (_tagged_doc, ("model", "C", "times"), lambda v: [0.0, v], "model.C.times[1]"),
    (_tagged_doc, ("model", "C", "values"), lambda v: [[[0.0]], [[v]]], "model.C.values[1][0][0]"),
    (_tagged_doc, ("bounds", "Q2", "coefficients"), lambda v: [[[v]]], "bounds.Q2.coefficients[0][0][0]"),
    (_tagged_doc, ("estimation", "alphas"), lambda v: [0.5, v], "estimation.alphas[1]"),
]


@pytest.mark.parametrize("value", ["1", True, False, None, {"a": 1.0}])
@pytest.mark.parametrize("make, keys, field_value, entry", NON_NUMBER_FIELDS)
def test_an_entry_that_is_not_a_number_is_named(make, keys, field_value, entry, value):
    doc = make()
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = field_value(value)
    with pytest.raises(SchemaError) as err:
        parse_config(doc)
    assert str(err.value) == f"{entry} is not a number, got {value!r}"


@pytest.mark.parametrize("field", ["t_start", "t_end"])
@pytest.mark.parametrize("value", ["0", True, None])
def test_scalar_numbers_are_json_numbers(field, value):
    doc = continuous_doc()
    doc["model"][field] = value
    with pytest.raises(SchemaError, match=rf"^model\.{field} must be a number, got "):
        parse_config(doc)
    doc = continuous_doc()
    doc["grid"][field[2:]] = value
    with pytest.raises(SchemaError, match=rf"^grid: {field[2:]} must be a number, got "):
        parse_config(doc)


def _convert_as_asarray(monkeypatch) -> list:
    """Check every array the typed conversion returns against
    ``np.asarray(..., dtype=float)``, bit for bit; returns their sizes."""
    sizes = []
    numbers = config_mod._numbers

    def checked(value, depth):
        got = numbers(value, depth)
        if got is not None:
            want = np.asarray(value, dtype=float)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            sizes.append(got.size)
        return got

    monkeypatch.setattr(config_mod, "_numbers", checked)
    return sizes


def test_test_documents_convert_as_asarray(tmp_path, monkeypatch):
    from test_cli import DOCS, _verdict_docs

    sizes = _convert_as_asarray(monkeypatch)
    docs = [static_doc(), discrete_doc(), continuous_doc(), _long_discrete_doc(), _tagged_doc()]
    docs += [make(mode) for make, _ in DOCS.values() for mode in ("apriori", "filter", "riccati")]
    docs += [doc for doc, *_ in _verdict_docs().values()]
    parsed = 0
    for doc in docs:
        try:
            parse_config(doc)
            parsed += 1
        except SchemaError:  # a pair of kind and mode parse_config refuses
            pass
    path = tmp_path / "edges.json"
    path.write_text(_edge_document())
    parse_config(str(path))
    assert parsed >= 12 and len(sizes) >= 100


def test_benchmark_documents_convert_as_asarray(tmp_path, monkeypatch):
    # the documents of one round of each perfbench workload, seeds 1 to 3
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 0])
        for workload in workloads.WORKLOADS.values():
            workload().round_requests(rng, str(tmp_path), f"s{seed}", 0)
    sizes = _convert_as_asarray(monkeypatch)
    documents = sorted(tmp_path.glob("*.json"))
    for path in documents:
        parse_config(str(path))
    # 28 documents a seed; the largest array is an N=10^4 stack of 2x2 matrices
    assert len(documents) == 3 * 28 and max(sizes) == 10001 * 2 * 2


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "kind": "static",\n  oops\n}\n')
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert "line 3" in str(err.value)


# one spelling per line; json and the package's reader must agree on each
EDGE_VALUES = (
    "-0.0", "5e-324", "4.9406564584124654e-324", "1.7976931348623157e308",
    "-1.7976931348623157e+308", "0.1", "1e16", "1E+16", "1e-05", "0.00001",
    "9007199254740993",
)


def _edge_document() -> str:
    row = ", ".join(EDGE_VALUES)
    return (
        '{"kind": "static",\n'
        f' "model": {{"F": [[{row}]], "B": [[1.0]], "H": [[{row}]]}},\n'
        ' "bounds": {"Q1": [[1.0]], "Q2": [[1.0]]},\n'
        f' "estimation": {{"mode": "aposteriori", "ell": [{row}]}},\n'
        ' "seed": 9007199254740993}\n'
    )


def test_a_config_file_reads_the_doubles_json_reads(tmp_path):
    path = tmp_path / "edges.json"
    path.write_text(_edge_document())
    from_file = parse_config(str(path))
    from_json = parse_config(json.loads(_edge_document()))
    for got, want in (
        (from_file.model.F, from_json.model.F),
        (from_file.model.H, from_json.model.H),
        (from_file.estimation.ell, from_json.estimation.ell),
    ):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert from_file.seed == from_json.seed == 2**53 + 1
    assert np.signbit(from_file.estimation.ell[0])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_non_finite_token_in_a_file_is_a_parse_error(tmp_path, token):
    # RFC 8259 has no such number; a dict built in Python still reaches
    # the finiteness checks (test_schema_errors)
    path = tmp_path / "nan.json"
    doc = json.dumps(continuous_doc(), indent=1).replace('"t_end": 1.0', f'"t_end": {token}')
    assert token in doc
    path.write_text(doc)
    line = doc[: doc.index(token)].count("\n") + 1
    with pytest.raises(ParseError, match=rf"invalid JSON at line {line}, column \d+: "):
        parse_config(str(path))


def test_seed_is_an_exact_integer_below_2_64(tmp_path):
    path = tmp_path / "seed.json"
    doc = json.dumps(static_doc())
    path.write_text(doc.replace('"seed": 7', '"seed": 18446744073709551615'))
    assert parse_config(str(path)).seed == 2**64 - 1
    # orjson reads 2**64 as the double 1.8446744073709552e19, which is
    # integral; the seed must not silently become another integer
    path.write_text(doc.replace('"seed": 7', '"seed": 18446744073709551616'))
    with pytest.raises(SchemaError, match=r"^seed must be below 2\*\*64, got 18446744073709551616$"):
        parse_config(str(path))
    for value in (2**64, float(2**64), 2**70):
        with pytest.raises(SchemaError, match=r"^seed must be below 2\*\*64"):
            parse_config({**static_doc(), "seed": value})


def test_report_round_trip_finite():
    report = ResultReport(
        command="estimate",
        estimate=0.5,
        sigma_hat=0.25,
        feasible=True,
        outputs={"x_hat": np.array([0.5])},
        diagnostics={"solver": "dense"},
        timings={"total_s": 0.001},
    )
    again = json.loads(report.to_json())
    assert again["estimate"] == 0.5
    assert again["sigma_hat"] == 0.25
    assert again["outputs"]["x_hat"] == [0.5]


def _refuse_constant(token):
    raise AssertionError(f"report holds the non-JSON token {token}")


def test_report_serializes_infinite_radius_as_string():
    # a report is strict JSON: an infinite scalar is "infinite", and a
    # non-finite array entry null
    report = ResultReport(
        command="filter",
        estimate=0.5,
        sigma_hat=math.inf,
        feasible=False,
        outputs={"x_hat_seq": np.array([[1.0, math.inf], [-math.inf, math.nan]])},
    )
    text = report.to_json()
    data = json.loads(text, parse_constant=_refuse_constant)
    assert data["sigma_hat"] == "infinite"
    assert data["outputs"]["x_hat_seq"] == [[1.0, None], [None, None]]
    assert ", " not in text and ": " not in text


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "y.csv"
    # random 64-bit patterns with subnormals, +-max and -0.0, read back bit
    # for bit; the last input has no rows: the file is a header only
    patterns = np.frombuffer(rng.bytes(8 * 3 * 10_000), dtype=np.float64).reshape(-1, 3)
    edges = [[5e-324, -2.2250738585072e-308, -0.0], [np.finfo(float).max, -np.finfo(float).max, 0.0]]
    for data in (
        rng.standard_normal((7, 3)) * np.pi,
        np.vstack([patterns[np.isfinite(patterns).all(axis=1)], edges]),
        np.zeros((0, 3)),
    ):
        write_trajectory_csv(path, "y", data)
        text = path.read_text().splitlines()
        assert text[0] == "k,y0,y1,y2"
        back = read_trajectory_csv(path, prefix="y")
        assert back.shape == data.shape
        assert np.array_equal(back.view(np.uint64), data.view(np.uint64))


def test_trajectory_csv_reads_the_repr_spelling(tmp_path):
    # a file of Python's float repr (1e-05, 1e+16), as benchmarks and other
    # tools write it, reads back bit for bit
    rng = np.random.default_rng(1)
    data = np.vstack(
        [
            rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-20, 20, (50, 2)),
            [[1e-05, 1e16], [-0.0, 5e-324], [np.finfo(float).max, 0.1]],
        ]
    )
    lines = ["k,y0,y1"] + [f"{k},{a!r},{b!r}" for k, (a, b) in enumerate(data.tolist())]
    assert "1e-05" in lines[-3] and "1e+16" in lines[-3]
    path = tmp_path / "y.csv"
    path.write_text("\n".join(lines) + "\n")
    back = read_trajectory_csv(path, prefix="y")
    assert np.array_equal(back.view(np.uint64), data.view(np.uint64))


def test_trajectory_csv_text_is_pinned(tmp_path):
    # the exact bytes of edge values, in the reports' spelling: signed
    # zero, the least subnormal, +-max and values that print with an
    # exponent or without one
    path = tmp_path / "x.csv"
    big = np.finfo(float).max
    data = [[-0.0, 5e-324], [big, -big], [0.1, 1e16], [0.00001, -2.0]]
    write_trajectory_csv(path, "x", data)
    assert path.read_bytes() == (
        b"k,x0,x1\n"
        b"0,-0.0,5e-324\n"
        b"1,1.7976931348623157e308,-1.7976931348623157e308\n"
        b"2,0.1,1e16\n"
        b"3,0.00001,-2.0\n"
    )
    write_trajectory_csv(path, "y", [0.5, -2.0])
    assert path.read_bytes() == b"k,y0\n0,0.5\n1,-2.0\n"
    write_trajectory_csv(path, "y", np.zeros((0, 2)))
    assert path.read_bytes() == b"k,y0,y1\n"


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_trajectory_csv_refuses_a_non_finite_row(tmp_path, bad):
    # JSON would write null, which read_trajectory_csv cannot read back
    path = tmp_path / "x.csv"
    data = [[1.0, 2.0], [3.0, 4.0], [5.0, bad], [bad, 1.0]]
    with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}: row 2 contains non-finite entries$"):
        write_trajectory_csv(path, "x", data)
    assert not path.exists()


def test_trajectory_csv_validation(tmp_path):
    path = tmp_path / "t.csv"
    for text, message in (
        ("k,x0\n0,1.0\n2,2.0\n", "row 1 has index 2, expected 1"),
        ("k,x0\n0,1.0\n1.5,2.0\n", "row 1 has index 1.5, expected 1"),
        ("k,x0\n0,1.0,5.0\n", "row 0 has 3 fields, expected 2"),
        ("k,x0\n0,1.0\n1,abc\n", "row 1 is not numeric: 'abc' is not a JSON number"),
        ("k,x0\n0,1.0\n1,\n", "row 1 is not numeric: '' is not a JSON number"),
        # fields are JSON numbers, the writer's grammar: no nan or inf (the
        # writer refuses them), no bare or trailing point, no plus sign
        ("k,x0\n0,1.0\n1,nan\n", "row 1 is not numeric: 'nan' is not a JSON number"),
        ("k,x0\n0,-inf\n", "row 0 is not numeric: '-inf' is not a JSON number"),
        ("k,x0\n0,.1\n", "row 0 is not numeric: '.1' is not a JSON number"),
        ("k,x0\n0,+0.2\n", "row 0 is not numeric: '+0.2' is not a JSON number"),
        ("k,x0\n0, 1.\n", "row 0 is not numeric: '1.' is not a JSON number"),
        ("k,x0\n0,true\n", "row 0 is not numeric: 'true' is not a JSON number"),
        ("k,x0\n0,\"1\"\n", "row 0 is not numeric: '\"1\"' is not a JSON number"),
        ("k,x0\n\n0,1.0\n\n1,2.0,3.0\n", "row 1 has 3 fields, expected 2"),
    ):
        path.write_text(text)
        with pytest.raises(ParseError, match=f": {re.escape(message)}"):
            read_trajectory_csv(path)
    path.write_text("idx,x0\n0,1.0\n")
    with pytest.raises(ParseError):
        read_trajectory_csv(path)  # wrong first header
    path.write_text("k,z0\n0,1.0\n")
    with pytest.raises(ParseError):
        read_trajectory_csv(path, prefix="x")  # prefix mismatch
    # spaces around header fields are skipped as around row fields
    path.write_text("k, y0 ,\ty1\n0, 1.5,2\n")
    assert read_trajectory_csv(path, prefix="y").tolist() == [[1.5, 2.0]]
    path.write_text("")
    with pytest.raises(ParseError):
        read_trajectory_csv(path)
    path.write_text("k,x0\n")
    assert read_trajectory_csv(path).shape == (0, 1)  # header only: no rows
    # blank lines and spaces around fields are skipped; an index is a number
    path.write_text("k,x0,x1\n\n 0 , 1.5 ,-2\n\n1e0,\t2.0,3 \n\n")
    assert read_trajectory_csv(path).tolist() == [[1.5, -2.0], [2.0, 3.0]]
    path.write_bytes(b"\r\nk,x0\r\n0,1.5\r\n \t\r\n1,-2\r\n")
    assert read_trajectory_csv(path, prefix="x").tolist() == [[1.5], [-2.0]]
    path.write_bytes(b"k,x0\n0,1.0\xff\n")
    with pytest.raises(ParseError, match=r": not UTF-8 text \(invalid start byte\)$"):
        read_trajectory_csv(path)
    with pytest.raises(ParseError):
        read_trajectory_csv(tmp_path / "missing.csv")
