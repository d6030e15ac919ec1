"""Config documents, result reports, and trajectory CSV files."""

import json
import math
import re

import numpy as np
import pytest

from descriptor_minimax.config import (
    ResultReport,
    parse_config,
    read_trajectory_csv,
    write_trajectory_csv,
)
from descriptor_minimax import ConstantFunction, DimensionError, ParseError, SchemaError


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
    # json reads NaN as a float; a non-finite horizon endpoint is rejected
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


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "kind": "static",\n  oops\n}\n')
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert "line 3" in str(err.value)


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


def test_report_serializes_infinite_radius_as_string():
    report = ResultReport(
        command="estimate", estimate=None, sigma_hat=math.inf, feasible=False
    )
    data = json.loads(report.to_json())
    assert data["sigma_hat"] == "infinite"
    assert "inf" not in json.dumps(data["sigma_hat"]).lower().replace(
        "infinite", ""
    )


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


def test_trajectory_csv_text_is_pinned(tmp_path):
    # the exact bytes of edge values: signed zero, the least subnormal,
    # +-max, the non-finite values and two that print with an exponent
    path = tmp_path / "x.csv"
    big = np.finfo(float).max
    data = [[-0.0, 5e-324], [big, -big], [np.inf, np.nan], [0.1, 1e16], [-np.inf, 1.0]]
    write_trajectory_csv(path, "x", data)
    assert path.read_text(encoding="utf-8") == (
        "k,x0,x1\n"
        "0,-0.0,5e-324\n"
        "1,1.7976931348623157e+308,-1.7976931348623157e+308\n"
        "2,inf,nan\n"
        "3,0.1,1e+16\n"
        "4,-inf,1.0\n"
    )
    write_trajectory_csv(path, "y", [0.5, -2.0])
    assert path.read_text(encoding="utf-8") == "k,y0\n0,0.5\n1,-2.0\n"


def test_trajectory_csv_validation(tmp_path):
    path = tmp_path / "t.csv"
    for text, message in (
        ("k,x0\n0,1.0\n2,2.0\n", "row 1 has index 2, expected 1"),
        ("k,x0\n0,1.0\n1.5,2.0\n", "row 1 has index 1.5, expected 1"),
        ("k,x0\n0,1.0,5.0\n", "row 0 has 3 fields, expected 2"),
        ("k,x0\n0,1.0\n1,abc\n", "row 1 is not numeric"),
        ("k,x0\n0,1.0\n1,\n", "row 1 is not numeric"),
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
    path.write_text("")
    with pytest.raises(ParseError):
        read_trajectory_csv(path)
    path.write_text("k,x0\n")
    assert read_trajectory_csv(path).shape == (0, 1)  # header only: no rows
    # blank lines and spaces around fields are skipped; an index is a number
    path.write_text("k,x0,x1\n\n 0 , 1.5 ,-2\n\n1e0,\t2.0,3 \n\n")
    assert read_trajectory_csv(path).tolist() == [[1.5, -2.0], [2.0, 3.0]]
    with pytest.raises(ParseError):
        read_trajectory_csv(tmp_path / "missing.csv")
