"""Command-line interface: exit codes, report serialization, file IO.

Most tests call main() in process; one smoke test goes through a real
subprocess to cover the console entry point.
"""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descriptor_minimax import InvalidInput, SchemaError, filter_run
from descriptor_minimax.cli import (
    COMMANDS,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    _build_parser,
    main,
    run,
)
from descriptor_minimax.config import (
    KINDS,
    MODES,
    ResultReport,
    estimate_report,
    parse_config,
    read_trajectory_csv,
    write_trajectory_csv,
)


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def write_obs(tmp_path, rows, name="y.csv"):
    path = tmp_path / name
    write_trajectory_csv(path, "y", np.asarray(rows, dtype=float))
    return str(path)


def scalar_doc(mode="aposteriori", ell=(1.0,)):
    return {
        "kind": "static",
        "model": {"F": [[1.0]], "B": [[1.0]], "H": [[1.0]]},
        "bounds": {"Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": mode, "ell": list(ell)},
    }


def chain_doc(mode="aposteriori"):
    doc = {
        "kind": "discrete_dae",
        "model": {
            "horizon": 1,
            "F": [[1.0]],
            "C": [[1.0]],
            "B": [[1.0]],
            "H": [[1.0]],
        },
        "bounds": {"Q0": [[1.0]], "Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": mode, "ell_seq": [[0.0], [1.0]]},
    }
    if mode == "filter":
        doc["estimation"] = {"mode": "filter", "ell": [1.0]}
    return doc


def continuous_doc(mode="apriori"):
    doc = {
        "kind": "continuous_dae",
        "model": {
            "F": [[1.0]],
            "C": [[0.0]],
            "H": [[1.0]],
            "t_start": 0.0,
            "t_end": 1.0,
        },
        "bounds": {"Q0": [[1.0]], "Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": mode, "ell": [1.0]},
        "grid": {"start": 0.0, "end": 1.0, "steps": 64},
    }
    if mode == "tikhonov":
        doc["estimation"]["alphas"] = [2.0**-k for k in range(1, 8)]
    return doc


# ---------------------------------------------------------------------------
# in-process main()


def test_estimate_scalar_aposteriori(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, scalar_doc()),
            "--observations",
            write_obs(tmp_path, [[1.0]]),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["estimate"] == pytest.approx(0.5, abs=1e-12)
    assert report["sigma_hat"] == pytest.approx(0.5, abs=1e-12)
    assert report["feasible"] is True
    assert report["command"] == "estimate"


def test_estimate_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, scalar_doc()),
            "--observations",
            write_obs(tmp_path, [[1.0]]),
            "--output",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["estimate"] == pytest.approx(0.5)


def test_infeasible_functional_exits_2(tmp_path, capsys):
    doc = {
        "kind": "static",
        "model": {"F": [[1.0, 0.0]], "B": [[1.0]], "H": [[1.0, 0.0]]},
        "bounds": {"Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": "aposteriori", "ell": [0.0, 1.0]},
    }
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, doc),
            "--observations",
            write_obs(tmp_path, [[0.5]]),
        ]
    )
    assert code == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_hat"] == "infinite"
    assert report["feasible"] is False


def test_inconsistent_data_exits_1(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, scalar_doc()),
            "--observations",
            write_obs(tmp_path, [[10.0]]),
        ]
    )
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_missing_observations_for_aposteriori_exits_1(tmp_path, capsys):
    code = main(
        ["estimate", "--config", write_doc(tmp_path, scalar_doc())]
    )
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    # a header without rows gets the row-count message, not a traceback
    obs = tmp_path / "empty.csv"
    obs.write_text("k,y0\n")
    for doc, message in (
        (scalar_doc(), "exactly one observation row"),
        (chain_doc(), "expected 2 observation vectors, got 0"),
    ):
        config = write_doc(tmp_path, doc)
        assert main(["estimate", "--config", config, "--observations", str(obs)]) == EXIT_ERROR
        assert message in capsys.readouterr().err


def test_filter_chain(tmp_path, capsys):
    # the attained radius: ell'P_N ell = 0.6 and the data use beta_N = 0.6
    # of the budget, so sqrt(0.4 * 0.6); estimate reports the same on the
    # same chain and data
    obs = write_obs(tmp_path, [[1.0], [1.0]])
    reports = []
    for command, doc in (("filter", chain_doc("filter")), ("estimate", chain_doc())):
        code = main([command, "--config", write_doc(tmp_path, doc), "--observations", obs])
        assert code == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    report, one_shot = reports
    assert report["estimate"] == pytest.approx(0.8, abs=1e-12)
    assert report["sigma_hat"] == pytest.approx(math.sqrt(0.24), abs=1e-12)
    assert one_shot["estimate"] == pytest.approx(report["estimate"], abs=1e-12)
    assert one_shot["sigma_hat"] == pytest.approx(report["sigma_hat"], abs=1e-12)


def test_filter_at_horizon_zero_reports_its_solver(tmp_path, capsys):
    # one step and no transition: P_0 = (1 + 1)^-1, x_hat_0 = P_0 y_0, and
    # y_0 = 1 uses beta = 1/2 of the budget
    doc = chain_doc("filter")
    doc["model"] = {"horizon": 0, "F": [[1.0]], "H": [[1.0]]}
    doc["bounds"] = {"Q0": [[1.0]], "Q2": [[1.0]]}
    argv = ["filter", "--config", write_doc(tmp_path, doc)]
    assert main(argv + ["--observations", write_obs(tmp_path, [[1.0]])]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["estimate"] == pytest.approx(0.5, abs=1e-15)
    assert report["sigma_hat"] == pytest.approx(0.5, abs=1e-15)
    config = parse_config(doc)
    run = filter_run(config.model, config.bounds, [[1.0]], [1.0])
    assert report["diagnostics"]["solver"] == run.solver


# command, document, rows it reads, name its estimator gives the rows
OBSERVATION_READERS = [
    ("filter", chain_doc("filter"), 2, "y_seq"),
    ("estimate", chain_doc(), 2, "y_seq"),
    ("validate", chain_doc(), 2, "y_seq"),
    ("riccati", continuous_doc("riccati"), 65, "y_samples"),
    ("estimate", continuous_doc(), 65, "y_samples"),
    ("estimate", scalar_doc(), 1, "y"),
    ("validate", scalar_doc(), 1, "y"),
]


@pytest.mark.parametrize("fault", ["count", "width", "nan", "ragged"])
def test_filter_rejects_bad_observation_rows(tmp_path, capsys, fault):
    # every command refuses the same rows where its estimator reads them:
    # a chain's vector_stack, a grid's sample check, a static sized_vector.
    # A nan is no JSON number, so the reader refuses it, naming its row
    obs = tmp_path / "y.csv"
    for command, doc, count, name in OBSERVATION_READERS:
        header, rows = "k,y0", [f"{k},1.0" for k in range(count)]
        last = count - 1
        if fault == "count":
            rows.append(f"{count},1.0")
            what = "observation vectors" if name == "y_seq" else "observation samples"
            message = f"expected {count} {what}, got {count + 1}"
            if name == "y":
                message = "static problems take exactly one observation row"
        elif fault == "width":
            header, rows = "k,y0,y1", [f"{k},1.0,1.0" for k in range(count)]
            message = f"{name}{'[0]' if count > 1 else ''} has length 2, expected 1"
        elif fault == "nan":
            rows[last] = f"{last},nan"
            message = f"{obs}: row {last} is not numeric: 'nan' is not a JSON number"
        else:
            rows[last] += ",2.0"
            message = f"{obs}: row {last} has 3 fields, expected 2"
        obs.write_text("\n".join([header] + rows) + "\n")
        argv = [command, "--config", write_doc(tmp_path, doc), "--observations", str(obs)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n", (command, name)


def test_riccati_scalar(tmp_path, capsys):
    doc = continuous_doc("riccati")
    code = main(
        [
            "riccati",
            "--config",
            write_doc(tmp_path, doc),
            "--observations",
            write_obs(tmp_path, np.zeros((65, 1))),
            "--grid-steps",
            "64",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # the extrapolated chains are second order: within h^2 of K = 1
    assert report["sigma_hat"] == pytest.approx(1.0, abs=2.4e-4)


def test_riccati_refuses_an_odd_grid(tmp_path, capsys):
    # the chain of every other node reads y at those nodes only
    config = write_doc(tmp_path, continuous_doc("riccati"))
    for steps, code in ((63, EXIT_ERROR), (64, EXIT_OK)):
        obs = write_obs(tmp_path, np.zeros((steps + 1, 1)))
        argv = ["riccati", "--config", config, "--observations", obs, "--grid-steps", str(steps)]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == EXIT_ERROR:
            assert captured.err == (
                "error: riccati_filter needs an even number of grid steps, got 63: "
                "the chain of every other node reads y at those nodes\n"
            )


def test_riccati_reports_the_grid_chain_record(tmp_path, capsys):
    # the record is the grid chain's filter record plus the extrapolation's
    argv = ["riccati", "--config", write_doc(tmp_path, continuous_doc("riccati"))]
    argv += ["--observations", write_obs(tmp_path, np.zeros((65, 1)))]
    assert main(argv) == EXIT_OK
    solver = json.loads(capsys.readouterr().out)["diagnostics"]["solver"]
    record = {"path", "rcond_estimate", "rcond_floor", "blocks", "blocks_factored", "correction"}
    assert solver.keys() == record | {"extrapolation_gap"}
    assert 0.0 < solver["extrapolation_gap"] < 0.1


def test_riccati_nonrepresentable_exits_2(tmp_path, capsys):
    doc = continuous_doc("riccati")
    doc["model"]["F"] = [[0.0]]
    code = main(
        [
            "riccati",
            "--config",
            write_doc(tmp_path, doc),
            "--observations",
            write_obs(tmp_path, np.zeros((65, 1))),
        ]
    )
    assert code == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_hat"] == "infinite"
    # no chain was run, so there is no solver record
    assert report["diagnostics"]["solver"] is None


def test_mismatched_continuous_weight_exits_1(tmp_path, capsys):
    doc = continuous_doc("riccati")
    doc["bounds"]["Q1"] = [[1.0, 0.0], [0.0, 1.0]]
    config = write_doc(tmp_path, doc)
    assert main(["check", "--config", config]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    obs = write_obs(tmp_path, np.zeros((65, 1)))
    code = main(["riccati", "--config", config, "--observations", obs])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_tikhonov_reports_residuals(tmp_path, capsys):
    code = main(
        ["tikhonov", "--config", write_doc(tmp_path, continuous_doc("tikhonov"))]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    residuals = report["diagnostics"]["residual_seq"]
    assert len(residuals) == 6
    assert residuals[-1] < residuals[0]


def test_continuous_apriori_with_grid_override(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, continuous_doc()),
            "--grid-steps",
            "128",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["grid_steps"] == 128


def test_check_subcommand(tmp_path, capsys):
    code = main(["check", "--config", write_doc(tmp_path, scalar_doc())])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "check"
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "static"')
    assert main(["check", "--config", str(bad)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_csv_deterministically(tmp_path, capsys):
    doc = chain_doc()
    doc["estimation"] = {"mode": "aposteriori", "ell_seq": [[0.0], [1.0]]}
    doc["seed"] = 5
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    for out_dir in (out_a, out_b):
        code = main(
            [
                "simulate",
                "--config",
                write_doc(tmp_path, doc),
                "--output",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
    states_a = (out_a / "states.csv").read_bytes()
    states_b = (out_b / "states.csv").read_bytes()
    assert states_a == states_b
    obs = read_trajectory_csv(out_a / "observations.csv", prefix="y")
    assert obs.shape == (2, 1)
    states = read_trajectory_csv(out_a / "states.csv", prefix="x")
    assert states.shape == (2, 1)


def test_simulate_refuses_an_overflowed_draw(tmp_path, capsys):
    # x_{k+1} = 1e200 x_k overflows at step 2; no file is written
    doc = chain_doc("filter")
    doc["model"]["horizon"] = 3
    doc["model"]["C"] = [[1e200]]
    out = tmp_path / "out"
    argv = ["simulate", "--config", write_doc(tmp_path, doc), "--output", str(out)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: state or observation at step 2 is not finite; "
        "the forward recursion overflowed\n"
    )
    assert not (out / "states.csv").exists()


def test_simulate_seed_override_changes_draw(tmp_path, capsys):
    doc = chain_doc()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    config = write_doc(tmp_path, doc)
    assert main(["simulate", "--config", config, "--output", str(out_a)]) == EXIT_OK
    capsys.readouterr()
    assert (
        main(
            [
                "simulate",
                "--config",
                config,
                "--output",
                str(out_b),
                "--seed",
                "99",
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    assert (out_a / "states.csv").read_bytes() != (out_b / "states.csv").read_bytes()


def test_validate_scalar_has_zero_violations(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--config",
            write_doc(tmp_path, scalar_doc()),
            "--observations",
            write_obs(tmp_path, [[1.0]]),
            "--samples",
            "4000",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    diag = report["diagnostics"]["oracle"]
    assert diag["violation_count"] == 0
    assert diag["samples_checked"] == 4000
    assert diag["attained_fraction"] >= 0.95


def test_validate_passes_on_large_data_the_model_explains(tmp_path, capsys):
    # x = (0, y) explains y = 1e14 with no energy: the radius is 1, and no
    # sampled state lies beyond it
    doc = scalar_doc(ell=(1.0, 1.0))
    doc["model"] = {"F": [[1.0, 0.0]], "B": [[1.0]], "H": [[1.0, 1.0]]}
    argv = ["validate", "--config", write_doc(tmp_path, doc)]
    argv += ["--observations", write_obs(tmp_path, [[1e14]]), "--samples", "2000"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_hat"] == pytest.approx(1.0, abs=1e-15)
    assert report["diagnostics"]["oracle"]["violation_count"] == 0


def test_usage_errors_exit_1(tmp_path, capsys):
    config = write_doc(tmp_path, chain_doc())
    out = tmp_path / "out"
    out.mkdir()
    # 2 is reserved for an infinite radius; a bad command line is an error
    for argv in (
        ["simulate", "--config", config, "--output", str(out), "--seed", "-1"],
        ["validate", "--config", write_doc(tmp_path, scalar_doc()), "--seed", "-1",
         "--observations", write_obs(tmp_path, [[1.0]]), "--samples", "10"],
        ["simulate", "--config", config, "--output", str(out), "--seed", "abc"],
        ["optimize", "--config", config],
    ):
        assert main(argv) == EXIT_ERROR
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert main(["estimate", "--help"]) == EXIT_OK


def test_a_step_count_numpy_cannot_index_is_one_error_line(tmp_path, capsys):
    # orjson reads 10**25 as 1e25, an integral float that parsed as a step
    # count; estimate then ended in a ValueError traceback from np.linspace
    doc = continuous_doc()
    doc["grid"]["steps"] = 10**25
    assert main(["estimate", "--config", write_doc(tmp_path, doc)]) == EXIT_ERROR
    captured = capsys.readouterr()
    limit = np.iinfo(np.intp).max
    assert captured.err == f"error: grid: steps must be below {limit}, got 1e+25\n"
    assert captured.out == ""


def test_seed_option_is_an_exact_integer_below_2_64(tmp_path, capsys):
    # a report echoes the seed, and it holds integers below 2**64 only
    chain = write_doc(tmp_path, chain_doc())
    simulate = ["simulate", "--config", chain, "--output", str(tmp_path / "out")]
    validate = ["validate", "--config", chain, "--samples", "10"]
    validate += ["--observations", write_obs(tmp_path, [[1.0], [1.0]])]
    for argv in (simulate, validate):
        assert main(argv + ["--seed", str(2**64 - 1)]) == EXIT_OK
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics.get("oracle", diagnostics)["seed"] == 2**64 - 1
        assert main(argv + ["--seed", str(2**64)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be below 2**64, got {2**64}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "block, field, value, entry",
    [
        ("model", "F", [["1"]], "model.F[0][0] is not a number, got '1'"),
        ("model", "B", [[True]], "model.B[0][0] is not a number, got True"),
        ("estimation", "ell", ["2"], "estimation.ell[0] is not a number, got '2'"),
    ],
)
def test_a_string_or_boolean_entry_is_one_error_line(tmp_path, capsys, block, field, value, entry):
    # np.asarray(..., dtype=float) would read each of these as a number
    doc = scalar_doc()
    doc[block][field] = value
    argv = ["estimate", "--config", write_doc(tmp_path, doc)]
    assert main(argv + ["--observations", write_obs(tmp_path, [[0.5]])]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {entry}\n" and captured.out == ""


@pytest.mark.parametrize("option", ["--config", "--observations"])
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, option):
    # the bad byte is on line 3 of each file
    latin1 = {
        "--config": b"\n\n" + json.dumps(scalar_doc()).encode().replace(b'"static"', b'"st\xe4tic"'),
        "--observations": b"k,y0\n\n0,1.0\xff\n",
    }
    path = tmp_path / "latin1"
    path.write_bytes(latin1[option])
    files = {"--config": write_doc(tmp_path, scalar_doc()), "--observations": write_obs(tmp_path, [[1.0]])}
    files[option] = str(path)
    argv = ["estimate", "--config", files["--config"], "--observations", files["--observations"]]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    if option == "--config":
        assert captured.err == (
            f"error: {path}: not UTF-8 text at line 3 (invalid continuation byte)\n"
        )


OPTIONS = {
    "--config": "problem.json",
    "--observations": "y.csv",
    "--output": "out",
    "--seed": "3",
    "--samples": "10",
    "--grid-steps": "8",
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_option_parses_before_and_after_the_command(command):
    parser = _build_parser()
    for option, value in OPTIONS.items():
        rest = [] if option == "--config" else ["--config", "problem.json"]
        for argv in ([command, option, value] + rest, [option, value, command] + rest):
            args = parser.parse_args(argv)
            assert args.command == command
            assert str(getattr(args, option[2:].replace("-", "_"))) == value


def test_one_parser_declares_each_option_once():
    parser = _build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    declared = [s for a in parser._actions for s in a.option_strings]
    assert sorted(declared) == sorted(["-h", "--help", *OPTIONS])


def test_readme_usage_lines_parse():
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == len(COMMANDS)
    parser = _build_parser()
    for line in lines:
        program, *argv = line.split()
        assert program == "descriptor-minimax"
        assert parser.parse_args(argv).command in COMMANDS


def test_an_unwritable_output_is_one_error_line(tmp_path, capsys):
    config = write_doc(tmp_path, chain_doc())
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing" / "r.json"
    for argv, path in (
        (["estimate", "--observations", write_obs(tmp_path, [[1.0], [1.0]])], missing),
        (["simulate"], taken),  # its directory is a file
    ):
        assert main(argv + ["--config", config, "--output", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: cannot write {re.escape(str(path))}: [^\n]+\n", captured.err)


def test_grid_steps_needs_a_continuous_problem(tmp_path, capsys):
    for doc, rows in ((scalar_doc(), [[1.0]]), (chain_doc(), [[1.0], [1.0]])):
        argv = ["estimate", "--config", write_doc(tmp_path, doc), "--grid-steps", "8"]
        assert main(argv + ["--observations", write_obs(tmp_path, rows)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: --grid-steps applies to continuous_dae problems; "
            f"the config is {doc['kind']}\n"
        )


# ---------------------------------------------------------------------------
# run() level


def test_run_returns_report_and_code(tmp_path):
    config = parse_config(scalar_doc())
    report, code = run("estimate", config, np.array([1.0]))
    assert code == EXIT_OK
    assert report.estimate == pytest.approx(0.5)
    assert "seconds" in report.timings


def test_run_rejects_unknown_command(tmp_path):
    config = parse_config(scalar_doc())
    with pytest.raises(InvalidInput):
        run("optimize", config, np.array([1.0]))


def test_run_refuses_a_pair_the_command_does_not_run():
    # hand-built configs that parse_config would refuse reach no solver
    config = parse_config(scalar_doc())
    for command, mode in (
        ("validate", "apriori"),
        ("tikhonov", "filter"),
        ("riccati", "riccati"),
        ("filter", "filter"),
        ("simulate", "aposteriori"),
    ):
        estimation = dataclasses.replace(config.estimation, mode=mode)
        handmade = dataclasses.replace(config, estimation=estimation)
        with pytest.raises(InvalidInput, match=f"^{command} runs modes"):
            run(command, handmade, np.array([0.0]))


# ---------------------------------------------------------------------------
# the command table

PAIRS = [
    ("static", "apriori"),
    ("static", "aposteriori"),
    ("discrete_dae", "apriori"),
    ("discrete_dae", "aposteriori"),
    ("discrete_dae", "filter"),
    ("continuous_dae", "apriori"),
    ("continuous_dae", "filter"),
    ("continuous_dae", "riccati"),
    ("continuous_dae", "tikhonov"),
]
DOCS = {"static": (scalar_doc, 1), "discrete_dae": (chain_doc, 2), "continuous_dae": (continuous_doc, 65)}


def test_pairs_are_the_ones_parse_config_accepts():
    accepted = []
    for kind in KINDS:
        for mode in MODES:
            try:
                parse_config(DOCS[kind][0](mode))
            except SchemaError:
                continue
            accepted.append((kind, mode))
    assert accepted == PAIRS


@pytest.mark.parametrize("kind, mode", PAIRS)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_on_every_accepted_pair(tmp_path, capsys, command, kind, mode):
    make, rows = DOCS[kind]
    out = tmp_path / "out"
    argv = [command, "--config", write_doc(tmp_path, make(mode)), "--output", str(out)]
    argv += ["--samples", "50"] if "samples" in COMMANDS[command].options else []
    obs = write_obs(tmp_path, np.zeros((rows, 1)))
    spec = COMMANDS[command]
    code = main(argv + ["--observations", obs])
    captured = capsys.readouterr()
    if mode not in spec.modes or kind not in spec.kinds:
        assert code == EXIT_ERROR
        assert captured.err == (
            f"error: {command} runs modes {', '.join(spec.modes)} on kinds "
            f"{', '.join(spec.kinds)}; the config has mode {mode!r} and kind {kind!r}\n"
        )
        return
    assert code == EXIT_OK, captured.err
    report = json.loads(captured.out if spec.output_dir else out.read_text())
    assert report["command"] == command and "seconds" in report["timings"]
    code = main(argv)
    if mode in spec.observations:
        assert code == EXIT_ERROR
        message = f"error: {command} in mode {mode} requires --observations\n"
        assert capsys.readouterr().err == message
    else:
        assert code == EXIT_OK


ZERO_STATE = [
    (command, kind, mode)
    for kind, mode in PAIRS
    if kind != "static"
    for command, spec in COMMANDS.items()
    if kind in spec.kinds and mode in spec.modes
]


@pytest.mark.parametrize("command, kind, mode", ZERO_STATE)
def test_a_model_without_states_is_one_error_from_every_command(
    tmp_path, capsys, command, kind, mode
):
    # F with 0 columns is refused by the model, before any command runs
    make, rows = DOCS[kind]
    doc = make(mode)
    doc["model"].update(F=[[]], C=[[]], H=[[]])
    doc["estimation"].pop("ell_seq", None)
    doc["estimation"]["ell"] = []
    argv = [command, "--config", write_doc(tmp_path, doc), "--output", str(tmp_path / "out")]
    argv += ["--observations", write_obs(tmp_path, np.zeros((rows, 1)))]
    argv += ["--samples", "50"] if "samples" in COMMANDS[command].options else []
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    assert re.fullmatch(
        r"error: model: F(_seq)? has 0 columns; a (chain|system) needs at least one state\n",
        captured.err,
    ), captured.err


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_command_table_matches_the_readme():
    # README's CLI table has one row per command, read the same way as
    # cli.COMMANDS: modes, kinds, modes that need data, --output role
    table = {}
    for line in _readme_cli_section().splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        names = [tuple(re.findall(r"`([a-z_]+)`", c)) for c in cells]
        table[names[0][0]] = (
            MODES if cells[1] == "any" else names[1],
            KINDS if cells[2] == "any" else names[2],
            names[3],
            cells[4].startswith("directory"),
            tuple(re.findall(r"`--([a-z]+)`", cells[5])),
        )
    code = {
        name: (spec.modes, spec.kinds, spec.observations, spec.output_dir, spec.options)
        for name, spec in COMMANDS.items()
    }
    assert table == code


def test_check_samples_continuous_weights_on_the_grid(tmp_path, capsys):
    # check fails exactly where estimate does, on the grid --grid-steps sets
    negative = continuous_doc()
    negative["bounds"]["Q1"] = [[-1.0]]
    falling = continuous_doc()
    falling["bounds"]["Q1"] = {"type": "polynomial", "coefficients": [[[1.0]], [[-3.0]]]}
    for doc, steps, where in ((negative, "64", "0"), (falling, "8", "0.375"), (falling, "2", "0.5")):
        config = write_doc(tmp_path, doc)
        for command in ("check", "estimate"):
            assert main([command, "--config", config, "--grid-steps", steps]) == EXIT_ERROR
            message = f"error: Q1(t) at t={where} is not positive definite\n"
            assert capsys.readouterr().err == message


def _verdict_docs():
    static = scalar_doc()
    static["model"] = {"F": [[1.0, 0.0]], "B": [[1.0]], "H": [[1.0, 0.0]]}
    static["estimation"]["ell"] = [0.0, 1.0]  # x1 is never observed
    bad_weight = continuous_doc("riccati")
    bad_weight["model"]["F"] = [[0.0]]
    bad_weight["model"]["C"] = [[1.0]]
    bad_weight["bounds"]["Q1"] = [[-1.0]]
    filter_seq = chain_doc("filter")
    filter_seq["estimation"] = {"mode": "filter", "ell_seq": [[0.0], [1.0]]}
    endpoint = continuous_doc("riccati")
    endpoint["model"]["F"] = [[0.0]]
    endpoint["model"]["C"] = [[-1.0]]
    static_prior = scalar_doc("apriori", ell=(0.0, 1.0))
    static_prior["model"] = static["model"]
    chain_prior = chain_doc("apriori")
    del chain_prior["model"]["F"], chain_prior["model"]["H"]
    chain_prior["model"]["F_seq"] = [[[1.0]], [[0.0]]]  # x_1 is never reached
    chain_prior["model"]["C"] = [[0.0]]
    chain_prior["model"]["H_seq"] = [[[1.0]], [[0.0]]]
    continuous_prior = continuous_doc("apriori")
    continuous_prior["model"]["F"] = [[1.0, 0.0], [0.0, 0.0]]  # nor is x2
    continuous_prior["model"]["C"] = [[-1.0, 0.0], [0.0, 0.0]]
    continuous_prior["model"]["H"] = [[1.0, 0.0]]
    continuous_prior["bounds"]["Q0"] = continuous_prior["bounds"]["Q1"] = np.eye(2).tolist()
    continuous_prior["estimation"]["ell"] = [0.0, 1.0]
    for doc in (bad_weight, endpoint, continuous_prior):
        doc["grid"]["steps"] = 4
    # index 1, and H reads x2, which the algebraic row ties to x1
    singular = {}
    for mode in ("riccati", "filter"):
        singular[mode] = continuous_doc(mode)
        singular[mode]["model"].update(
            F=[[1.0, 0.0], [0.0, 0.0]], C=[[20.0, 1.0], [0.5, -2.0]], H=[[0.0, 1.0]]
        )
        eye = np.eye(2).tolist()
        singular[mode]["bounds"] = {"Q0": eye, "Q1": eye, "Q2": [[1.0]]}
        singular[mode]["estimation"]["ell"] = [1.0, 0.0]
        singular[mode]["grid"]["steps"] = 500
    nodes = np.zeros((501, 1))
    ok, inf, err = EXIT_OK, EXIT_INFEASIBLE, EXIT_ERROR
    no_disturbance = [[10.0], [10.0]]  # no admissible disturbance explains these
    return {
        "a": (static, [[0.5]], {"estimate": inf, "validate": inf, "check": ok}),
        "b": (bad_weight, np.zeros((5, 1)), {"riccati": err, "simulate": err, "check": err}),
        "c": (filter_seq, np.ones((2, 1)), {"filter": err, "simulate": err, "check": err}),
        # simulate needs a regular F_0 to start the state, whatever ell is
        "d": (endpoint, np.zeros((5, 1)), {"riccati": inf, "simulate": err, "check": ok}),
        "e": (
            chain_doc(),
            no_disturbance,
            {"estimate": err, "validate": err, "simulate": ok, "check": ok},
        ),
        "f": (static_prior, [[0.5]], {"estimate": inf, "check": ok}),
        # simulate steps forward through regular F_k only
        "g": (chain_prior, [[0.5], [0.5]], {"estimate": inf, "simulate": err, "check": ok}),
        "h": (continuous_prior, np.zeros((5, 1)), {"estimate": inf, "simulate": err, "check": ok}),
        # riccati and filter answer the same problem finitely
        "i": (singular["riccati"], nodes, {"riccati": ok, "simulate": err, "check": ok}),
        "j": (singular["filter"], nodes, {"filter": ok, "simulate": err, "check": ok}),
        # e's chain and data, which filter rejects as estimate does
        "k": (chain_doc("filter"), no_disturbance, {"filter": err, "simulate": ok, "check": ok}),
        **_lost_docs(),
    }


def _lost_docs():
    """ROADMAP item 18's unstable chains, F = 1, H = 0 and unit weights:
    C = 50 on 500 and 1000 steps, and "late drift" (C = -1, then 60 from
    t = 0.5) on 400. Each is a continuous document in the modes of
    estimate, filter and riccati, and its implicit-Euler chain a
    discrete_dae document in those of estimate and filter; every one
    gives an infinite radius."""
    late = {"type": "table", "times": [0.0, 0.5], "values": [[[-1.0]], [[60.0]]]}
    docs = {}
    for label, C, steps in (("C50-M500", 50.0, 500), ("C50-M1000", 50.0, 1000), ("drift", None, 400)):
        system = continuous_doc()
        system["model"].update(C=late if C is None else [[C]], H=[[0.0]])
        system["grid"]["steps"] = steps
        h = 1.0 / steps
        drift = np.full(steps + 1, -1.0 if C is None else C)
        if C is None:
            drift[steps // 2 :] = 60.0  # from t = 0.5 on
        chain = {
            "kind": "discrete_dae",
            "model": {
                "horizon": steps,
                "F_seq": np.concatenate([[1.0], 1.0 - h * drift[1:]]).reshape(-1, 1, 1).tolist(),
                "C": [[1.0]],
                "B": [[h]],
                "H": [[0.0]],
            },
            "bounds": {"Q0": [[1.0]], "Q1": [[h]], "Q2": [[h]]},
        }
        rows = np.zeros((steps + 1, 1))
        for mode in ("apriori", "filter", "riccati"):
            command = "estimate" if mode == "apriori" else mode
            docs[f"lost-{label}-continuous-{mode}"] = (
                dict(system, estimation={"mode": mode, "ell": [1.0]}),
                rows,
                {command: EXIT_INFEASIBLE, "simulate": EXIT_OK, "check": EXIT_OK},
            )
        terminal = np.zeros((steps + 1, 1))
        terminal[-1] = 1.0
        for mode, estimation in (
            ("apriori", {"mode": "apriori", "ell_seq": terminal.tolist()}),
            ("filter", {"mode": "filter", "ell": [1.0]}),
        ):
            command = "estimate" if mode == "apriori" else mode
            docs[f"lost-{label}-chain-{mode}"] = (
                dict(chain, estimation=estimation),
                rows,
                {command: EXIT_INFEASIBLE, "simulate": EXIT_OK, "check": EXIT_OK},
            )
    return docs


@pytest.mark.parametrize("name", list(_verdict_docs()))
def test_every_command_gives_the_same_verdict(tmp_path, capsys, name):
    # 0 finite, 2 infinite, 1 any error: decided in run() from the report
    doc, rows, codes = _verdict_docs()[name]
    kind, mode = doc["kind"], doc["estimation"]["mode"]
    accepting = {c for c, spec in COMMANDS.items() if mode in spec.modes and kind in spec.kinds}
    assert set(codes) == accepting
    config, obs = write_doc(tmp_path, doc), write_obs(tmp_path, rows)
    for command, expected in codes.items():
        argv = [command, "--config", config, "--observations", obs]
        argv += ["--samples", "100"] if command == "validate" else []
        out = tmp_path / command
        code = main(argv + (["--output", str(out)] if COMMANDS[command].output_dir else []))
        captured = capsys.readouterr()
        assert code == expected, (command, captured.err)
        if expected == EXIT_ERROR:
            assert captured.err.startswith("error: ") and captured.out == ""
            if name == "c":
                assert "estimation.ell_seq" in captured.err
            if name in "ek":
                assert "inconsistent with the disturbance bound" in captured.err
        else:
            report = json.loads(captured.out)
            assert report["feasible"] is (expected == EXIT_OK)
            if expected == EXIT_INFEASIBLE:
                assert report["sigma_hat"] == "infinite"
            if name.startswith("lost-") and command in ("filter", "riccati"):
                solver = report["diagnostics"]["solver"]  # the step that lost a direction
                assert solver["lost_step"] > 0
                assert 0.0 < solver["lost_figure"] <= solver["lost_tol"] == 1e-10


def _one_meaning_cases():
    """(command, document, observation rows) for each estimator the CLI
    runs: the five estimate kind/mode pairs, filter, riccati and validate,
    each on a finite document and, under "-infinite", on one whose
    functional has an infinite radius (for filter, a chain whose QR steps
    lose a direction to rounding)."""
    docs = _verdict_docs()
    blind_chain = dict(docs["g"][0], estimation={"mode": "aposteriori", "ell_seq": [[0.0], [1.0]]})
    nodes = np.full((continuous_doc()["grid"]["steps"] + 1, 1), 0.1)
    return {
        "estimate-static-apriori": ("estimate", scalar_doc("apriori"), [[1.0]]),
        "estimate-static-apriori-infinite": ("estimate", *docs["f"][:2]),
        "estimate-static-aposteriori": ("estimate", scalar_doc(), [[1.0]]),
        "estimate-static-aposteriori-infinite": ("estimate", *docs["a"][:2]),
        "estimate-chain-apriori": ("estimate", chain_doc("apriori"), [[1.0], [1.0]]),
        "estimate-chain-apriori-infinite": ("estimate", *docs["g"][:2]),
        "estimate-chain-aposteriori": ("estimate", chain_doc(), [[1.0], [1.0]]),
        "estimate-chain-aposteriori-infinite": ("estimate", blind_chain, [[0.5], [0.5]]),
        "estimate-continuous-apriori": ("estimate", continuous_doc(), nodes),
        "estimate-continuous-apriori-infinite": ("estimate", *docs["h"][:2]),
        "filter": ("filter", chain_doc("filter"), [[1.0], [1.0]]),
        "filter-infinite": ("filter", *docs["lost-C50-M500-chain-filter"][:2]),
        "riccati": ("riccati", continuous_doc("riccati"), nodes),
        "riccati-infinite": ("riccati", *docs["d"][:2]),
        "validate": ("validate", scalar_doc(), [[1.0]]),
        "validate-infinite": ("validate", *docs["a"][:2]),
    }


@pytest.mark.parametrize("case", list(_one_meaning_cases()))
def test_an_estimate_has_one_meaning_of_radius(tmp_path, capsys, monkeypatch, case):
    # radius is always the half-width, and worst_case_mse, where an
    # estimator sets it, its square. The report's sigma_hat is the
    # mean-squared error in the a priori modes and on riccati, and the
    # radius otherwise.
    from descriptor_minimax import cli

    command, doc, rows = _one_meaning_cases()[case]
    built = []

    def recorded(name, result, diagnostics):
        built.append(result)
        return estimate_report(name, result, diagnostics)

    monkeypatch.setattr(cli, "estimate_report", recorded)
    argv = [command, "--config", write_doc(tmp_path, doc)]
    argv += ["--observations", write_obs(tmp_path, rows)]
    argv += ["--samples", "100"] if command == "validate" else []
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    (result,) = built
    assert result.feasible is not case.endswith("-infinite")
    assert code == (EXIT_OK if result.feasible else EXIT_INFEASIBLE)
    squared = doc["estimation"]["mode"] == "apriori" or command == "riccati"
    assert (result.worst_case_mse is not None) is squared
    if squared:
        assert result.radius == math.sqrt(result.worst_case_mse)
    expected = result.worst_case_mse if squared else result.radius
    assert report["sigma_hat"] == (expected if math.isfinite(expected) else "infinite")


def test_validate_breaks_on_a_radius_the_oracle_beats(tmp_path, capsys, monkeypatch):
    from descriptor_minimax import cli

    real = cli.aposteriori_estimate

    def halved(*args):
        rep = real(*args)
        return dataclasses.replace(rep, radius=rep.radius / 2)

    monkeypatch.setattr(cli, "aposteriori_estimate", halved)
    argv = ["validate", "--config", write_doc(tmp_path, scalar_doc())]
    argv += ["--observations", write_obs(tmp_path, [[1.0]]), "--samples", "4000"]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: \d+ of 4000 sampled states violate the reported radius 0\.25; "
        r"the largest deviation is 0\.5\n",
        captured.err,
    )


def test_validate_draws_nothing_against_an_infinite_radius(tmp_path, capsys, monkeypatch):
    from descriptor_minimax import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran against an infinite radius")

    monkeypatch.setattr(cli, "sample_reachability", refuse)
    doc, rows, _ = _verdict_docs()["a"]
    argv = ["validate", "--config", write_doc(tmp_path, doc)]
    argv += ["--observations", write_obs(tmp_path, rows)]
    assert main(argv) == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert report["sigma_hat"] == "infinite"
    assert report["diagnostics"]["oracle"] is None


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "validate"])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, command):
    # --samples is read by validate alone, --seed by simulate and validate
    doc, rows = {
        "estimate": (scalar_doc(), 1),
        "filter": (chain_doc("filter"), 2),
        "riccati": (continuous_doc("riccati"), 65),
        "tikhonov": (continuous_doc("tikhonov"), 65),
    }.get(command, (chain_doc(), 2))
    argv = [command, "--config", write_doc(tmp_path, doc), "--output", str(tmp_path / "out")]
    argv += ["--observations", write_obs(tmp_path, np.zeros((rows, 1)))]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    option = {"samples": "0", "seed": "5"}
    for name in ("samples", "seed"):
        if name in COMMANDS[command].options:
            continue
        assert main(argv + [f"--{name}", option[name]]) == EXIT_ERROR
        captured = capsys.readouterr()
        readers = "validate" if name == "samples" else "simulate and validate"
        assert captured.err == f"error: --{name} applies to {readers}; the command is {command}\n"
        assert captured.out == ""


def test_validate_rejects_samples_below_one(tmp_path, capsys):
    argv = [
        "validate",
        "--config",
        write_doc(tmp_path, scalar_doc()),
        "--observations",
        write_obs(tmp_path, [[1.0]]),
    ]
    for samples in ("0", "-3"):
        assert main(argv + ["--samples", samples]) == EXIT_ERROR
        message = f"error: --samples must be at least 1, got {samples}\n"
        assert capsys.readouterr().err == message


# ---------------------------------------------------------------------------
# console entry point


def test_console_subprocess_round_trip(tmp_path):
    config = write_doc(tmp_path, scalar_doc())
    obs = write_obs(tmp_path, [[1.0]])
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "descriptor_minimax.cli",
            "estimate",
            "--config",
            config,
            "--observations",
            obs,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["estimate"] == pytest.approx(0.5)

    bad = dict(scalar_doc())
    bad["estimation"] = {"mode": "aposteriori", "ell": [1.0, 2.0]}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "descriptor_minimax.cli",
            "estimate",
            "--config",
            write_doc(tmp_path, bad, "bad.json"),
            "--observations",
            obs,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# ---------------------------------------------------------------------------
# solver path reporting


def test_chain_estimate_reports_banded_solver(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, chain_doc()),
            "--observations",
            write_obs(tmp_path, [[1.0], [1.0]]),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["estimate"] == pytest.approx(0.8)
    solver = report["diagnostics"]["solver"]
    assert solver["path"] == "banded"
    assert solver["rcond_estimate"] >= solver["rcond_floor"] > 0
    assert "block_path_max_center_gap" not in report["diagnostics"]


def test_nonrepresentable_chain_falls_back_and_exits_2(tmp_path, capsys):
    # x1 enters neither the dynamics nor the observations
    doc = chain_doc()
    doc["model"]["F_seq"] = [[[1.0]], [[0.0]]]
    doc["model"]["H_seq"] = [[[1.0]], [[0.0]]]
    doc["model"]["C"] = [[0.0]]
    del doc["model"]["F"], doc["model"]["H"]
    code = main(
        [
            "estimate",
            "--config",
            write_doc(tmp_path, doc),
            "--observations",
            write_obs(tmp_path, [[0.5], [0.0]]),
        ]
    )
    assert code == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_hat"] == "infinite"
    solver = report["diagnostics"]["solver"]
    assert solver["path"] == "dense"
    assert solver["rcond_estimate"] < solver["rcond_floor"]


def test_apriori_reports_carry_solver_path(tmp_path):
    chain, code = run("estimate", parse_config(chain_doc("apriori")), np.ones((2, 1)))
    assert code == EXIT_OK
    assert chain.diagnostics["solver"]["path"] == "banded"
    assert chain.outputs["u_hat"].shape == (2,)
    continuous = {
        "kind": "continuous_dae",
        "model": {"F": [[1.0]], "C": [[0.0]], "H": [[1.0]], "t_start": 0.0, "t_end": 1.0},
        "bounds": {"Q0": [[1.0]], "Q1": [[1.0]], "Q2": [[1.0]]},
        "estimation": {"mode": "apriori", "ell": [1.0]},
        "grid": {"start": 0.0, "end": 1.0, "steps": 32},
    }
    report, code = run("estimate", parse_config(continuous))
    assert code == EXIT_OK
    assert report.diagnostics["solver"]["path"] == "banded"


def test_cli_import_leaves_scipy_sparse_out():
    # and scipy.linalg: the LAPACK shim loads scipy's extension from its
    # file; if scipy's layout changes, its fallback imports scipy.linalg
    probe = (
        "import sys, descriptor_minimax.cli\n"
        "from descriptor_minimax import _lapack\n"
        "print([name for name in ('scipy.sparse', 'scipy.linalg') if name in sys.modules])\n"
        "print(_lapack.lapack.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "scipy.linalg._flapack"]


# ---------------------------------------------------------------------------
# the paused collector and the report encoding


def _one_of_each_exit(tmp_path):
    """Command lines for exit 0, 1 (a schema error, an unwritable
    --output), 2, an argparse usage error and --help, with their codes."""
    infeasible = scalar_doc(ell=(0.0, 1.0))
    infeasible["model"].update(F=[[1.0, 0.0]], H=[[1.0, 0.0]])
    obs = ["--observations", write_obs(tmp_path, [[0.5]])]
    schema_error = write_doc(tmp_path, {"kind": "static"}, "schema.json")
    unwritable = str(tmp_path / "missing" / "r.json")
    return [
        (["estimate", "--config", write_doc(tmp_path, scalar_doc())] + obs, EXIT_OK),
        (["check", "--config", schema_error], EXIT_ERROR),
        (["check", "--config", write_doc(tmp_path, scalar_doc()), "--output", unwritable],
         EXIT_ERROR),
        (["estimate", "--config", write_doc(tmp_path, infeasible, "inf.json")] + obs,
         EXIT_INFEASIBLE),
        (["optimize", "--config", schema_error], EXIT_ERROR),
        (["--help"], EXIT_OK),
    ]


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, collecting):
    if not collecting:
        gc.disable()
    try:
        for argv, code in _one_of_each_exit(tmp_path):
            assert main(argv) == code, argv
            assert gc.isenabled() is collecting, argv
    finally:
        gc.enable()
    capsys.readouterr()


def _every_command(tmp_path):
    chain = write_doc(tmp_path, chain_doc(), "chain.json")
    y_chain = ["--observations", write_obs(tmp_path, [[1.0], [1.0]], "chain.csv")]
    y_grid = ["--observations", write_obs(tmp_path, np.zeros((65, 1)), "grid.csv")]
    yield ["estimate", "--config", chain] + y_chain
    yield ["filter", "--config", write_doc(tmp_path, chain_doc("filter"), "f.json")] + y_chain
    yield ["riccati", "--config", write_doc(tmp_path, continuous_doc("riccati"), "r.json")] + y_grid
    yield ["tikhonov", "--config", write_doc(tmp_path, continuous_doc("tikhonov"), "t.json")]
    yield ["simulate", "--config", chain, "--output", str(tmp_path / "out")]
    yield ["validate", "--config", chain, "--samples", "200"] + y_chain
    yield ["check", "--config", write_doc(tmp_path, continuous_doc(), "c.json")]


def test_a_request_leaves_no_garbage_for_the_collector(tmp_path, capsys):
    # with nothing to free, pausing the collector during a request costs
    # no memory; the warm-up call fills the caches of numpy and scipy
    argvs = list(_every_command(tmp_path))
    assert [argv[0] for argv in argvs] == list(COMMANDS)
    gc.disable()
    try:
        for argv in argvs:
            assert main(argv) == EXIT_OK, capsys.readouterr().err
            gc.collect()
            assert main(argv) == EXIT_OK
            assert gc.collect() == 0, argv[0]
    finally:
        gc.enable()
    capsys.readouterr()


def test_a_report_is_one_line_of_json_equal_to_its_dict():
    for sigma_hat in (0.25, math.inf, np.float64(0.25)):
        report = ResultReport(
            command="estimate",
            estimate=np.float32(0.5),
            sigma_hat=sigma_hat,
            feasible=bool(np.isfinite(sigma_hat)),
            outputs={"x_hat_seq": np.arange(6.0).reshape(3, 2), "alphas": (0.5, 0.25)},
            diagnostics={"steps": np.int64(2), "radii": [np.float64(math.inf), 1.0]},
            timings={"seconds": 0.001},
        )
        text = report.to_json()
        assert "\n" not in text
        assert json.loads(text) == report.to_dict()
        assert list(json.loads(text)) == sorted(report.to_dict())


def _same_bits(a, b) -> bool:
    """Equal values of equal types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    return a == b


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def _report_command_lines(tmp_path):
    """Every command on every accepted kind/mode pair, and each estimator
    on a finite and an infinite document."""
    for kind, mode in PAIRS:
        make, rows = DOCS[kind]
        config = write_doc(tmp_path, make(mode), f"{kind}-{mode}.json")
        obs = write_obs(tmp_path, np.zeros((rows, 1)), f"{kind}.csv")
        for command, spec in COMMANDS.items():
            if mode in spec.modes and kind in spec.kinds:
                argv = [command, "--config", config, "--observations", obs]
                argv += ["--samples", "50"] if "samples" in spec.options else []
                yield argv + (["--output", str(tmp_path / "out")] if spec.output_dir else [])
    for case, (command, doc, rows) in _one_meaning_cases().items():
        argv = [command, "--config", write_doc(tmp_path, doc, f"{case}.json")]
        argv += ["--observations", write_obs(tmp_path, rows, f"{case}.csv")]
        yield argv + (["--samples", "50"] if command == "validate" else [])


def test_json_reads_every_report_back_bit_for_bit(tmp_path, capsys, monkeypatch):
    written = []
    to_json = ResultReport.to_json

    def recorded(report):
        text = to_json(report)
        written.append((report.to_dict(), text))
        return text

    monkeypatch.setattr(ResultReport, "to_json", recorded)
    commands = set()
    for argv in _report_command_lines(tmp_path):
        assert main(argv) in (EXIT_OK, EXIT_INFEASIBLE), capsys.readouterr().err
        assert capsys.readouterr().out == written[-1][1] + "\n"
        commands.add(argv[0])
    assert commands == set(COMMANDS)
    assert any(data["sigma_hat"] == "infinite" for data, _ in written)
    for data, text in written:
        assert _same_bits(json.loads(text, object_pairs_hook=_sorted_object), data), text


# ---------------------------------------------------------------------------
# numbers at the edge of the float range: one error line, never a traceback


def two_state_doc(mode):
    """F = diag(1, 0), C = [[-1, 0.2], [0.3, -1]], H = [1, 0.5], unit
    weights and ell = [1, 0], on [0, 1] with M = 8."""
    doc = continuous_doc(mode)
    doc["model"].update(F=[[1.0, 0.0], [0.0, 0.0]], C=[[-1.0, 0.2], [0.3, -1.0]], H=[[1.0, 0.5]])
    doc["bounds"].update(Q0=np.eye(2).tolist(), Q1=np.eye(2).tolist())
    doc["estimation"]["ell"] = [1.0, 0.0]
    doc["grid"]["steps"] = 8
    if mode == "tikhonov":
        doc["estimation"]["alphas"] = [0.1, 0.01]
    return doc


def _edge_docs():
    """(command, document, observation rows, error message or None) per case."""
    rank0 = continuous_doc("riccati")
    rank0["model"].update(F=[[0.0]], C=[[-1.0]])
    rank0["estimation"]["ell"] = [0.0]
    rank0["grid"]["steps"] = 4
    yield "riccati-rank-0", "riccati", rank0, np.zeros((5, 1)), None
    covariance = r"\(F'Q0F\)\^\+, the covariance of x\(t_start\), is not finite in floating point"
    for name, F in (
        ("overflow", [[1.0, 0.0], [1e300, 0.0]]),
        ("underflow", [[5e-324, 0.0], [0.0, 0.0]]),
    ):
        doc = two_state_doc("riccati")
        doc["model"]["F"] = F
        yield f"riccati-p0-{name}", "riccati", doc, np.full((9, 1), 0.01), covariance
    whitened = "the whitened rows of the reduced model are not finite"
    for mode, message in (
        ("apriori", whitened),
        ("tikhonov", f"regularized solve at alpha=0.1: {whitened}"),
    ):
        doc = two_state_doc(mode)
        doc["model"]["H"], doc["bounds"]["Q2"] = [[1e300, 0.5]], [[1e300]]
        yield f"{mode}-huge-rows", "estimate" if mode == "apriori" else mode, doc, None, message
    static = scalar_doc("apriori", ell=(1.0, 1.0))
    static["model"] = {"F": [[1.0, 0.0]], "B": [[1.0]], "H": [[1e300, 1.0]]}
    static["bounds"]["Q2"] = [[1e300]]
    yield "static-huge-rows", "estimate", static, None, whitened
    cut = two_state_doc("tikhonov")
    cut["model"]["F"] = [[1e-12, 0.0], [0.0, 0.0]]
    cut["bounds"]["Q0"] = [[1e300, 0.0], [0.0, 1.0]]
    message = r"regularized solve at alpha=0.1: the functional came out not representable: .+"
    yield "tikhonov-cut-penalty", "tikhonov", cut, None, message
    chain = chain_doc()
    eye = np.eye(2).tolist()
    chain["model"] = {
        "horizon": 3, "F": eye, "C": [[0.5, 0.0], [0.1, 0.5]], "B": eye, "H": [[1.0, 1e300]]
    }
    chain["bounds"] = {"Q0": eye, "Q1": eye, "Q2": [[1.0]]}
    chain["estimation"] = {"mode": "aposteriori", "ell_seq": [[0.0, 0.0]] * 4}
    message = "the oracle's reduced energy is not finite"
    yield "validate-huge-H", "validate", chain, np.zeros((4, 1)), message


@pytest.mark.parametrize("case", list(_edge_docs()), ids=lambda case: case[0])
def test_numbers_at_the_float_edge_end_in_one_error_line(tmp_path, capsys, case):
    # under error::RuntimeWarning: an overflow is named by the check next to
    # it, and a rank-0 F gives the empty P0 and the radius 0
    _, command, doc, rows, message = case
    argv = [command, "--config", write_doc(tmp_path, doc)]
    argv += ["--observations", write_obs(tmp_path, rows)] if rows is not None else []
    argv += ["--samples", "50"] if command == "validate" else []
    code = main(argv)
    captured = capsys.readouterr()
    if message is None:
        assert code == EXIT_OK, captured.err
        report = json.loads(captured.out)
        assert (report["estimate"], report["sigma_hat"]) == (0.0, 0.0)
    else:
        assert code == EXIT_ERROR and captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err), captured.err


_FUZZ_VALUES = (0.0, 1.0, -1.0, 1e12, 1e-12, 1e300, 1e-300, 5e-324)


def _number_slots(node):
    """(container, key) of every number in a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            yield node, key
        elif isinstance(value, (dict, list)):
            yield from _number_slots(value)


def _fuzz_doc(kind, mode, steps):
    if kind == "static":
        doc = scalar_doc(mode, ell=(1.0, 1.0))
        doc["model"] = {"F": [[1.0, 0.0]], "B": [[1.0]], "H": [[1.0, 1.0]]}
        return doc, 1
    if kind == "discrete_dae":
        eye = np.eye(2).tolist  # a new list per call, so that no edit reaches two entries
        doc = chain_doc(mode)
        doc["model"] = {
            "horizon": steps, "F": eye(), "C": [[0.5, 0.0], [0.1, 0.5]], "B": eye(), "H": [[1.0, 1.0]]
        }
        doc["bounds"] = {"Q0": eye(), "Q1": eye(), "Q2": [[1.0]]}
        doc["estimation"] = {"mode": mode, "ell": [1.0, 0.0]}
        return doc, steps + 1
    doc = two_state_doc(mode)
    doc["grid"]["steps"] = steps
    return doc, steps + 1


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.sampled_from(PAIRS),
    st.integers(0, 4),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(_FUZZ_VALUES + ("up", "down"))),
        min_size=1,
        max_size=3,
    ),
)
def test_degenerate_numbers_never_end_in_a_traceback(pair, steps, edits):
    # every command on a document some of whose numbers, the data's
    # included, became 0, +-1, 1e+-12, 1e+-300 or 5e-324, or were scaled by
    # 1e+-8: an exit code, never a raised exception. The warnings an
    # overflow sets off are not what this pins
    kind, mode = pair
    doc, rows = _fuzz_doc(kind, mode, steps)
    data = [0.01]
    slots = list(_number_slots(doc)) + [(data, 0)]
    for index, edit in edits:
        holder, key = slots[index % len(slots)]
        scale = {"up": 1e8, "down": 1e-8}
        holder[key] = holder[key] * scale[edit] if edit in scale else edit
    with tempfile.TemporaryDirectory() as folder, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = [
            "--config", write_doc(Path(folder), doc),
            "--observations", write_obs(Path(folder), np.full((rows, 1), data[0])),
        ]
        for command, spec in COMMANDS.items():
            argv = [command] + base
            argv += ["--samples", "50"] if "samples" in spec.options else []
            argv += ["--output", str(Path(folder) / "out")] if spec.output_dir else []
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE), (command, doc)
            if code == EXIT_ERROR:
                assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), (command, err.getvalue())
