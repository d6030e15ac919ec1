"""Command-line interface: exit codes, report serialization, file IO.

Most tests call main() in process; one smoke test goes through a real
subprocess to cover the console entry point.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from descriptor_minimax.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
    run,
)
from descriptor_minimax.config import (
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
        (chain_doc(), "observations have 0 rows, expected 2"),
    ):
        config = write_doc(tmp_path, doc)
        assert main(["estimate", "--config", config, "--observations", str(obs)]) == EXIT_ERROR
        assert message in capsys.readouterr().err


def test_filter_chain(tmp_path, capsys):
    code = main(
        [
            "filter",
            "--config",
            write_doc(tmp_path, chain_doc("filter")),
            "--observations",
            write_obs(tmp_path, [[1.0], [1.0]]),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["estimate"] == pytest.approx(0.8, abs=1e-12)
    assert report["sigma_hat"] == pytest.approx(math.sqrt(0.6), abs=1e-12)


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
    assert report["sigma_hat"] == pytest.approx(1.0, abs=1e-9)


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
    from descriptor_minimax import InvalidInput

    with pytest.raises(InvalidInput):
        run("optimize", config, np.array([1.0]))


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
    probe = "import sys, descriptor_minimax.cli; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
