"""Command-line interface: exit codes, JSON output, artifact files."""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqwalk.asymptotics
import oqwalk.cli
import oqwalk.errors
import oqwalk.model
import oqwalk.numerics
import oqwalk.structure
import oqwalk.superop
from oqwalk import ModelValidationError, dump_model, load_model
from oqwalk.cli import main
from oqwalk.superop import build_superop
from model_zoo import (
    bench_document,
    broken_scaled_model,
    diagonal_pair_model,
    moved_step_document,
    random_isometry_model,
    three_level_two_block_model,
    upper_triangular_model,
)


def run_json(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, (argv, code, captured.err)
    return json.loads(captured.out)


# -- validate -----------------------------------------------------------------

def test_validate_builtin_passes(capsys):
    doc = run_json(capsys, ["validate", "--builtin", "std_example"])
    assert doc["valid"] is True
    assert doc["choi_psd"] is True
    assert doc["stochasticity_residual"] <= 1e-12
    assert doc["h1_joint_range"] is True and doc["h2_non_scalar"] is True
    assert (doc["internal_dim"], doc["lattice_dim"]) == (2, 1)


def test_validate_biased_classical(capsys):
    doc = run_json(capsys, ["validate", "--builtin", "classical_dilation",
                            "--p", "0.7"])
    assert doc["valid"] is True
    assert doc["h2_non_scalar"] is False  # scalar operators, still a valid model


def test_validate_flags_a_broken_model(tmp_path, capsys):
    path = tmp_path / "broken.json"
    dump_model(broken_scaled_model(), path)
    doc = run_json(capsys, ["validate", "--model", str(path)], expect=3)
    assert doc["valid"] is False
    assert doc["stochasticity_residual"] > 1e-4


def test_malformed_json_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json\n")
    assert main(["validate", "--model", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_model_file(capsys):
    assert main(["validate", "--model", "/nonexistent/model.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_builtin_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit):
        main(["validate", "--builtin", "no_such_model"])


def test_out_of_range_bias_fails_validation(capsys):
    assert main(["validate", "--builtin", "classical_dilation", "--p", "1.5"]) == 3
    assert "error:" in capsys.readouterr().err


# -- analyze ------------------------------------------------------------------

def test_analyze_standard_model(capsys):
    doc = run_json(capsys, ["analyze", "--builtin", "std_example"])
    aux = doc["auxiliary_map"]
    assert aux["irreducible"] is True
    assert aux["closure_dimension"] == 4
    assert aux["period"] == 1
    assert aux["regular"] is True
    assert isinstance(aux["positivity_onset"], int)
    assert aux["recurrent_dimension"] == 2 and aux["decaying_dimension"] == 0
    assert doc["lattice_walk"]["verdict"] == "irreducible"
    two = doc["two_level"]
    assert two["situation"] == 1
    assert two["m_irreducible"] is True and two["m_period"] == 2
    assert doc["validation"]["valid"] is True
    assert doc["model"] == {"internal_dim": 2, "lattice_dim": 1, "n_steps": 2}


def test_analyze_periodic_model(capsys):
    doc = run_json(capsys, ["analyze", "--builtin", "periodic_example"])
    aux = doc["auxiliary_map"]
    assert aux["period"] == 2
    assert aux["regular"] is False
    assert len(aux["projections"]) == 2
    p0 = [[c["re"] for c in row] for row in aux["projections"][0]]
    np.testing.assert_allclose(p0, [[1, 0], [0, 0]], atol=1e-8)
    assert doc["lattice_walk"]["verdict"] == "reducible"
    assert doc["lattice_walk"]["witness"] is not None
    assert doc["two_level"]["m_irreducible"] is False
    assert doc["two_level"]["reducible_reason"] == "swap-pair"


def test_analyze_breakdown_model(capsys):
    doc = run_json(capsys, ["analyze", "--builtin", "breakdown_example"])
    aux = doc["auxiliary_map"]
    assert aux["irreducible"] is False
    assert aux["period"] is None  # undefined without irreducibility
    assert aux["recurrent_dimension"] == 1 and aux["decaying_dimension"] == 1
    assert doc["two_level"]["situation"] == 2
    assert doc["two_level"]["reducible_reason"] == "common-eigenvector"


@pytest.mark.parametrize("name, closures", [("std_example", 2),
                                             ("periodic_example", 4)])
def test_analyze_computes_the_auxiliary_closure_once(name, closures, monkeypatch,
                                                     capsys):
    """One closure for the auxiliary map; the rest are the lattice-walk
    search's, one per word length from its first return word on."""
    import oqwalk.structure as structure

    calls = []
    real = structure.algebra_closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "algebra_closure", counting)
    run_json(capsys, ["analyze", "--builtin", name])
    assert len(calls) == closures


# -- asymptotics ----------------------------------------------------------------

def test_asymptotics_standard_model(tmp_path, capsys):
    out = tmp_path / "artifacts"
    doc = run_json(capsys, ["asymptotics", "--builtin", "std_example",
                            "--u-min", "-2", "--u-max", "2", "--u-points", "21",
                            "--out", str(out)])
    assert doc["method"] == "spectral"
    np.testing.assert_allclose(doc["drift"], [0.0], atol=1e-12)
    np.testing.assert_allclose(doc["covariance"], [[8 / 9]], atol=1e-9)
    np.testing.assert_allclose(doc["covariance_alt"], doc["covariance"], atol=1e-9)
    assert set(doc["method_residuals"]) == {
        "covariance_route_gap", "drift_fd_gap", "eta_fixed_point_residual"}
    (curve,) = doc["lambda_curves"]
    assert curve["axis"] == 0
    assert curve["kinks"] == []
    assert len(curve["u"]) == 21
    # artifacts land next to the JSON summary
    stored = json.loads((out / "asymptotics.json").read_text())
    assert stored == doc
    csv_lines = (out / "lambda_curve_axis0.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "u,lambda,log_lambda"
    assert len(csv_lines) == 22
    u0, lam0, ll0 = map(float, csv_lines[1].split(","))
    assert (u0, lam0) == (-2.0, pytest.approx(curve["lambda"][0]))
    assert ll0 == pytest.approx(np.log(lam0), abs=1e-12)


def test_asymptotics_falls_back_to_closed_forms(tmp_path, capsys):
    path = tmp_path / "pair.json"
    dump_model(diagonal_pair_model(5), path)
    doc = run_json(capsys, ["asymptotics", "--model", str(path)])
    assert doc["method"] == "two-level-closed-form"
    assert doc["situation"] == 3
    assert doc["covariance"] is None
    assert doc["weight_first"] == pytest.approx(0.5)
    assert set(doc["law_a"]) == {"1", "-1"}
    assert sum(doc["law_a"].values()) == pytest.approx(1.0, abs=1e-12)


# -- rate -----------------------------------------------------------------------

def test_rate_artifacts_are_deterministic(tmp_path, capsys):
    args = ["rate", "--builtin", "std_example", "--x-min", "-0.8",
            "--x-max", "0.8", "--x-points", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    doc1 = run_json(capsys, args + ["--out", str(out1)])
    doc2 = run_json(capsys, args + ["--out", str(out2)])
    assert doc1 == doc2
    for name in ("rate_function.json", "rate_function.csv", "log_lambda_window.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert doc1["upper_bound_only"] is False
    assert doc1["finite"] == [True] * 9
    assert doc1["rate"][4] <= 1e-9  # x = 0 is the drift
    rows = (out1 / "rate_function.csv").read_text().strip().split("\n")
    assert rows[0] == "x,rate,maximizer,finite"
    assert len(rows) == 10


def test_rate_reports_the_breakdown_kink(capsys):
    doc = run_json(capsys, ["rate", "--builtin", "breakdown_example",
                            "--x-points", "5"])
    assert doc["upper_bound_only"] is True
    assert len(doc["kinks"]) == 1
    assert doc["kinks"][0] == pytest.approx(0.5 * np.log(2), abs=1e-4)


# -- simulate ---------------------------------------------------------------------

def test_simulate_standard_model(tmp_path, capsys):
    out = tmp_path / "sim"
    doc = run_json(capsys, ["simulate", "--builtin", "std_example",
                            "-P", "400", "-N", "500", "--seed", "9",
                            "--out", str(out)])
    assert set(doc) == {"covariance", "drift", "ks_distance", "mean_standardized",
                        "method", "n_steps", "n_traj", "root_seed",
                        "variance_standardized"}
    assert (doc["n_steps"], doc["n_traj"], doc["root_seed"]) == (400, 500, 9)
    assert doc["ks_distance"] < 0.1
    assert abs(doc["mean_standardized"][0]) < 0.2
    lines = (out / "trajectories.csv").read_text().strip().split("\n")
    assert lines[0] == "index,seed,x_final_0,standardized_0"
    assert len(lines) == 501
    assert json.loads((out / "summary.json").read_text()) == doc


def test_simulate_without_a_gaussian_limit_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "pair.json"
    dump_model(diagonal_pair_model(5), path)
    assert main(["simulate", "--model", str(path), "-P", "10", "-N", "4"]) == 6
    assert "error:" in capsys.readouterr().err


def test_simulate_needs_a_unique_invariant_state_beyond_two_levels(tmp_path, capsys):
    path = tmp_path / "blocks.json"
    dump_model(three_level_two_block_model(), path)
    assert main(["simulate", "--model", str(path), "-P", "10", "-N", "4"]) == 5
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "-P", "5", "-N", "2"]])
def test_internal_dimension_beyond_the_dense_cap_is_a_typed_error(tmp_path, capsys,
                                                                  command):
    # n = 9 gives 81 x 81 superoperators, past the 64-side dense eigensolver.
    path = tmp_path / "n9.json"
    dump_model(random_isometry_model(2, n=9), path)
    assert main([command[0], "--model", str(path), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_simulate_rejects_nonpositive_step_counts(capsys):
    assert main(["simulate", "--builtin", "std_example", "-P", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# -- argument checks and exit codes -------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["simulate", "-P", "-3"], "step count must be >= 1, got -3"),
    (["oracle-check", "-P", "0"], "step count must be >= 1, got 0"),
    (["simulate", "-N", "0"], "trajectory count must be >= 1, got 0"),
    (["asymptotics", "--u-min", "1", "--u-max", "1"], "need u_min < u_max, got [1.0, 1.0]"),
    (["rate", "--u-points", "2"], "tilt grid needs at least 3 points, got 2"),
    (["rate", "--x-min", "1", "--x-max", "0"], "need x_min <= x_max, got [1.0, 0.0]"),
    (["rate", "--x-points", "0"], "velocity grid needs at least 1 point, got 0"),
    (["simulate", "--seed", "-1"], "seed must fit in 64 bits, got -1"),
    (["simulate", "--seed", str(2**64)], f"seed must fit in 64 bits, got {2**64}"),
    # several violations: the first check in the fixed order reports
    (["simulate", "-P", "0", "-N", "0", "--seed", "-1"], "step count must be >= 1, got 0"),
    (["rate", "--u-min", "2", "--u-max", "1", "--u-points", "2", "--x-points", "0"],
     "need u_min < u_max, got [2.0, 1.0]"),
])
def test_out_of_range_arguments_are_format_errors(argv, message, capsys):
    assert main([argv[0], "--builtin", "std_example", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _documented_exit_codes() -> dict:
    """Error class name -> exit code, read from the table in the cli docstring."""
    table = oqwalk.cli.__doc__.split("Exit codes", 1)[1]
    codes, code = {}, None
    for line in table.splitlines():
        row = re.match(r"  (\d)  ", line)
        if row:
            code = int(row.group(1))
        for name in re.findall(r"\b\w+Error\b", line):
            codes[name] = code
    return codes


def test_every_error_class_carries_its_documented_exit_code(monkeypatch, capsys):
    classes = [c for c in vars(oqwalk.errors).values()
               if isinstance(c, type) and issubclass(c, oqwalk.errors.OQWalkError)]
    documented = _documented_exit_codes()
    assert sorted(documented) == sorted(c.__name__ for c in classes)
    for cls in classes:
        assert "exit_code" in vars(cls), cls.__name__
        assert cls.exit_code == documented[cls.__name__], cls.__name__

        def failing(args, _cls=cls):
            raise _cls("boom")

        monkeypatch.setattr(oqwalk.cli, "_cmd_validate", failing)
        assert main(["validate", "--builtin", "std_example"]) == cls.exit_code
        assert capsys.readouterr().err == "error: boom\n"


def test_analyze_validates_a_model_document_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = oqwalk.model.validate_model

    def counting(model):
        calls.append(1)
        return real(model)

    monkeypatch.setattr(oqwalk.model, "validate_model", counting)
    monkeypatch.setattr(oqwalk.cli, "validate_model", counting)
    path = tmp_path / "n4.json"
    dump_model(random_isometry_model(31, n=4), path)
    run_json(capsys, ["analyze", "--model", str(path)])
    assert len(calls) == 1


def test_analyze_splits_off_a_slowly_decaying_transient(tmp_path, capsys):
    # The corner of this model decays at rate 0.987 per step.
    path = tmp_path / "upper.json"
    dump_model(upper_triangular_model(0), path)
    aux = run_json(capsys, ["analyze", "--model", str(path)])["auxiliary_map"]
    assert (aux["recurrent_dimension"], aux["decaying_dimension"]) == (1, 1)


@pytest.mark.parametrize("source", ["std_example", "n8"])
def test_analyze_eigendecomposes_the_untilted_map_once(source, tmp_path, monkeypatch,
                                                       capsys):
    if source == "n8":
        path = tmp_path / "n8.json"
        path.write_text(bench_document(31, "n8.json"))
        argv, model = ["--model", str(path)], load_model(path)
    else:
        argv, model = ["--builtin", source], oqwalk.builtin(source)
    untilted = build_superop(model).matrix
    matrices = []
    real = oqwalk.numerics.eigendecompose

    def recording(matrix):
        matrices.append(np.asarray(matrix))
        return real(matrix)

    for module in (oqwalk.numerics, oqwalk.structure, oqwalk.superop):
        monkeypatch.setattr(module, "eigendecompose", recording)
    run_json(capsys, ["analyze", *argv])
    assert sum(np.array_equal(m, untilted) for m in matrices) == 1


def test_analyze_answers_a_walk_whose_first_return_word_is_long(tmp_path, capsys):
    # 2^21 words of length 21; only their spans per site are formed
    path = tmp_path / "step20.json"
    path.write_text(moved_step_document(20))
    lattice = run_json(capsys, ["analyze", "--model", str(path)])["lattice_walk"]
    assert (lattice["verdict"], lattice["closure_dimension"],
            lattice["max_length_used"]) == ("irreducible", 16, 21)


@pytest.mark.parametrize("argv", [
    ["analyze", "--builtin", "std_example"],
    ["asymptotics", "--builtin", "std_example", "--u-points", "5"],
    ["simulate", "--builtin", "std_example", "-P", "5", "-N", "4"],
    ["rate", "--builtin", "std_example", "--x-points", "3", "--u-points", "9"],
], ids=["analyze", "asymptotics", "simulate", "rate"])
def test_each_command_builds_the_untilted_map_once(argv, monkeypatch, capsys):
    calls = []
    real = oqwalk.superop.build_superop

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (oqwalk.superop, oqwalk.structure, oqwalk.asymptotics):
        monkeypatch.setattr(module, "build_superop", counting)
    run_json(capsys, argv)
    assert len(calls) == 1


def test_analyze_keeps_the_stochasticity_gate(tmp_path, capsys):
    path = tmp_path / "broken.json"
    dump_model(broken_scaled_model(), path)
    with pytest.raises(ModelValidationError) as loaded:
        load_model(path)
    assert main(["analyze", "--model", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {loaded.value}\n"


# -- oracle-check ------------------------------------------------------------------

def test_oracle_check_passes_on_the_periodic_model(capsys):
    code = main(["oracle-check", "--builtin", "periodic_example", "-P", "6"])
    outerr = capsys.readouterr()
    assert code == 0
    assert outerr.out.strip().endswith("PASS")
    assert "FAIL" not in outerr.out


def test_oracle_check_runs_past_the_old_path_budget(tmp_path, capsys):
    # 33 step directions: 33^10 words, far past the former 2^20 path budget
    steps = tuple((k,) for k in range(-16, 17))
    path = tmp_path / "wide.json"
    dump_model(random_isometry_model(1, n=2, steps=steps), path)
    assert main(["oracle-check", "--model", str(path), "-P", "10",
                 "-u", "0.1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    assert "FAIL" not in out


def test_oracle_check_fails_an_underflowing_moment_check(capsys):
    # weights shifted by exp(-40) leave 0.01^p of the moment: below the
    # smallest normal double from p = 154 on, so the comparison is vacuous
    code = main(["oracle-check", "--builtin", "classical_dilation", "--p", "0.01",
                 "-P", "160", "-u", "40"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[0].startswith("ok mgf p=1 ")
    assert "FAIL mgf p=160 u=40.0 gap=nan" in lines
    assert lines[-1] == "FAIL (7 checks)"


def test_oracle_check_writes_its_report(tmp_path, capsys):
    out = tmp_path / "oracle"
    code = main(["oracle-check", "--builtin", "classical_dilation", "-P", "5",
                 "-u", "0.0", "-u", "0.5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "oracle_check.json").read_text())
    assert report["failures"] == 0
    assert all(c["ok"] for c in report["checks"])


# -- console script -----------------------------------------------------------------

def test_module_entry_point_smoke():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oqwalk.cli", "validate", "--builtin", "antidiag_example"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.skipif(shutil.which("oqwalk") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["oqwalk", "validate", "--builtin", "antidiag_example"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
