"""Command-line interface: exit codes, JSON output, artifact files."""
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
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
from oqwalk import (
    KrausModel,
    ModelValidationError,
    SpectralIndeterminateError,
    builtin,
    dump_model,
    load_model,
    model_to_dict,
    random_initial_state,
    rate_function,
    state_to_dict,
)
from oqwalk.cli import main
from oqwalk.superop import build_superop
from model_zoo import (
    NN_STEPS,
    bench_document,
    block_cyclic_model,
    block_sum_model,
    broken_scaled_model,
    chain_walk,
    diagonal_pair_model,
    equal_modulus_diagonal_model,
    huge_entry_document,
    imaginary_ray_breakdown_model,
    moved_step_document,
    nilpotent_step_model,
    random_isometry_model,
    rotated,
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
    search's, one per word length from its first return word on, each
    closing its return span in place."""
    import oqwalk.structure as structure

    calls = []
    real = structure._close

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "_close", counting)
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
    # Two rays with different branch drifts: a block mixture without a
    # covariance, its blocks the two classical branch laws.
    path = tmp_path / "pair.json"
    dump_model(diagonal_pair_model(5), path)
    doc = run_json(capsys, ["asymptotics", "--model", str(path)])
    assert doc["method"] == "block-mixture"
    assert doc["covariance"] is None
    assert {"situation", "periodic", "law_a", "law_b", "weight_first"}.isdisjoint(doc)
    assert [b["weight"] for b in doc["blocks"]] == [pytest.approx(0.5, abs=1e-12)] * 2
    assert set(doc["blocks"][0]) == {"weight", "drift", "covariance", "method_residuals"}
    drifts = [b["drift"][0] for b in doc["blocks"]]
    assert abs(drifts[0] - drifts[1]) > 1e-3
    assert doc["drift"][0] == pytest.approx(sum(drifts) / 2, abs=1e-12)


@pytest.mark.parametrize("build, simulate_exit", [
    (three_level_two_block_model, 6),
    (lambda: block_sum_model(builtin("std_example"), builtin("std_example")), 0),
    (lambda: block_sum_model(random_isometry_model(3, n=4), random_isometry_model(4, n=4)), 6),
], ids=["three_level_two_block", "std_sum", "block_sum_n8"])
def test_reducible_walks_of_any_size_answer_with_a_block_mixture(tmp_path, capsys, build,
                                                                  simulate_exit):
    # asymptotics answers; simulate standardizes where the block drifts agree
    # and has no single Gaussian limit (exit 6) where they differ.
    path = tmp_path / "blocks.json"
    dump_model(build(), path)
    doc = run_json(capsys, ["asymptotics", "--model", str(path), "--u-points", "5"])
    assert doc["method"] == "block-mixture"
    assert len(doc["blocks"]) == 2
    assert (doc["covariance"] is None) == (simulate_exit == 6)
    code = main(["simulate", "--model", str(path), "-P", "10", "-N", "4"])
    assert code == simulate_exit
    if code == 0:
        assert json.loads(capsys.readouterr().out)["method"] == "block-mixture"
    else:
        assert "distinct drifts" in capsys.readouterr().err


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


def test_rate_finds_the_breakdown_kink_on_a_five_point_grid(capsys):
    # No grid triple of -4, -2, 0, 2, 4 showed the kink to the secant screen;
    # the top block changes between 0 and 2.
    doc = run_json(capsys, ["rate", "--builtin", "breakdown_example",
                            "--u-points", "5"])
    assert doc["kinks"] == [pytest.approx(0.5 * np.log(2), abs=1e-12)]


def _main_without_warnings(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def test_lambda_beyond_the_largest_double_prints_as_null(capsys):
    code = _main_without_warnings(["asymptotics", "--builtin", "classical_dilation",
                                   "--u-min", "700", "--u-max", "800", "--u-points", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out, parse_constant=lambda name: pytest.fail(name))
    (curve,) = doc["lambda_curves"]
    assert curve["lambda"][0] > 1e303
    assert curve["lambda"][1:] == [None, None]
    # lambda_u = (e^u + e^-u) / 2 for the default p = 1/2
    assert curve["log_lambda"] == pytest.approx([u - np.log(2.0) for u in (700, 750, 800)],
                                                rel=1e-12)


def test_rate_on_a_step_of_ten_to_the_thirty_warns_nothing(tmp_path, capsys):
    path = tmp_path / "step1e30.json"
    path.write_text(moved_step_document(10**30))
    code = _main_without_warnings(["rate", "--model", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    json.loads(captured.out, parse_constant=lambda name: pytest.fail(name))


def test_asymptotics_and_simulate_answer_a_step_of_ten_to_the_thirty(tmp_path, capsys):
    # The corrector's right-hand side there has |trace| about 8e13, 1e-16 of
    # its norm; a trace gate fixed at 1e-10 made both commands exit 4.
    path = tmp_path / "step1e30.json"
    path.write_text(moved_step_document(10**30))
    doc = run_json(capsys, ["asymptotics", "--model", str(path)])
    assert doc["drift"][0] == pytest.approx(6.915771041501843e29, rel=1e-12)
    (cov,), (cov_alt,) = doc["covariance"], doc["covariance_alt"]
    assert cov[0] == pytest.approx(cov_alt[0], rel=1e-12)
    # The finite-difference step is scaled by the longest step; at h = 1e-5
    # the gap read 28 % of the drift.
    assert doc["method_residuals"]["drift_fd_gap"] <= 1e-9 * doc["drift"][0]
    assert main(["simulate", "--model", str(path)]) == 3
    assert "positions must stay below 2^62" in capsys.readouterr().err


def test_asymptotics_and_simulate_answer_a_step_of_ten_to_the_twelve(tmp_path, capsys):
    # The corrector there has norm 3.1e11 and trace 2.3e-5, 7e-17 of its
    # norm; an absolute 1e-12 trace check made both commands exit 4.
    path = tmp_path / "step1e12.json"
    path.write_text(moved_step_document(10**12))
    doc = run_json(capsys, ["asymptotics", "--model", str(path)])
    (cov,), (cov_alt,) = doc["covariance"], doc["covariance_alt"]
    assert cov[0] == pytest.approx(cov_alt[0], rel=1e-12)
    doc = run_json(capsys, ["simulate", "--model", str(path), "-P", "10", "-N", "4"])
    assert doc["n_steps"] == 10 and doc["n_traj"] == 4


def test_rate_and_asymptotics_answer_a_rotated_pair_of_tied_blocks(tmp_path, capsys):
    # The two 1 x 1 blocks tie at every tilt, so the whole map's root is
    # double.  Out of the basis that makes zeros exact, its eigenvector is an
    # indefinite mix, and a curve read off the whole map exited 4 with
    # "leading eigenvector has negative part".
    path = tmp_path / "equal_modulus.json"
    dump_model(rotated(equal_modulus_diagonal_model(), 1), path)
    doc = run_json(capsys, ["asymptotics", "--model", str(path)])
    (curve,) = doc["lambda_curves"]
    assert len(curve["u"]) == 41
    assert curve["degenerate_u"] == curve["u"]
    assert curve["kinks"] == []
    doc = run_json(capsys, ["rate", "--model", str(path)])
    want = rate_function(equal_modulus_diagonal_model(), doc["x_grid"])
    np.testing.assert_allclose(doc["rate"], want.rate, rtol=0, atol=1e-12)


def test_rate_answers_a_direct_sum_with_different_block_drifts(tmp_path, capsys):
    # Both summands' radii are 1 at u = 0, a kink whose one-sided slopes are
    # the drifts -0.4 and 0: the rate vanishes between them, and a search
    # that undershoots the sup there trips the negative-rate gate.
    path = tmp_path / "three_level.json"
    dump_model(three_level_two_block_model(), path)
    doc = run_json(capsys, ["rate", "--model", str(path)])
    xs, rate = np.array(doc["x_grid"]), np.array(doc["rate"])
    assert (rate >= 0).all()
    assert (rate[(xs >= -0.4) & (xs <= 0.0)] <= 1e-12).all()


# ln(2)/2, where the two blocks of breakdown_example cross: their roots meet
# in a Jordan block there, and the Perron pair used to fail with exit 4.
_CROSSING = "0.34657359027997264"


def test_asymptotics_answers_a_tilt_grid_that_starts_on_the_block_crossing(capsys):
    doc = run_json(capsys, ["asymptotics", "--builtin", "breakdown_example",
                            "--u-min", _CROSSING, "--u-max", "2", "--u-points", "5"])
    curve = doc["lambda_curves"][0]
    assert curve["degenerate_u"] == [float(_CROSSING)]
    us = np.array(curve["u"])
    np.testing.assert_allclose(curve["lambda"],
                               np.maximum(np.cosh(us), 0.75 * np.exp(us)), rtol=1e-7)


def test_rate_answers_a_tilt_window_that_ends_on_the_block_crossing(capsys):
    doc = run_json(capsys, ["rate", "--builtin", "breakdown_example",
                            "--u-min", f"-{_CROSSING}", "--u-max", _CROSSING])
    assert doc["upper_bound_only"] is True
    assert doc["u_grid"][-1] == float(_CROSSING)
    assert doc["log_lambda"][-1] == pytest.approx(np.log(np.cosh(float(_CROSSING))),
                                                  abs=1e-7)


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
    # The three-level sum's blocks drift at -0.4 and 0: no single Gaussian.
    path = tmp_path / "blocks.json"
    dump_model(three_level_two_block_model(), path)
    assert main(["simulate", "--model", str(path), "-P", "10", "-N", "4"]) == 6
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
    # non-finite numbers, which argparse's float accepts
    (["asymptotics", "--u-min", "-1", "--u-max", "inf", "--u-points", "3"],
     "u_max must be finite, got inf"),
    (["rate", "--u-min=-1", "--u-max=inf"], "u_max must be finite, got inf"),
    (["rate", "--x-max=inf", "--x-points", "3"], "x_max must be finite, got inf"),
    (["rate", "--x-min=-inf"], "x_min must be finite, got -inf"),
    (["asymptotics", "--u-min", "nan"], "u_min must be finite, got nan"),
    (["oracle-check", "-P", "2", "-u", "inf"], "tilt must be finite, got inf"),
])
def test_out_of_range_arguments_are_format_errors(argv, message, capsys):
    assert main([argv[0], "--builtin", "std_example", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["asymptotics", "--u-min=-1e308", "--u-max=1e308"],
     "u_max - u_min must be finite, got [-1e+308, 1e+308]"),
    (["rate", "--u-min=-1e308", "--u-max=1e308"],
     "u_max - u_min must be finite, got [-1e+308, 1e+308]"),
    (["rate", "--x-min=-1e308", "--x-max=1e308"],
     "x_max - x_min must be finite, got [-1e+308, 1e+308]"),
], ids=["asymptotics-u", "rate-u", "rate-x"])
def test_a_finite_window_whose_span_overflows_is_a_format_error(argv, message, capsys):
    # np.linspace steps by the span: an inf span made NaN grid points, and
    # the tilt grid's ended in a LinAlgError traceback.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


@pytest.mark.parametrize("name", ["periodic_example", "antidiag_example"])
def test_analyze_eigendecomposes_a_periodic_map_twice(name, monkeypatch, capsys):
    # The untilted map once, and its adjoint once for the cyclic projections:
    # is_regular reads the period off the kept spectrum.
    calls = []
    real = oqwalk.numerics.eigendecompose

    def counting(matrix):
        calls.append(1)
        return real(matrix)

    for module in (oqwalk.numerics, oqwalk.structure, oqwalk.superop):
        monkeypatch.setattr(module, "eigendecompose", counting)
    doc = run_json(capsys, ["analyze", "--builtin", name])
    assert doc["auxiliary_map"]["period"] == 2
    assert len(calls) == 2


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
def test_each_command_builds_the_untilted_map_once(argv, computes, capsys):
    # each invocation loads a fresh model, which keeps its map from then on;
    # rate reads reducibility off the curve's blocks and never needs the map
    builds = computes(build_superop, oqwalk.superop, "weighted_superop")
    run_json(capsys, argv)
    assert len(builds) == (0 if argv[0] == "rate" else 1)


def _fixed(values):
    return np.abs(values - 1) <= 1e-8


@pytest.mark.parametrize("module, pick, argv, message", [
    (oqwalk.structure, _fixed, ["analyze", "--builtin", "std_example"],
     "eigendecomposition residual"),
    (oqwalk.structure, _fixed, ["asymptotics", "--builtin", "std_example"],
     "eigendecomposition residual"),
    (oqwalk.structure, lambda v: (np.abs(np.abs(v) - 1) <= 1e-8) & ~_fixed(v),
     ["analyze", "--builtin", "periodic_example"], "peripheral eigenvector does not power up"),
], ids=["fixed-analyze", "fixed-asymptotics", "primitive-root-analyze"])
def test_a_read_pair_off_its_eigenvalue_exits_4(module, pick, argv, message,
                                                perturb_pairs, capsys):
    # eigendecompose certifies no pair: the fixed pairs and period's
    # primitive-root pair are each gated where they are read, so 1e-6 on the
    # vectors of just those pairs is refused there.
    perturb_pairs(module, pick)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def _perron_pair(values):
    return values.real == values.real.max(axis=-1, keepdims=True)


def test_asymptotics_reads_no_perron_pair(perturb_pairs, capsys):
    # Its curve takes radii only, so 1e-6 on every Perron vector moves no byte.
    argv = ["asymptotics", "--builtin", "std_example"]
    main(argv)
    want = capsys.readouterr()
    perturb_pairs(oqwalk.superop, _perron_pair)
    assert main(argv) == 0
    assert capsys.readouterr() == want


def test_rate_declines_a_newton_row_off_its_eigenvalue(perturb_pairs, capsys, monkeypatch):
    # The Perron pair is read only by the Newton rows.  1e-6 on its vector
    # fails each row's residual gate; the row is declined, and bisection on
    # the objective gives the rates.
    argv = ["rate", "--builtin", "std_example"]
    want = run_json(capsys, argv)
    perturb_pairs(oqwalk.superop, _perron_pair)
    with pytest.raises(SpectralIndeterminateError, match="^leading eigenvector residual"):
        oqwalk.superop.perron(build_superop(builtin("std_example")))
    accepted, searched = [], []
    real_log_lambda = oqwalk.asymptotics.log_lambda

    def searching(model, u):
        searched.append(u)
        return real_log_lambda(model, u)

    monkeypatch.setattr(oqwalk.asymptotics, "_triple_derivatives",
                        lambda *args: accepted.append(args))
    monkeypatch.setattr(oqwalk.asymptotics, "log_lambda", searching)
    got = run_json(capsys, argv)
    assert accepted == [] and searched
    np.testing.assert_allclose(got["rate"], want["rate"], rtol=0, atol=1e-12)
    assert got["x_grid"] == want["x_grid"]


def test_a_walk_with_unequal_cyclic_blocks_answers_every_command(tmp_path, capsys):
    # A far from normal untilted map: pairs no command reads miss 1e-9 ||A||.
    path = tmp_path / "block_cyclic_121.json"
    dump_model(block_cyclic_model(0, (1, 2, 1)), path)
    doc = run_json(capsys, ["analyze", "--model", str(path)])
    assert (doc["auxiliary_map"]["period"], doc["lattice_walk"]["period"]) == (3, 6)
    for argv in (["asymptotics"], ["rate"], ["simulate", "-P", "5", "-N", "4"]):
        run_json(capsys, argv + ["--model", str(path)])


def test_analyze_keeps_the_stochasticity_gate(tmp_path, capsys):
    path = tmp_path / "broken.json"
    dump_model(broken_scaled_model(), path)
    with pytest.raises(ModelValidationError) as loaded:
        load_model(path)
    assert main(["analyze", "--model", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {loaded.value}\n"


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["asymptotics"],
    ["rate"],
    ["simulate", "-P", "5", "-N", "4"],
    ["oracle-check", "-P", "3"],
], ids=lambda command: command[0])
def test_an_overflowing_entry_fails_the_stochasticity_gate(command, tmp_path, capsys):
    # An entry of 1e308 makes the residual NaN, which used to pass the gate
    # and end in a LinAlgError traceback.
    path = tmp_path / "huge.json"
    path.write_text(huge_entry_document())
    code = main([command[0], "--model", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: stochasticity residual nan exceeds 1e-10\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_overflowing_input_fails_its_gates_without_a_warning(tmp_path, capsys):
    # Entries whose squares or sums overflow give an inf or NaN residual,
    # Choi eigenvalue or trace: each command refuses them with exit 3 and
    # numpy warns nothing on the way, and validate still prints strict JSON.
    commands = (["validate"], ["analyze"], ["asymptotics"], ["rate"],
                ["simulate", "-P", "5", "-N", "4"], ["oracle-check", "-P", "3"])
    model, state = tmp_path / "model.json", tmp_path / "state.json"
    block = [[{"re": 0.0, "im": 0.0}] * 4 for _ in range(4)]
    block[0] = [{"re": 1e308, "im": 0.0}] + block[0][1:]
    state.write_text(json.dumps({"sites": [{"position": [0], "block": block}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (1e100, 1e154, 1e200, 1e308):
            model.write_text(huge_entry_document(entry=entry))
            for command in commands:
                code = main([command[0], "--model", str(model), *command[1:]])
                out = capsys.readouterr().out
                assert code == 3, (entry, command)
                if command[0] == "validate":
                    doc = json.loads(out, parse_constant=_reject_constant)
                    assert doc["valid"] is False
        model.write_text(bench_document(31, "n4.json"))
        code = main(["simulate", "--model", str(model), "--initial", str(state)])
    assert code == 3
    assert capsys.readouterr().err == "error: total trace 1e+308 deviates from 1 beyond 1e-8\n"


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


def test_oracle_check_writes_an_underflowed_gap_as_null(tmp_path, capsys):
    # From p = 103 on both scaled moments underflow, and the gap is NaN.
    out = tmp_path / "oracle"
    code = main(["oracle-check", "--builtin", "classical_dilation", "--p", "0.001",
                 "-P", "115", "-u", "50", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out.endswith("FAIL (13 checks)\n")
    text = (out / "oracle_check.json").read_text()
    report = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    assert text.count('"gap": null') == 13
    assert [c["p"] for c in report["checks"] if c["gap"] is None] == list(range(103, 116))


def test_oracle_check_writes_its_report(tmp_path, capsys):
    out = tmp_path / "oracle"
    code = main(["oracle-check", "--builtin", "classical_dilation", "-P", "5",
                 "-u", "0.0", "-u", "0.5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "oracle_check.json").read_text())
    assert report["failures"] == 0
    assert all(c["ok"] for c in report["checks"])


@pytest.mark.parametrize("where", ["step", "start"])
def test_oracle_check_refuses_a_lattice_box_beyond_its_bound(where, tmp_path, capsys):
    # A step or a start site at 10^30 used to wrap or overflow the int64 box.
    path = tmp_path / "model.json"
    argv = ["oracle-check", "--model", str(path), "-P", "3", "-u", "0.0"]
    if where == "step":
        path.write_text(moved_step_document(10**30))
    else:
        path.write_text(bench_document(31, "n4.json"))
        zero = {"re": 0.0, "im": 0.0}
        block = [[{"re": 1.0, "im": 0.0}, zero, zero, zero]] + [[zero] * 4] * 3
        state = tmp_path / "far.json"
        state.write_text(json.dumps({"sites": [{"position": [10**30], "block": block}]}))
        argv += ["--initial", str(state)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: exact propagator box ")


def test_oracle_check_answers_a_tilt_of_1e308(capsys):
    # <s, u> - shift overflowed to -inf - inf: four RuntimeWarnings, gap=nan
    # at p = 2 and exit 3.  An overflowing exponent is -inf, weight 0.
    code = main(["oracle-check", "--builtin", "std_example", "-P", "2", "-u", "1e308"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert captured.out.splitlines()[:2] == ["ok mgf p=1 u=1e+308 gap=0.000e+00",
                                             "ok mgf p=2 u=1e+308 gap=0.000e+00"]
    assert captured.err == ""


def test_random_initial_is_the_document_of_its_seeded_state(tmp_path, capsys):
    model = builtin("std_example")
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_dict(random_initial_state(model, 11))))
    argv = ["oracle-check", "--builtin", "std_example", "-P", "3", "-u", "0.5"]
    assert main(argv + ["--random-initial", "11"]) == 0
    seeded = capsys.readouterr().out
    assert main(argv + ["--initial", str(state)]) == 0
    assert seeded == capsys.readouterr().out
    assert main(argv) == 0  # the default state gives other gaps
    assert seeded != capsys.readouterr().out


# -- malformed documents: one per parser error, each exit 2 -----------------------

def _std_document() -> dict:
    return json.loads(json.dumps(model_to_dict(builtin("std_example"))))


def _set(obj, path, value):
    """``obj`` with the entry at ``path`` (keys and indices) set to ``value``."""
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


_ZERO = {"re": 0.0, "im": 0.0}


@pytest.mark.parametrize("document, message", [
    ([], "$: expected an object, got list"),
    (_set(_std_document(), ["steps", 1], [0]), "$.steps[1]: expected an object, got list"),
    (_set(_std_document(), ["lattice_dim"], 0),
     "$.lattice_dim: expected a positive integer, got 0"),
    (_set(_std_document(), ["internal_dim"], True),
     "$.internal_dim: expected a positive integer, got True"),
    (_set(_std_document(), ["steps"], []), "$.steps: expected a non-empty list"),
    (_set(_std_document(), ["steps", 0, "displacement"], 1),
     "$.steps[0].displacement: expected a list of integers"),
    (_set(_std_document(), ["steps", 0, "displacement"], [1.5]),
     "$.steps[0].displacement[0]: expected an integer, got 1.5"),
    (_set(_std_document(), ["steps", 0, "matrix"], []),
     "$.steps[0].matrix: expected a non-empty matrix (list of rows)"),
    (_set(_std_document(), ["steps", 0, "matrix", 1], _ZERO),
     "$.steps[0].matrix[1]: expected a list"),
    (_set(_std_document(), ["steps", 0, "matrix", 1], [_ZERO]),
     "$.steps[0].matrix[1]: ragged row (len 1 != 2)"),
    (_set(_std_document(), ["steps", 0, "matrix"], [[_ZERO, _ZERO]]),
     "$.steps[0].matrix: matrix must be square, got (1, 2)"),
    (_set(_std_document(), ["steps", 1, "matrix"], [[_ZERO]]),
     "$.steps[1].matrix: matrix side 1 != internal_dim 2"),
    (_set(_std_document(), ["steps", 0, "matrix", 0, 1, "re"], "1"),
     "$.steps[0].matrix[0][1].re: expected a number, got '1'"),
    (_set(_std_document(), ["steps", 0, "matrix", 1, 0, "im"], None),
     "$.steps[0].matrix[1][0].im: expected a number, got None"),
], ids=["top_level_list", "step_list", "lattice_dim", "internal_dim_bool", "no_steps",
        "displacement_scalar", "displacement_float", "empty_matrix", "row_not_list",
        "ragged_row", "not_square", "wrong_side", "re_string", "im_null"])
def test_each_malformed_model_document_exits_2(document, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    line = _assert_one_error_line(["validate", "--model", str(path)], 2, capsys)
    assert line == f"error: {message}"


def test_an_initial_state_without_sites_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"sites": []}))
    line = _assert_one_error_line(["oracle-check", "--builtin", "std_example", "-P", "1",
                                   "--initial", str(path)], 2, capsys)
    assert line == "error: $.sites: expected a non-empty list"


# -- walks at the structural gates ---------------------------------------------------

def test_analyze_gives_scalar_two_level_operators_no_taxonomy(tmp_path, capsys):
    # Scalar operators fail h2, which the two-level taxonomy assumes.
    path = tmp_path / "scalar.json"
    ops = np.array([np.sqrt(0.3) * np.eye(2), np.sqrt(0.7) * np.eye(2)], dtype=complex)
    dump_model(KrausModel(1, 2, NN_STEPS, ops), path)
    doc = run_json(capsys, ["analyze", "--model", str(path)])
    assert doc["two_level"] is None
    assert doc["validation"]["h2_non_scalar"] is False
    assert doc["auxiliary_map"]["fixed_point_count"] == 4


@pytest.mark.parametrize("q, expect", [
    (2e-8, 0),      # faithful, outside the refusal band
    (1.2e-8, 0),
    (1.05e-8, 4),   # inside the band (9e-9, 1.1e-8) around FAITHFUL_TOL = 1e-8
    (1e-8, 4),
    (9.5e-9, 4),
    (5e-9, 4),      # below the threshold: the span route still says irreducible
])
def test_the_faithfulness_threshold_decides_a_chain_walk(q, expect, tmp_path, capsys):
    # The fixed point is diag(1 - q, q); the operators generate every matrix.
    path = tmp_path / "chain.json"
    dump_model(chain_walk(q), path)
    if expect == 0:
        doc = run_json(capsys, ["analyze", "--model", str(path)])
        assert doc["auxiliary_map"]["irreducible"] is True
        assert doc["auxiliary_map"]["min_fixed_eigenvalue"] == pytest.approx(q, rel=1e-6)
    else:
        line = _assert_one_error_line(["analyze", "--model", str(path)], 4, capsys)
        band = abs(q - 1e-8) < 1e-9
        assert ("faithfulness threshold" in line) is band
        assert ("irreducibility routes disagree" in line) is not band


def test_analyze_refuses_an_eigenvalue_in_the_fixed_point_band(tmp_path, capsys):
    # p01 + p10 = 5e-8 puts the chain's second eigenvalue 5e-8 from 1.
    path = tmp_path / "slow.json"
    dump_model(chain_walk(0.5, p10=2.5e-8), path)
    line = _assert_one_error_line(["analyze", "--model", str(path)], 4, capsys)
    assert "fixed-point decision band" in line


def test_analyze_answers_a_pure_fixed_point_on_an_imaginary_ray(tmp_path, capsys):
    # Its Hermitian part was zero after the phase fix: exit 4, "fixed point
    # has no Hermitian part".  The walk answers as breakdown_example does.
    path = tmp_path / "ray.json"
    dump_model(imaginary_ray_breakdown_model(), path)
    doc = run_json(capsys, ["analyze", "--model", str(path)])
    base = run_json(capsys, ["analyze", "--builtin", "breakdown_example"])
    for key in ("irreducible", "closure_dimension", "fixed_point_count",
                "recurrent_dimension", "decaying_dimension"):
        assert doc["auxiliary_map"][key] == base["auxiliary_map"][key], key
    assert abs(doc["auxiliary_map"]["min_fixed_eigenvalue"]) < 1e-12
    assert doc["lattice_walk"]["verdict"] == base["lattice_walk"]["verdict"]


def test_asymptotics_refuses_a_tilt_where_the_map_is_nilpotent(tmp_path, capsys):
    # At u = 400 the -1 term's weight exp(-800) underflows, and the +1
    # operator is nilpotent: the shifted map has spectral radius 0.
    path = tmp_path / "nilpotent.json"
    dump_model(nilpotent_step_model(), path)
    run_json(capsys, ["asymptotics", "--model", str(path), "--u-points", "3"])
    _assert_one_error_line(["asymptotics", "--model", str(path), "--u-min", "398",
                            "--u-max", "400", "--u-points", "3"], 4, capsys)


# -- the process boundary -----------------------------------------------------------

def _assert_one_error_line(argv, code, capsys) -> str:
    """``main`` exits with ``code``, prints no report and one ``error:`` line."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "Exception ignored" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


def test_out_naming_an_existing_file_exits_2_before_the_command_runs(tmp_path, monkeypatch,
                                                                     capsys):
    path = tmp_path / "taken"
    path.write_text("kept\n")
    monkeypatch.setattr(oqwalk.cli, "rate_function",
                        lambda *a, **k: pytest.fail("the command ran"))
    line = _assert_one_error_line(["rate", "--builtin", "std_example", "--out", str(path)],
                                  2, capsys)
    assert str(path) in line
    assert path.read_text() == "kept\n"


def test_model_naming_a_directory_exits_2(tmp_path, capsys):
    _assert_one_error_line(["validate", "--model", str(tmp_path)], 2, capsys)


def test_initial_state_naming_a_directory_exits_2(tmp_path, capsys):
    _assert_one_error_line(["simulate", "--builtin", "std_example", "-P", "5", "-N", "2",
                            "--initial", str(tmp_path)], 2, capsys)


def test_a_model_document_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"operators": "\xff"}')
    line = _assert_one_error_line(["validate", "--model", str(path)], 2, capsys)
    assert line == f"error: {path}: not UTF-8 text at byte 15: invalid start byte"


def test_an_initial_state_with_a_nan_entry_exits_3(tmp_path, capsys):
    # json.loads reads the NaN token, and a NaN total passes the trace gate.
    zero = {"re": 0.0, "im": 0.0}
    block = [[{"re": float("nan"), "im": 0.0}, zero], [zero, {"re": 1.0, "im": 0.0}]]
    state = tmp_path / "nan.json"
    state.write_text(json.dumps({"sites": [{"position": [0], "block": block}]}))
    line = _assert_one_error_line(["simulate", "--builtin", "std_example", "-P", "5",
                                   "-N", "2", "--initial", str(state)], 3, capsys)
    assert line == "error: block at (0,) has a non-finite entry"


@pytest.mark.parametrize("source", ["builtin", "model"])
def test_p_is_refused_unless_the_model_is_classical_dilation(source, tmp_path, capsys):
    if source == "builtin":
        argv = ["--builtin", "std_example"]
    else:
        dump_model(oqwalk.model.builtin("classical_dilation"), tmp_path / "model.json")
        argv = ["--model", str(tmp_path / "model.json")]
    line = _assert_one_error_line(["validate", *argv, "--p", "0.3"], 2, capsys)
    assert line == "error: --p applies to --builtin classical_dilation only"


def test_a_failing_command_leaves_its_out_directory_empty(tmp_path, capsys):
    # --out is made before the command runs; nothing is written into it
    path, out = tmp_path / "pair.json", tmp_path / "made" / "first"
    dump_model(diagonal_pair_model(5), path)
    _assert_one_error_line(["simulate", "--model", str(path), "-P", "10", "-N", "4",
                            "--out", str(out)], 6, capsys)
    assert list(out.iterdir()) == []


def _module_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_a_closed_stdout_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oqwalk.cli", "validate", "--builtin", "std_example"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_module_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == ""


# -- console script -----------------------------------------------------------------

PROGRAM_CALLS = {
    **{command: ([command, "--builtin", "std_example"], 0)
       for command in ("validate", "analyze", "asymptotics", "rate", "simulate",
                       "oracle-check")},
    "missing-model": (["validate", "--model", "/nonexistent/model.json"], 2),
    "bias-out-of-range": (["validate", "--builtin", "classical_dilation", "--p", "1.5"], 3),
}


@pytest.mark.parametrize("argv, expect", PROGRAM_CALLS.values(), ids=PROGRAM_CALLS)
def test_the_program_answers_as_main_argv_does(argv, expect, capsys):
    # The program freezes its import heap and main(argv) does not; the bytes
    # each prints, and the exit code, must not tell the two apart.
    proc = subprocess.run([sys.executable, "-m", "oqwalk.cli", *argv],
                          capture_output=True, env=_module_env())
    code = main(argv)
    captured = capsys.readouterr()
    stderr = proc.stderr.decode()
    assert code == expect
    assert (proc.returncode, proc.stdout, stderr) == (code, captured.out.encode(),
                                                      captured.err)
    assert "Traceback" not in stderr and not re.search(r"\w+Warning\b", stderr)


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "oqwalk.cli", "validate", "--builtin", "antidiag_example"],
        capture_output=True, text=True, env=_module_env(),
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
