"""Model container, document round-trips, validation report, builtins."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oqwalk import (
    BUILTIN_NAMES,
    KrausModel,
    LatticeState,
    ModelFormatError,
    ModelValidationError,
    builtin,
    default_initial_state,
    dump_model,
    load_initial_state,
    load_model,
    model_from_dict,
    model_to_dict,
    point_initial_state,
    random_initial_state,
    state_from_dict,
    state_to_dict,
    validate_model,
)
from model_zoo import (
    NN_STEPS,
    broken_scaled_model,
    huge_entry_document,
    random_isometry_model,
)


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------

def test_operator_shape_must_match_declared_dims():
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, NN_STEPS, np.zeros((2, 3, 3)))
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, ((1,),), np.zeros((2, 2, 2)))


def test_displacements_are_checked():
    ops = np.stack([np.eye(2) / np.sqrt(2)] * 2)
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, ((1,), (1,)), ops)          # duplicate
    with pytest.raises(ModelValidationError):
        KrausModel(2, 2, ((1,), (-1,)), ops)         # wrong lattice dimension
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, ((0,), (0,)), ops)          # duplicate and all-zero
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, ((1.0,), (-1,)), ops)       # non-integer parts


def test_all_zero_displacements_rejected():
    ops = np.zeros((1, 2, 2))
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, ((0,),), ops)


def test_non_finite_entries_rejected():
    ops = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    ops[0, 0, 0] = np.nan
    with pytest.raises(ModelValidationError):
        KrausModel(1, 2, NN_STEPS, ops)


def test_operators_are_read_only(std_model):
    with pytest.raises(ValueError):
        std_model.operators[0, 0, 0] = 0.0


def test_stochasticity_residual_zero_for_builtins(all_builtins):
    for name, model in all_builtins.items():
        assert model.stochasticity_residual() < 1e-14, name


def test_stochasticity_residual_sees_a_broken_model():
    assert broken_scaled_model().stochasticity_residual() > 1e-4


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

def test_validate_builtins_are_valid(all_builtins):
    for name, model in all_builtins.items():
        report = validate_model(model)
        assert report.is_valid, name
        assert report.choi_psd, name
        assert report.residual < 1e-12, name


def test_validate_h_probes_on_std(std_model):
    report = validate_model(std_model)
    assert report.h1_holds and report.h2_holds


def test_scalar_model_fails_h2_but_stays_valid(classical_model):
    # 1x1 operators are scalar by definition; that must not gate validity
    report = validate_model(classical_model)
    assert report.h1_holds
    assert not report.h2_holds
    assert report.is_valid


def test_validate_flags_stochasticity_defect():
    report = validate_model(broken_scaled_model())
    assert not report.is_valid
    assert report.residual > 1e-4


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def test_model_dict_round_trip(std_model):
    obj = model_to_dict(std_model)
    again = model_from_dict(obj)
    assert again.displacements == std_model.displacements
    np.testing.assert_array_equal(again.operators, std_model.operators)
    assert model_to_dict(again) == obj


@given(st.integers(min_value=0, max_value=10**6))
def test_random_model_survives_the_document_round_trip(seed):
    model = random_isometry_model(seed)
    again = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(again.operators, model.operators)


def test_model_file_round_trip(tmp_path, periodic_model):
    path = tmp_path / "model.json"
    dump_model(periodic_model, path)
    again = load_model(path)
    np.testing.assert_array_equal(again.operators, periodic_model.operators)


def test_load_model_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert "line" in str(err.value)


def test_model_from_dict_reports_field_paths():
    with pytest.raises(ModelFormatError) as err:
        model_from_dict({"lattice_dim": 1, "internal_dim": 2})
    assert "steps" in str(err.value)

    obj = model_to_dict(builtin("std_example"))
    obj["steps"][0]["displacement"] = [1, 0]
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(obj)
    assert "displacement" in str(err.value)


def test_model_from_dict_validates_stochasticity():
    obj = model_to_dict(broken_scaled_model())
    with pytest.raises(ModelValidationError):
        model_from_dict(obj)
    # opting out of validation must parse fine
    model = model_from_dict(obj, validate=False)
    assert model.stochasticity_residual() > 1e-4


def test_a_nan_residual_fails_the_stochasticity_gate():
    # 1e308 squared overflows, so the residual is NaN, which no comparison
    # with the tolerance passes
    obj = json.loads(huge_entry_document())
    assert np.isnan(model_from_dict(obj, validate=False).stochasticity_residual())
    with pytest.raises(ModelValidationError, match="residual nan exceeds"):
        model_from_dict(obj)


def test_complex_entries_use_re_im_objects(std_model):
    obj = model_to_dict(std_model)
    entry = obj["steps"][0]["matrix"][0][0]
    assert set(entry) == {"re", "im"}
    json.dumps(obj)  # must be a plain JSON document


def test_state_document_round_trip(std_model):
    state = point_initial_state(std_model, np.diag([0.25, 0.75]), (3,))
    obj = state_to_dict(state)
    again = state_from_dict(obj, 1, 2)
    assert again.positions == [(3,)]
    np.testing.assert_allclose(again.blocks[(3,)], np.diag([0.25, 0.75]))


def test_state_file_round_trip(tmp_path, std_model):
    state = default_initial_state(std_model)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(state)))
    again = load_initial_state(path, std_model)
    np.testing.assert_allclose(again.blocks[(0,)], np.eye(2) / 2)


def test_state_from_dict_rejects_duplicates_and_bad_shapes(std_model):
    obj = state_to_dict(default_initial_state(std_model))
    obj["sites"].append(dict(obj["sites"][0]))
    with pytest.raises(ModelFormatError):
        state_from_dict(obj, 1, 2)


# ---------------------------------------------------------------------------
# Lattice states
# ---------------------------------------------------------------------------

def test_lattice_state_orders_sites_lexicographically():
    blocks = {
        (2,): np.eye(2) * 0.1,
        (-1,): np.eye(2) * 0.25,
        (0,): np.eye(2) * 0.15,
    }
    state = LatticeState(blocks)
    assert state.positions == [(-1,), (0,), (2,)]
    np.testing.assert_allclose(
        [np.trace(state.blocks[p]).real for p in state.positions], [0.5, 0.3, 0.2])
    assert sum(np.trace(b).real for b in state.blocks.values()) == pytest.approx(1.0)


def test_lattice_state_rejects_bad_total_trace():
    with pytest.raises(ModelValidationError):
        LatticeState({(0,): np.eye(2)})  # trace 2


def test_lattice_state_rejects_negative_blocks():
    with pytest.raises(ModelValidationError):
        LatticeState({(0,): np.diag([1.5, -0.5])})


def test_default_initial_state_is_maximally_mixed(periodic_model):
    state = default_initial_state(periodic_model)
    assert state.positions == [(0,)]
    np.testing.assert_allclose(state.blocks[(0,)], np.eye(2) / 2)


def test_random_initial_state_is_a_seeded_density(std_model):
    a = random_initial_state(std_model, 11)
    b = random_initial_state(std_model, 11)
    c = random_initial_state(std_model, 12)
    block = a.blocks[(0,)]
    assert abs(np.trace(block) - 1.0) < 1e-12
    assert np.linalg.eigvalsh((block + block.conj().T) / 2).min() >= -1e-12
    np.testing.assert_array_equal(block, b.blocks[(0,)])
    assert not np.array_equal(block, c.blocks[(0,)])


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def test_builtin_names_cover_the_catalogue():
    assert set(BUILTIN_NAMES) == {
        "std_example", "periodic_example", "breakdown_example",
        "antidiag_example", "classical_dilation",
    }
    for name in BUILTIN_NAMES:
        model = builtin(name)
        assert model.stochasticity_residual() < 1e-14


def test_builtin_rejects_unknown_names():
    with pytest.raises(ModelFormatError):
        builtin("no_such_model")


def test_classical_dilation_bias_is_checked():
    model = builtin("classical_dilation", 0.7)
    np.testing.assert_allclose(
        np.abs(np.asarray(model.operators)).ravel() ** 2, [0.7, 0.3], atol=1e-15
    )
    with pytest.raises(ModelValidationError):
        builtin("classical_dilation", 1.5)


def test_builtins_match_their_published_entries(std_model, periodic_model):
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(
        np.asarray(std_model.operators),
        np.array([[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]) / s3,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        np.asarray(periodic_model.operators[0]),
        [[0, s3 / 2], [1 / np.sqrt(2), 0]],
        atol=1e-15,
    )
