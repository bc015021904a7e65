"""Vectorization conventions, spectral helpers, and the traceless solver."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oqwalk import (
    AssumptionError,
    HermiticityError,
    PositivityError,
    SingularRestrictionError,
    TraceGaugeError,
    builtin,
)
from oqwalk.numerics import (
    choi_matrix,
    eigendecompose,
    frob,
    kraus_products,
    project_to_state,
    psd_check,
    solve_on_traceless,
    traceless_basis,
    unvec,
    vec,
)
import reference
from reference import kraus_superop


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(m)), m)


@given(st.integers(min_value=0, max_value=1000))
def test_vec_unvec_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = random_complex(rng, n, n)
    np.testing.assert_array_equal(unvec(vec(m), n), m)


def test_kraus_superop_reproduces_the_map():
    rng = np.random.default_rng(7)
    ops = random_complex(rng, 3, 2, 2)
    weights = np.array([0.3, 1.1, 0.6])
    s = kraus_superop(ops, weights)
    rho = random_complex(rng, 2, 2)
    direct = sum(w * op @ rho @ op.conj().T for w, op in zip(weights, ops))
    np.testing.assert_allclose(unvec(s @ vec(rho)), direct, atol=1e-12)


def test_kraus_superop_default_weights_are_ones():
    rng = np.random.default_rng(8)
    ops = random_complex(rng, 2, 3, 3)
    np.testing.assert_allclose(
        kraus_superop(ops), kraus_superop(ops, np.ones(2)), atol=0
    )


def test_kraus_products_are_the_single_term_maps():
    rng = np.random.default_rng(11)
    ops = random_complex(rng, 3, 2, 2)
    rho = random_complex(rng, 2, 2)
    products = kraus_products(ops)
    assert products.shape == (3, 4, 4)
    for op, product in zip(ops, products):
        np.testing.assert_array_equal(product, np.kron(op.conj(), op))
        np.testing.assert_allclose(unvec(product @ vec(rho)), op @ rho @ op.conj().T,
                                   atol=1e-12)


def test_adjoint_superop_is_the_hs_adjoint():
    # In column stacking the Hilbert-Schmidt adjoint of a superoperator is
    # its conjugate transpose, which is what perron's left vector solves on.
    rng = np.random.default_rng(9)
    ops = random_complex(rng, 2, 2, 2)
    s = kraus_superop(ops)
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 2, 2)
    lhs = np.trace(a.conj().T @ unvec(s @ vec(b)))
    rhs = np.trace(unvec(s.conj().T @ vec(a)).conj().T @ b)
    assert abs(lhs - rhs) < 1e-12


def test_choi_reshuffle_matches_direct_construction():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        ops = random_complex(rng, 2, n, n)
        np.testing.assert_allclose(
            reference.choi_from_superop(kraus_superop(ops)), choi_matrix(ops), atol=1e-12
        )


def test_choi_of_valid_model_is_psd(std_model):
    j = choi_matrix(np.asarray(std_model.operators))
    assert np.linalg.eigvalsh((j + j.conj().T) / 2).min() > -1e-12


def test_eigendecompose_ordering_and_residuals():
    a = np.diag([1.0, -3.0, 2.0]).astype(complex)
    es = eigendecompose(a)
    np.testing.assert_allclose(es.values, [-3.0, 2.0, 1.0], atol=1e-12)
    assert np.all(np.linalg.norm(a @ es.vectors - es.vectors * es.values, axis=0) < 1e-12)
    for k in range(3):
        v = es.vectors[:, k]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert frob(a @ v - es.values[k] * v) < 1e-12


def test_eigendecompose_tie_ordering_prefers_real_part():
    # moduli tie between +1 and -1: the positive one must come first
    a = np.diag([1.0, -1.0]).astype(complex)
    es = eigendecompose(a)
    np.testing.assert_allclose(es.values, [1.0, -1.0], atol=1e-12)


def _phase_fixed_by_column_loop(a):
    """Reference: the per-column phase fix the vectorised one replaced."""
    values, vectors = np.linalg.eig(a)
    vectors = vectors[:, np.lexsort((values.imag, -values.real, -np.abs(values)))]
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if abs(pivot) > 0:
            vectors[:, k] = col * (abs(pivot) / pivot)
    return vectors


@pytest.mark.parametrize("side", [4, 16, 64])
def test_eigendecompose_phase_fix_matches_the_column_loop(side):
    rng = np.random.default_rng(side)
    for _ in range(5):
        a = random_complex(rng, side, side)
        es = eigendecompose(a)
        assert es.vectors.tobytes() == _phase_fixed_by_column_loop(a).tobytes()
        pivots = es.vectors[np.argmax(np.abs(es.vectors), axis=0), np.arange(side)]
        assert np.all(np.abs(pivots.imag) <= 1e-15 * pivots.real)


def test_traceless_basis_spans_the_traceless_space():
    for n in (2, 3):
        basis = traceless_basis(n)
        assert basis.shape == (n * n, n * n - 1)
        # orthonormal columns, each a traceless matrix
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(n * n - 1), atol=1e-12
        )
        for j in range(basis.shape[1]):
            assert abs(np.trace(unvec(basis[:, j], n))) < 1e-12


def test_solve_on_traceless_inverts_id_minus_map(std_model):
    from oqwalk import build_superop, invariant_state
    from oqwalk.superop import derivative_maps

    s = build_superop(std_model)
    rho = invariant_state(std_model)
    d1, _ = derivative_maps(std_model, np.array([1.0]))
    rhs = d1.apply(rho)  # drift is zero, so this is already traceless
    a = np.eye(4) - s.matrix
    x = solve_on_traceless(a, rhs)
    assert abs(np.trace(x)) < 1e-11
    np.testing.assert_allclose(unvec(a @ vec(x)), rhs, atol=1e-12)


def test_non_square_eigendecomposition_is_an_assumption_error():
    with pytest.raises(AssumptionError):
        eigendecompose(np.ones((2, 3)))


def test_solve_on_traceless_rejects_a_side_mismatch():
    with pytest.raises(AssumptionError):
        solve_on_traceless(np.eye(9), np.diag([1.0, -1.0]))


def test_solve_on_traceless_rejects_traced_rhs():
    with pytest.raises(TraceGaugeError):
        solve_on_traceless(np.eye(4), np.eye(2))


def test_solve_on_traceless_rejects_singular_restriction():
    # Id - Id vanishes on the traceless subspace
    with pytest.raises(SingularRestrictionError):
        solve_on_traceless(np.zeros((4, 4)), np.diag([1.0, -1.0]))


def test_psd_check_flags_a_small_negative_eigenvalue():
    report = psd_check(np.diag([1.0, -1e-6]))
    assert not report.is_psd
    assert report.min_eigenvalue == pytest.approx(-1e-6)
    assert psd_check(np.diag([1.0, 0.0])).is_psd


def test_psd_check_rejects_non_hermitian_input():
    with pytest.raises(HermiticityError):
        psd_check(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_project_to_state_clips_and_normalizes():
    out = project_to_state(np.diag([2.0, -1e-10]))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() >= 0.0


def test_project_to_state_fixes_global_sign():
    out = project_to_state(-np.eye(2))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_project_to_state_rejects_genuine_negativity():
    with pytest.raises(PositivityError):
        project_to_state(np.diag([1.0, -0.5]))
