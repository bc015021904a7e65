"""Vectorization conventions, spectral helpers, and the traceless solver."""
import re
import subprocess
import sys

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
from oqwalk.config import POSITIVITY_TOL
from oqwalk.numerics import (
    _hermitian_part,
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


@pytest.mark.parametrize("side", [1, 4, 9])
def test_a_stack_eigendecomposes_as_each_matrix_alone(side):
    rng = np.random.default_rng(side)
    stack = np.array([random_complex(rng, side, side) for _ in range(5)])
    es = eigendecompose(stack)
    for a, values, vectors in zip(stack, es.values, es.vectors):
        alone = eigendecompose(a)
        assert values.tobytes() == alone.values.tobytes()
        assert vectors.tobytes() == alone.vectors.tobytes()


def test_a_stack_projects_to_states_as_each_matrix_alone():
    rng = np.random.default_rng(7)
    stack = np.array([(lambda b: b @ b.conj().T)(random_complex(rng, 3, 3))
                      for _ in range(4)])
    stack[1] *= -1  # a negative trace flips the sign
    states = project_to_state(stack)
    for m, state in zip(stack, states):
        assert state.tobytes() == project_to_state(m).tobytes()
    stack[2] = -np.eye(3) + 2 * np.diag([1.0, 0.0, 0.0])  # trace -1, eigenvalue 1
    with pytest.raises(PositivityError, match="negative part -1.000e\\+00"):
        project_to_state(stack)


def test_the_hermitian_part_is_the_larger_of_the_two_row_by_row():
    # e^{i theta} h has Hermitian part cos(theta) h and anti-Hermitian part
    # sin(theta) h; the larger one is kept, and a stack keeps each row's.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = x + x.conj().T
    thetas = np.array([0.0, 0.3, np.pi / 4, np.pi / 2, 2.0])
    stack = np.exp(1j * thetas)[:, None, None] * h
    parts = _hermitian_part(stack)
    for a, part, theta in zip(stack, parts, thetas):
        assert part.tobytes() == _hermitian_part(a).tobytes()
        c, s = np.cos(theta), np.sin(theta)
        want = c * h if abs(c) >= abs(s) else s * h
        np.testing.assert_allclose(part, want, rtol=0, atol=1e-14)


def test_importing_the_package_loads_no_scipy_linalg():
    code = "import sys, oqwalk.cli; print('scipy.linalg' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


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


def test_eigendecompose_certifies_no_pair():
    # A radius that overflows to inf leaves every residual NaN; the readers
    # of the pairs gate them, so the decomposition itself returns.
    with np.errstate(all="ignore"):
        es = eigendecompose(np.full((4, 4), 1e308, complex))
    assert es.values[0] == np.inf


def test_solve_on_traceless_rejects_a_side_mismatch():
    with pytest.raises(AssumptionError):
        solve_on_traceless(np.eye(9), np.diag([1.0, -1.0]))


def test_solve_on_traceless_rejects_traced_rhs():
    with pytest.raises(TraceGaugeError):
        solve_on_traceless(np.eye(4), np.eye(2))


@pytest.mark.parametrize("scale", [1.0, 1e20])
def test_the_trace_gate_of_solve_on_traceless_scales_with_the_right_hand_side(scale):
    # |tr b| may reach 1e-10 ||b|| when ||b|| >= 1: 0.5 of that passes, 2 of it fails.
    a = np.eye(4)
    gate = 1e-10 * np.linalg.norm(np.diag([scale, -scale]))
    b = np.diag([scale, -scale + 0.5 * gate])
    x = solve_on_traceless(a, b)  # the traceless part of b
    np.testing.assert_allclose(x, b - np.trace(b) / 2 * np.eye(2), rtol=0, atol=1e-12 * scale)
    with pytest.raises(TraceGaugeError, match=re.escape(f"* max(1, ||b||) = {gate:.3e}")):
        solve_on_traceless(a, np.diag([scale, -scale + 2 * gate]))


def test_the_trace_gate_of_solve_on_traceless_keeps_its_floor_for_small_right_hand_sides():
    with pytest.raises(TraceGaugeError, match=r"= 2\.000e-10 > .* = 1\.000e-10$"):
        solve_on_traceless(np.eye(4), np.diag([1e-3, -1e-3 + 2e-10]))


def test_a_near_traceless_right_hand_side_under_the_trace_gate_is_solved():
    # ||b|| < 1, so |tr b| = 5e-11 passes the 1e-10 floor of the trace gate;
    # that trace is no residual of the solve, which meets b's traceless part.
    b = np.diag([1e-3, -1e-3 + 5e-11])
    x = solve_on_traceless(np.eye(4), b)
    np.testing.assert_allclose(x, b - np.trace(b) / 2 * np.eye(2), rtol=0, atol=1e-18)


@pytest.mark.parametrize("n", range(2, 9))
def test_solve_on_traceless_answers_in_the_traceless_span(n):
    # x is the traceless basis times a vector: its trace is rounding, which
    # read under 3e-16 ||x|| for n = 2..8, at every scale of the solution.
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = np.eye(n * n) - 0.5 * np.kron(u.conj(), u)  # keeps the traceless subspace
    for scale in (1e-12, 1.0, 1e12):
        b = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b -= np.trace(b) / n * np.eye(n)
        x = solve_on_traceless(a, b)
        assert abs(np.trace(x)) <= 1e-15 * np.linalg.norm(x)


@pytest.mark.parametrize("b", [np.diag([1.0, -1.0]), np.diag([1e-3, -1e-3 + 5e-11])],
                         ids=["traceless", "near_traceless"])
def test_solve_on_traceless_rejects_singular_restriction(b):
    # Id - Id vanishes on the traceless subspace
    with pytest.raises(SingularRestrictionError, match="restriction to the traceless"):
        solve_on_traceless(np.zeros((4, 4)), b)


@pytest.mark.parametrize("b", [np.diag([1.0, -1.0]), np.diag([1e-3, -1e-3 + 5e-11])],
                         ids=["traceless", "near_traceless"])
def test_solve_on_traceless_rejects_a_map_that_gives_traceless_matrices_a_trace(b):
    # a = Id + |vec I><z| restricts to the identity on the traceless subspace,
    # so x is b's traceless part, but a(x) gains <z, x> I: only the residual
    # gate sees it.
    z = vec(np.diag([1.0, -1.0])) / np.sqrt(2)
    a = np.eye(4) + np.outer(vec(np.eye(2)), z.conj())
    with pytest.raises(SingularRestrictionError, match="traceless solve residual"):
        solve_on_traceless(a, b)


def test_psd_check_flags_a_small_negative_eigenvalue():
    report = psd_check(np.diag([1.0, -1e-6]), POSITIVITY_TOL)
    assert not report.is_psd
    assert report.min_eigenvalue == pytest.approx(-1e-6)
    assert psd_check(np.diag([1.0, 0.0]), POSITIVITY_TOL).is_psd


def test_psd_check_rejects_non_hermitian_input():
    with pytest.raises(HermiticityError):
        psd_check(np.array([[1.0, 1.0], [0.0, 1.0]]), POSITIVITY_TOL)


def test_project_to_state_clips_and_normalizes():
    out = project_to_state(np.diag([2.0, -1e-10]))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() >= 0.0


def test_project_to_state_fixes_global_sign():
    out = project_to_state(-np.eye(2))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("what", ["state", "leading eigenvector", "invariant state"])
def test_project_to_state_rejects_genuine_negativity(what):
    # superop and asymptotics pass the last two names; the message once read
    # "leading eigenvector eigenvector has negative part".
    with pytest.raises(PositivityError) as info:
        project_to_state(np.diag([1.0, -0.5]), what=what)
    assert str(info.value) == f"{what} has negative part -1.000e+00 beyond 1.0e-08"
