"""Superoperator construction, tilting, and Perron extraction."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oqwalk import (
    BUILTIN_NAMES,
    AssumptionError,
    SpectralIndeterminateError,
    apply_M,
    build_superop,
    builtin,
    default_initial_state,
    log_lambda,
    perron,
    rate_function,
    spectral_radius,
)
from oqwalk.numerics import eigendecompose
from oqwalk.superop import (
    Superoperator,
    _left_perron_vectors,
    _shifted_map,
    derivative_maps,
    weighted_superop,
)
import reference
from model_zoo import (
    STEPS_2D,
    diagonal_pair_model,
    nilpotent_step_model,
    random_isometry_model,
)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def tilted(model, u):
    """The tilted map, weights exp(<u, s>) unscaled."""
    return weighted_superop(model, np.exp(model.steps_array @ np.atleast_1d(u)))


def test_superop_matches_direct_kraus_application(std_model):
    rng = np.random.default_rng(0)
    s = build_superop(std_model)
    for _ in range(5):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(s.apply(rho), reference.apply_L(std_model.operators, rho),
                                   atol=1e-14)


# Distinct steps for random models with up to nine Kraus terms.
MANY_STEPS = ((1,), (-1,), (2,), (-2,), (3,), (-3,), (0,), (4,), (-4,))


def test_every_map_is_the_kron_sum_bit_for_bit(all_builtins):
    # The stacked sum keeps the kron sum's order of accumulation, so the tilt,
    # derivative and cone-edge maps equal it exactly, not just to rounding.
    models = dict(all_builtins)
    models["classical_dilation p=0.3"] = builtin("classical_dilation", p=0.3)
    for n in range(1, 9):
        for k in (1, 2, 5, 9):
            models[f"isometry n={n} K={k}"] = random_isometry_model(
                10 * n + k, n=n, steps=MANY_STEPS[:k])
    models["isometry 2-D n=3"] = random_isometry_model(32, n=3, steps=STEPS_2D)
    for name, model in models.items():
        def kron_sum(weights):
            return reference.kraus_superop(model.operators, np.asarray(weights, dtype=float))

        steps = model.steps_array
        assert np.array_equal(build_superop(model).matrix, kron_sum(np.ones(model.n_steps))), name
        for t in (-3.7, -0.4, 0.0, 0.9, 12.0):
            u = t * np.linspace(1.0, 0.5, model.lattice_dim)
            phi = steps @ u
            shift, shifted = _shifted_map(model, u)
            assert np.array_equal(shifted.matrix, kron_sum(np.exp(phi - shift))), (name, t)
            d1, d2 = derivative_maps(model, u)
            assert np.array_equal(d1.matrix, kron_sum(phi)), (name, t)
            assert np.array_equal(d2.matrix, kron_sum(phi**2)), (name, t)
        for x in np.unique(steps[:, 0]):
            edge = steps[:, 0] == x
            assert np.array_equal(weighted_superop(model, edge).matrix, kron_sum(edge)), (name, x)


def test_product_stack_is_read_only_and_kept():
    model = builtin("std_example")
    stack = model.product_stack
    assert stack.shape == (2, 4, 4)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    assert model.product_stack is stack


def test_rate_function_forms_each_kraus_product_once(monkeypatch):
    # About 2000 tilted maps, kink refinement included, from K products.
    kron_calls = []
    kron = np.kron

    def counting(a, b):
        kron_calls.append(1)
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counting)
    model = builtin("breakdown_example")
    rate_function(model, np.linspace(-0.9, 0.9, 7))
    assert len(kron_calls) == model.n_steps


def test_build_superop_preserves_trace(all_builtins):
    rng = np.random.default_rng(1)
    for name, model in all_builtins.items():
        s = build_superop(model)
        rho = random_density(rng, model.internal_dim)
        assert abs(np.trace(s.apply(rho)) - 1.0) < 1e-12, name


@given(st.integers(min_value=0, max_value=10**6))
def test_random_models_preserve_trace(seed):
    model = random_isometry_model(seed, n=2)
    rho = random_density(np.random.default_rng(seed + 1), 2)
    assert abs(np.trace(build_superop(model).apply(rho)) - 1.0) < 1e-12


def test_shifted_map_at_zero_is_the_plain_map(std_model):
    shift, shifted = _shifted_map(std_model, np.array([0.0]))
    assert shift == 0.0
    np.testing.assert_allclose(shifted.matrix, build_superop(std_model).matrix, atol=0)


def test_shifted_map_is_the_tilted_map_rescaled(periodic_model):
    u = 0.37
    weights = np.exp(np.asarray([s[0] for s in periodic_model.displacements]) * u)
    shift, shifted = _shifted_map(periodic_model, np.array([u]))
    assert shift == u  # the largest of <u, s> over the steps +1 and -1
    np.testing.assert_allclose(
        np.exp(shift) * shifted.matrix,
        weighted_superop(periodic_model, weights).matrix,
        atol=1e-15,
    )


def test_derivative_maps_weight_by_step_powers(std_model):
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    d1, d2 = derivative_maps(std_model, np.array([1.0]))
    lp, lm = std_model.operators
    np.testing.assert_allclose(
        d1.apply(rho), lp @ rho @ lp.conj().T - lm @ rho @ lm.conj().T, atol=1e-14
    )
    np.testing.assert_allclose(
        d2.apply(rho), lp @ rho @ lp.conj().T + lm @ rho @ lm.conj().T, atol=1e-14
    )


def test_power_apply_iterates_the_map(std_model):
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2)
    s = build_superop(std_model)
    out = rho
    for _ in range(5):
        out = s.apply(out)
    np.testing.assert_allclose(s.power_apply(rho, 5), out, atol=1e-13)


def test_apply_M_moves_mass_where_it_should(classical_model):
    state = default_initial_state(classical_model)
    moved = apply_M(classical_model, state)
    assert moved.positions == [(-1,), (1,)]
    np.testing.assert_allclose(moved.blocks[(1,)], [[0.5]], atol=1e-15)
    assert sum(np.trace(b).real for b in moved.blocks.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("model", [builtin(name) for name in BUILTIN_NAMES]
                         + [random_isometry_model(31, n=4),
                            random_isometry_model(32, n=3, steps=STEPS_2D)],
                         ids=list(BUILTIN_NAMES) + ["isometry31_n4", "isometry32_n3_2d"])
def test_stacked_apply_M_equals_the_per_term_loop_bit_for_bit(model):
    # Compared by bytes, so a -0.0 that came back as +0.0 (a first term added
    # into zeros) fails, as does any other change of the addition order.
    state = default_initial_state(model)
    for p in range(12):
        want = reference.apply_M_per_term(model.displacements, model.operators,
                                          state.blocks)
        state = apply_M(model, state)
        assert list(state.blocks) == list(want), p
        for site, block in want.items():
            assert state.blocks[site].tobytes() == block.tobytes(), (p, site)


def test_spectral_radius_is_one_untilted(all_builtins):
    for name, model in all_builtins.items():
        assert spectral_radius(build_superop(model)) == pytest.approx(1.0, abs=1e-12), name


def test_perron_on_the_standard_model(std_model):
    data = perron(build_superop(std_model))
    assert data.lambda_u == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(data.rho_u, np.eye(2) / 2, atol=1e-10)
    # adjoint fixed point of a trace-preserving map is the identity,
    # normalized so that Tr(m rho) = 1
    np.testing.assert_allclose(data.m_u, np.eye(2), atol=1e-10)
    assert not data.degenerate
    assert data.gap > 0.1
    assert data.residual < 1e-10


def test_perron_normalization_holds_when_tilted(periodic_model):
    data = perron(tilted(periodic_model, 0.8))
    assert np.trace(data.m_u @ data.rho_u).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(data.m_u - data.m_u.conj().T) < 1e-10
    assert abs(np.trace(data.rho_u) - 1.0) < 1e-12


def test_perron_flags_true_degeneracy_but_not_phase_ties(periodic_model):
    # two invariant rays: eigenvalue 1 is genuinely repeated
    data = perron(build_superop(diagonal_pair_model(3)))
    assert data.degenerate
    # period two: -1 ties the modulus but sits at a different phase
    data = perron(build_superop(periodic_model))
    assert not data.degenerate
    assert data.lambda_u == pytest.approx(1.0, abs=1e-12)


def test_periodic_root_is_separated_though_its_modulus_gap_is_zero(periodic_model):
    sup = tilted(periodic_model, 0.8)
    data = perron(sup)
    assert data.gap < 1e-12  # -lambda sits on the spectral circle too
    values = np.linalg.eigvals(sup.matrix)
    distances = np.sort(np.abs(values - data.lambda_u))[1:] / data.lambda_u
    assert data.separation == pytest.approx(distances[0], abs=1e-12)
    assert data.separation > 1e-2


def test_an_overflowing_radius_fails_the_perron_gate():
    # A finite map whose radius overflows to inf: no eigenvalue lies within
    # a tie of it, so the Perron extraction refuses with a typed error before
    # any step reads the lead pair.
    with np.errstate(all="ignore"), pytest.raises(
            SpectralIndeterminateError, match=r"^spectral radius overflows; no eigenvalue "
                                              r"lies on the spectral circle$"):
        perron(Superoperator(np.full((4, 4), 1e308, complex), 2))


def test_a_nilpotent_map_fails_the_perron_gate():
    # At u = 400 the -1 term's weight exp(-800) underflows and the +1
    # operator is nilpotent: the shifted map has no nonzero eigenvalue.
    shifted = _shifted_map(nilpotent_step_model(), np.array([400.0]))[1]
    with pytest.raises(SpectralIndeterminateError, match=r"^zero spectral radius$"):
        perron(shifted)


def test_one_perron_triple_costs_one_eigensolve(monkeypatch):
    calls = {"eig": 0, "eigvals": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    perron(tilted(random_isometry_model(5, n=4), 0.3))
    assert calls == {"eig": 1, "eigvals": 0}


@pytest.mark.parametrize("seed", range(4))
def test_left_vector_matches_the_adjoint_eigendecomposition(seed):
    # Reference: the adjoint eigenvector at the Perron root, made Hermitian.
    model = random_isometry_model(seed, n=3)
    sup = tilted(model, 0.7 * seed - 1.0)
    data = perron(sup)
    es = eigendecompose(sup.matrix.conj().T)
    a = es.vectors[:, int(np.argmin(np.abs(es.values - data.lambda_u)))].reshape(
        3, 3, order="F")
    w = (a + a.conj().T) / 2
    w = w / np.trace(w @ data.rho_u).real
    np.testing.assert_allclose(data.m_u, w, atol=1e-11)
    residual = sup.matrix.conj().T @ data.m_u.flatten(order="F") \
        - data.lambda_u * data.m_u.flatten(order="F")
    assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(data.m_u)


def test_left_vector_gate_rejects_a_root_the_adjoint_lacks(std_model):
    adjoint = build_superop(std_model).matrix.conj().T
    with pytest.raises(SpectralIndeterminateError, match="adjoint spectrum misses"):
        _left_perron_vectors(adjoint[None], np.array([0.9]), 2)


def test_log_lambda_agrees_with_closed_forms(std_model, periodic_model):
    for u in (-2.0, -0.5, 0.0, 0.7, 2.0):
        assert log_lambda(std_model, u) == pytest.approx(
            float(np.log(reference.std_lambda(u))), abs=1e-11
        )
        assert log_lambda(periodic_model, u) == pytest.approx(
            float(reference.periodic_log_lambda(u)), abs=1e-11
        )


def test_log_lambda_survives_huge_tilts(std_model):
    # naive exponentiation of the weights would overflow long before u = 600
    for u, expected in ((600.0, 600.0 - np.log(3.0)), (-600.0, 600.0 - np.log(3.0))):
        assert np.isfinite(log_lambda(std_model, u))
        assert log_lambda(std_model, u) == pytest.approx(expected, abs=1e-9)


def test_log_lambda_matches_reference_at_moderate_tilts(std_model):
    for u in (-200.0, -50.0, 50.0, 200.0):
        expected = float(np.log(reference.std_lambda(u)))
        assert log_lambda(std_model, u) == pytest.approx(expected, rel=1e-12)


def test_direction_shape_mismatch_is_an_assumption_error(std_model):
    with pytest.raises(AssumptionError):
        derivative_maps(std_model, [0.1, 0.2])


def test_dense_eigensolver_cap_is_an_assumption_error():
    big = Superoperator(np.eye(81, dtype=complex), 9)
    with pytest.raises(AssumptionError):
        spectral_radius(big)
    with pytest.raises(AssumptionError):
        eigendecompose(big.matrix)

