"""Structural analysis: closures, irreducibility, period, recurrence, taxonomy."""
import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from oqwalk import (
    BUILTIN_NAMES,
    AssumptionError,
    KrausModel,
    MIrreducibility,
    SingularRestrictionError,
    SpectralIndeterminateError,
    algebra_closure,
    bn_decomposition,
    builtin,
    classify_c2,
    invariant_state,
    is_irreducible_L,
    is_irreducible_M,
    is_regular,
    model_from_dict,
    period,
    validate_model,
)
from oqwalk import structure
from oqwalk.numerics import frob, unvec, vec
from oqwalk.structure import _projector_basis
from oqwalk.superop import build_superop
import reference
from model_zoo import (
    NN_STEPS,
    STEPS_2D,
    UNEQUAL_BLOCK_SIZES,
    bench_document,
    block_cyclic_model,
    broken_scaled_model,
    c2_sample,
    chain_walk,
    diag_antidiag_model,
    diagonal_pair_model,
    equal_modulus_diagonal_model,
    irreducible_sample,
    leaky_ray_model,
    leaning_ray_model,
    moved_step_document,
    near_scalar_model,
    nearly_periodic_model,
    random_isometry_model,
    rotated,
    three_level_two_block_model,
    upper_triangular_model,
)


def return_words(model, length):
    """All length-`length` operator products with zero net displacement."""
    ops = model.operators
    steps = model.displacements
    d = len(steps[0])
    words = []
    for combo in itertools.product(range(len(ops)), repeat=length):
        if any(sum(steps[i][k] for i in combo) for k in range(d)):
            continue
        w = np.eye(model.internal_dim, dtype=complex)
        for i in combo:
            w = ops[i] @ w
        words.append(w)
    return words


# -- operator algebra closure ------------------------------------------------

def test_closure_of_identity_alone_is_one_dimensional():
    assert algebra_closure([np.eye(2, dtype=complex)]).dimension == 1


def test_closure_of_two_paulis_is_everything():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    closure = algebra_closure([x, z])
    assert closure.dimension == 4
    assert closure.basis.shape == (4, 2, 2)


def test_closure_rejects_empty_input():
    with pytest.raises(ValueError):
        algebra_closure([])


def test_standard_operators_generate_the_full_algebra(std_model):
    assert algebra_closure(std_model.operators).dimension == 4


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _upper_triangular_pair(rng, n):
    return np.triu(_complex_normal(rng, (2, n, n)))


def _two_block_pair(rng, n, h):
    ops = np.zeros((2, n, n), dtype=complex)
    ops[:, :h, :h] = _complex_normal(rng, (2, h, h))
    ops[:, h:, h:] = _complex_normal(rng, (2, n - h, n - h))
    return ops


@pytest.mark.parametrize("n, triangular, two_block", [
    (2, 3, 2), (3, 6, 5), (4, 10, 8), (6, 21, 18),
])
def test_closure_dimensions_of_reducible_pairs(n, triangular, two_block):
    # Upper-triangular matrices: n(n+1)/2; two diagonal blocks: h^2 + (n-h)^2.
    h = n // 2
    assert triangular == n * (n + 1) // 2
    assert two_block == h * h + (n - h) ** 2
    rng = np.random.default_rng(n)
    assert algebra_closure(_upper_triangular_pair(rng, n)).dimension == triangular
    assert algebra_closure(_two_block_pair(rng, n, h)).dimension == two_block


def test_closure_basis_is_orthonormal():
    rng = np.random.default_rng(11)
    for ops in (_upper_triangular_pair(rng, 4), _two_block_pair(rng, 6, 3),
                _complex_normal(rng, (2, 4, 4))):
        closure = algebra_closure(ops)
        vecs = closure.basis.transpose(0, 2, 1).reshape(closure.dimension, -1)
        gram = vecs.conj() @ vecs.T
        np.testing.assert_allclose(gram, np.eye(closure.dimension), atol=1e-12)


# -- irreducibility of the auxiliary map --------------------------------------

def test_standard_model_is_irreducible(std_model):
    report = is_irreducible_L(std_model)
    assert report.irreducible
    assert report.closure_dimension == 4
    assert report.fixed_point_count == 1
    assert report.min_fixed_eigenvalue == pytest.approx(0.5, abs=1e-9)


def test_periodic_and_antidiagonal_are_irreducible(periodic_model, antidiag_model):
    for model in (periodic_model, antidiag_model):
        report = is_irreducible_L(model)
        assert report.irreducible
        assert report.closure_dimension == 4
        assert report.fixed_point_count == 1


def test_classical_one_level_model_is_trivially_irreducible(classical_model):
    report = is_irreducible_L(classical_model)
    assert report.irreducible
    assert report.closure_dimension == 1


def test_breakdown_model_is_reducible_with_boundary_fixed_point(breakdown_model):
    report = is_irreducible_L(breakdown_model)
    assert not report.irreducible
    assert report.fixed_point_count == 1
    assert report.min_fixed_eigenvalue == pytest.approx(0.0, abs=1e-9)


def test_diagonal_pair_has_two_fixed_points():
    report = is_irreducible_L(diagonal_pair_model(7))
    assert not report.irreducible
    assert report.fixed_point_count == 2
    assert report.min_fixed_eigenvalue is None


def test_a_map_that_is_not_trace_preserving_has_no_fixed_point():
    # std_example with L_+ scaled by 1.001: no eigenvalue lies within 1e-7 of 1.
    with pytest.raises(SpectralIndeterminateError, match="shows no eigenvalue 1"):
        is_irreducible_L(broken_scaled_model())


@pytest.mark.parametrize("error", [np.nan, 1e-6], ids=["nan", "1e-6"])
def test_fixed_pairs_are_gated_where_they_are_read(error, perturb_pairs):
    # eigendecompose certifies no pair, and no other reader certifies the
    # fixed ones, so the fixed-point data gates them; a NaN residual fails too.
    perturb_pairs(structure, lambda values: np.abs(values - 1) <= 1e-8, error)
    with pytest.raises(SingularRestrictionError, match=(
            r"^eigendecomposition residual (nan|1\.\d{3}e-06) exceeds "
            r"1\.0e-09 \* \|\|A\|\| = 1\.700e-09$")):
        is_irreducible_L(builtin("std_example"))


# -- cyclic period -------------------------------------------------------------

def test_standard_model_is_aperiodic(std_model):
    data = period(std_model)
    assert data.period == 1
    assert len(data.projections) == 1
    np.testing.assert_allclose(data.projections[0], np.eye(2), atol=1e-12)
    assert data.relation_residual == 0.0


def test_periodic_model_has_period_two_with_coordinate_projections(periodic_model):
    data = period(periodic_model)
    assert data.period == 2
    assert data.relation_residual <= 1e-8
    p0, p1 = data.projections
    np.testing.assert_allclose(p0, np.diag([1.0, 0.0]), atol=1e-9)
    np.testing.assert_allclose(p1, np.diag([0.0, 1.0]), atol=1e-9)
    np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)
    # the defining cyclic relation, checked directly
    for op in periodic_model.operators:
        np.testing.assert_allclose(p1 @ op, op @ p0, atol=1e-9)
        np.testing.assert_allclose(p0 @ op, op @ p1, atol=1e-9)


def test_antidiagonal_model_has_period_two(antidiag_model):
    data = period(antidiag_model)
    assert data.period == 2
    for j, op in itertools.product(range(2), antidiag_model.operators):
        np.testing.assert_allclose(
            data.projections[j] @ op, op @ data.projections[(j - 1) % 2], atol=1e-9
        )


@pytest.mark.parametrize("sizes, steps", [
    ((3, 2, 3), NN_STEPS),
    ((1, 2, 1), NN_STEPS),
    ((3, 2, 1, 1), ((1,), (-1,), (0,))),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_block_cyclic_models_have_their_period_and_blocks(sizes, steps, seed):
    model = block_cyclic_model(seed, sizes, steps)
    d = len(sizes)
    data = period(model)
    assert data.period == d
    assert data.relation_residual <= 1e-8
    # Projection 0 has the largest diagonal, so the labels follow the blocks.
    assert [int(round(np.trace(p).real)) for p in data.projections] == list(sizes)
    starts = np.cumsum((0,) + sizes)
    for j, p in enumerate(data.projections):
        block = np.zeros(model.internal_dim)
        block[starts[j]:starts[j + 1]] = 1.0
        np.testing.assert_allclose(p, np.diag(block), atol=1e-9)
    r = is_regular(model)
    assert (r.regular, r.period) == (False, d)


def test_unequal_block_walks_answer_with_their_period():
    # The untilted maps of these walks are far from normal, and pairs that
    # no caller reads miss 1e-9 ||A|| on many of them; every pair an answer
    # reads passes its own gate.  A reducible verdict is one both routes
    # give (they raise when they disagree), with the closure below n^2.  The
    # invariant state meets the fixed-point gate's bound; on three seed-3
    # walks it is only that accurate (7.5e-10 on (2, 1)), on the rest to 1e-14.
    seen = Counter()
    for seed, sizes in itertools.product(range(5), UNEQUAL_BLOCK_SIZES):
        model = block_cyclic_model(seed, sizes)
        n = model.internal_dim
        report = is_irreducible_L(model)
        if not report.irreducible:
            assert report.closure_dimension < n * n, (seed, sizes)
            seen["reducible"] += 1
            continue
        assert period(model).period == len(sizes), (seed, sizes)
        a = build_superop(model)
        rho = invariant_state(model)
        assert frob(a.apply(rho) - rho) <= 1e-9 * frob(a.matrix), (seed, sizes)
        seen["periodic"] += 1
    assert seen == {"periodic": 170, "reducible": 55}


def test_period_requires_irreducibility(breakdown_model):
    with pytest.raises(AssumptionError):
        period(breakdown_model)


@pytest.mark.parametrize("gap", [3e-9, 3e-8])
def test_the_peripheral_band_is_the_unit_circle_tolerance(gap):
    """The band is 1e-8 (``UNIT_CIRCLE_TOL``) wide.  An eigenvalue -(1 - gap)
    of an aperiodic map inside it counts as a second root of unity: the map
    is not regular, and ``period`` refuses it, since a lazy step cannot shift
    cyclic projections.  Outside the band the map has period 1."""
    model = nearly_periodic_model(gap)
    report = is_regular(model)
    if gap < 1e-8:
        assert (report.regular, report.period) == (False, 2)
        with pytest.raises(SpectralIndeterminateError):
            period(model)
    else:
        assert (report.regular, report.period) == (True, 1)
        assert period(model).period == 1


# -- regularity ----------------------------------------------------------------

def test_regularity_verdicts(std_model, periodic_model, breakdown_model,
                             classical_model, antidiag_model):
    r = is_regular(std_model)
    assert r.regular and r.period == 1
    assert isinstance(r.onset_estimate, int) and r.onset_estimate >= 1

    r = is_regular(periodic_model)
    assert (r.regular, r.period, r.onset_estimate) == (False, 2, None)

    r = is_regular(breakdown_model)
    assert (r.regular, r.period, r.onset_estimate) == (False, None, None)

    r = is_regular(antidiag_model)
    assert (r.regular, r.period) == (False, 2)

    assert is_regular(classical_model).regular


@pytest.mark.parametrize("name", ["std_example", "periodic_example", "antidiag_example"])
@pytest.mark.parametrize("query", [is_regular, period])
def test_period_and_regularity_compute_the_operator_closure_once(name, query,
                                                                 monkeypatch):
    import oqwalk.structure as structure

    calls = []
    real = structure.algebra_closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "algebra_closure", counting)
    query(builtin(name))
    assert len(calls) == 1


def test_regularity_builds_the_untilted_map_once(computes):
    # the fixed points and the positivity-onset probe read the kept map
    import oqwalk.superop as superop

    model = builtin("std_example")
    builds = computes(build_superop, superop, "weighted_superop")
    assert is_regular(model).regular
    assert len(builds) == 1
    assert is_regular(model).regular
    assert len(builds) == 1


# -- recurrent / decaying splitting ---------------------------------------------

def test_breakdown_decomposition_isolates_the_trapping_ray(breakdown_model):
    bn = bn_decomposition(breakdown_model)
    assert bn.recurrent_dimension == 1
    assert bn.decaying_dimension == 1
    direction = bn.recurrent_basis[:, 0]
    assert abs(direction[0]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(bn.limit_state, np.diag([1.0, 0.0]), atol=1e-8)
    # bases are orthonormal and complementary
    full = np.column_stack([bn.recurrent_basis, bn.decaying_basis])
    np.testing.assert_allclose(full.conj().T @ full, np.eye(2), atol=1e-10)


def test_a_recurrent_part_cut_below_its_weight_is_refused():
    # The chain's fixed point diag(1 - q, q) at q = 5e-10 keeps state 0
    # alone above the 1e-9 support cut, and L_- carries state 0 into state 1.
    with pytest.raises(SpectralIndeterminateError, match="recurrent subspace leaks"):
        bn_decomposition(chain_walk(5e-10))


def test_irreducible_models_are_fully_recurrent(std_model, periodic_model):
    for model in (std_model, periodic_model):
        bn = bn_decomposition(model)
        assert bn.recurrent_dimension == 2
        assert bn.decaying_dimension == 0


def test_reducible_but_faithful_models_have_no_decaying_part():
    bn = bn_decomposition(diagonal_pair_model(11))
    assert bn.recurrent_dimension == 2
    assert bn.decaying_dimension == 0
    bn = bn_decomposition(three_level_two_block_model())
    assert bn.recurrent_dimension == 3
    assert bn.decaying_dimension == 0


def test_recurrent_split_follows_the_two_level_taxonomy():
    # Situation 2 keeps only the common ray; situations 1 and 3 keep both.
    models = [upper_triangular_model(seed) for seed in range(100)] + c2_sample(100)
    for index, model in enumerate(models):
        cls = classify_c2(model)
        bn = bn_decomposition(model)
        if cls.situation == 2:
            assert bn.recurrent_dimension == 1, index
            overlap = abs(np.vdot(cls.rays[0], bn.recurrent_basis[:, 0]))
            assert overlap == pytest.approx(1.0, abs=1e-9), index
        else:
            assert bn.recurrent_dimension == 2, index
        assert bn.recurrent_dimension + bn.decaying_dimension == 2


def two_sink_model(p=0.01, q=0.02):
    """Three levels: span(e1, e2) is fixed pointwise, and e3 drains into e1
    with rate p and into e2 with rate q, so the limit of I/3 is
    diag(1 + p / (p + q), 1 + q / (p + q), 0) / 3."""
    ops = np.zeros((5, 3, 3), dtype=complex)
    ops[0] = ops[1] = np.diag([1.0, 1.0, 0.0]) / np.sqrt(2)
    ops[2, 0, 2], ops[3, 1, 2], ops[4, 2, 2] = np.sqrt([p, q, 1 - p - q])
    return KrausModel(1, 3, ((1,), (-1,), (2,), (-2,), (0,)), ops)


def test_several_fixed_points_keep_the_mass_their_sinks_receive():
    bn = bn_decomposition(two_sink_model())
    assert (bn.recurrent_dimension, bn.decaying_dimension) == (2, 1)
    np.testing.assert_allclose(bn.limit_state, np.diag([1 + 1 / 3, 1 + 2 / 3, 0]) / 3,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(bn.recurrent_basis, np.eye(3)[:, :2], atol=1e-12)
    np.testing.assert_allclose(bn.decaying_basis, np.eye(3)[:, 2:], atol=1e-12)


@pytest.mark.parametrize("model, period_length", [
    (upper_triangular_model(0), 1),  # its transient decays at rate 0.987
    (builtin("breakdown_example"), 1),
    (builtin("periodic_example"), 2),
    (two_sink_model(), 1),  # four fixed points
])
def test_limit_state_is_the_cesaro_limit(model, period_length):
    n = model.internal_dim
    matrix = build_superop(model).matrix
    tail = np.linalg.matrix_power(matrix, 4096) @ vec(np.eye(n) / n)
    average = np.zeros_like(tail)
    for _ in range(2 * period_length):
        average += tail
        tail = matrix @ tail
    average /= 2 * period_length
    bn = bn_decomposition(model)
    np.testing.assert_allclose(bn.limit_state, unvec(average, n), rtol=0, atol=1e-10)


def test_recurrent_bases_depend_only_on_the_subspace():
    rng = np.random.default_rng(5)
    n, rank = 4, 2
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    spin, _ = np.linalg.qr(rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank)))
    first, second = q[:, :rank], q[:, :rank] @ spin
    a = _projector_basis(first @ first.conj().T, rank)
    b = _projector_basis(second @ second.conj().T, rank)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.conj().T @ a, np.eye(rank), atol=1e-12)
    np.testing.assert_allclose(a @ a.conj().T, first @ first.conj().T, atol=1e-12)
    # A full recurrent part is reported in the standard basis, exactly.
    for name in ("std_example", "periodic_example", "antidiag_example"):
        bn = bn_decomposition(builtin(name))
        assert np.array_equal(bn.recurrent_basis, np.eye(2))
        assert bn.decaying_basis.shape == (2, 0)


def _onset_by_probe_loop(model):
    """The positivity-onset probe of ``is_regular``, one probe at a time."""
    n = model.internal_dim
    rng = np.random.default_rng(0xA11CE)
    probes = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    matrix = build_superop(model).matrix
    power = np.eye(n * n, dtype=complex)
    for n_pow in range(1, 4 * n * n + 1):
        power = matrix @ power
        outs = [unvec(power @ vec(np.outer(x, x.conj())), n) for x in probes]
        if all(np.linalg.eigvalsh((o + o.conj().T) / 2).min() > 1e-8 for o in outs):
            return n_pow
    return None


def test_batched_onset_probe_matches_the_probe_loop():
    models = [builtin(name) for name in ("std_example", "antidiag_example",
                                         "classical_dilation")]
    for model in models + irreducible_sample(20):
        report = is_regular(model)
        if report.regular:
            assert report.onset_estimate == _onset_by_probe_loop(model)


# -- two-level taxonomy by common eigenvectors -----------------------------------

def test_models_without_common_eigenvector_are_situation_one(
        std_model, periodic_model, antidiag_model):
    for model in (std_model, periodic_model, antidiag_model):
        cls = classify_c2(model)
        assert cls.situation == 1
        assert cls.rays == ()
        assert cls.basis is None


def test_breakdown_model_is_situation_two(breakdown_model):
    cls = classify_c2(breakdown_model)
    assert cls.situation == 2
    (ray,) = cls.rays
    assert abs(ray[0]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(np.abs(cls.alpha) ** 2, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(np.abs(cls.beta) ** 2, [0.75, 0.0], atol=1e-9)
    np.testing.assert_allclose(np.abs(cls.gamma) ** 2, [0.125, 0.125], atol=1e-9)
    # the triangular data satisfies the trace-preservation identities
    assert np.sum(np.abs(cls.alpha) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(cls.beta) ** 2 + np.abs(cls.gamma) ** 2) == pytest.approx(
        1.0, abs=1e-12)
    assert abs(np.sum(np.conj(cls.alpha) * cls.gamma)) < 1e-12
    # triangular form reproduces the operators in the recorded basis
    for s, op in enumerate(breakdown_model.operators):
        rebuilt = cls.basis @ np.array(
            [[cls.alpha[s], cls.gamma[s]], [0.0, cls.beta[s]]]
        ) @ cls.basis.conj().T
        np.testing.assert_allclose(rebuilt, op, atol=1e-9)


def test_generic_triangular_models_are_situation_two():
    from model_zoo import upper_triangular_model

    for seed in (0, 1, 2):
        cls = classify_c2(upper_triangular_model(seed))
        assert cls.situation == 2, seed
        assert abs(np.vdot(cls.rays[0], cls.rays[0])) == pytest.approx(1.0)


def test_diagonal_models_are_situation_three():
    model = diagonal_pair_model(5)
    cls = classify_c2(model)
    assert cls.situation == 3
    e1, e2 = cls.rays
    assert abs(np.vdot(e1, e2)) < 1e-9
    # operators diagonalize simultaneously with the recorded entries
    for s, op in enumerate(model.operators):
        rebuilt = cls.basis @ np.diag([cls.alpha[s], cls.beta[s]]) @ cls.basis.conj().T
        np.testing.assert_allclose(rebuilt, op, atol=1e-9)
    assert cls.gamma is None


@pytest.mark.parametrize("leak, situation", [(3e-9, 2), (3e-8, 1)])
def test_a_common_ray_may_leak_up_to_the_projection_tolerance(leak, situation):
    """A ray is common when its relative leak is at most 1e-8 (``PROJECTION_TOL``)."""
    model = leaky_ray_model(leak)
    e0 = np.array([1.0, 0.0])
    assert structure._leak(np.outer(e0, e0), model.operators) == pytest.approx(leak, rel=1e-6)
    assert classify_c2(model).situation == situation


def test_two_common_rays_that_are_not_orthogonal_are_refused():
    # I / sqrt 2 +- 1e-6 N share the rays of N = [[0, 1], [0, 1]], 45 degrees
    # apart; only a scalar family has such a pair exactly.
    with pytest.raises(AssumptionError, match="not orthogonal"):
        classify_c2(near_scalar_model(1e-6))


@pytest.mark.parametrize("eps", [5e-9, 9e-9])
def test_a_leaning_common_ray_keeps_its_triangular_normal_form(eps):
    # The ray e0 leaks by eps under two operators, which passes the 1e-8 ray
    # gate, and sum conj(alpha) gamma = -1.41 eps: 7.1e-9 and 1.27e-8, both
    # within the sqrt(2) 1e-8 + 1e-10 that the ray gate itself allows.
    model = leaning_ray_model(eps)
    assert validate_model(model).residual <= 1e-15
    cls = classify_c2(model)
    assert cls.situation == 2
    assert abs(np.vdot(cls.alpha, cls.gamma)) == pytest.approx(np.sqrt(2) * eps, rel=1e-2)


def test_taxonomy_requires_a_valid_two_level_model(classical_model):
    with pytest.raises(AssumptionError):
        classify_c2(classical_model)  # one-dimensional internal space
    with pytest.raises(AssumptionError):
        classify_c2(broken_scaled_model())  # not trace preserving


# -- lattice-walk irreducibility -------------------------------------------------

def test_standard_walk_is_irreducible(std_model):
    verdict = is_irreducible_M(std_model)
    assert verdict.verdict == "irreducible"
    assert verdict.closure_dimension == 4
    assert verdict.witness is None


def test_classical_walk_is_irreducible(classical_model):
    verdict = is_irreducible_M(classical_model)
    assert verdict.verdict == "irreducible"
    assert verdict.closure_dimension == 1


def test_periodic_walk_is_reducible_with_a_certified_witness(periodic_model):
    verdict = is_irreducible_M(periodic_model)
    assert verdict.verdict == "reducible"
    w = verdict.witness
    assert w is not None and w.shape[0] == 2 and 0 < w.shape[1] < 2
    np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-10)
    # independent certification: every short return word keeps span(w) invariant
    proj = w @ w.conj().T
    comp = np.eye(2) - proj
    for length in (2, 4):
        for word in return_words(periodic_model, length):
            leak = np.linalg.norm(comp @ word @ w)
            assert leak <= 1e-8 * max(1.0, np.linalg.norm(word))


def test_walk_irreducibility_respects_the_length_budget(std_model):
    verdict = is_irreducible_M(std_model, max_length=1)
    assert verdict.verdict == "inconclusive"
    assert verdict.closure_dimension == 0
    assert verdict.max_length_used <= 1
    assert is_irreducible_M(std_model, max_length=0) == MIrreducibility(
        "inconclusive", 0, 0, None)


@pytest.mark.parametrize("step, expected", [
    (20, ("irreducible", 16, 21)),
    (10**30, ("inconclusive", 0, 34)),
], ids=["step20", "step1e30"])
def test_walk_irreducibility_needs_no_word_budget(step, expected):
    # 2^l words of each length l, but at most l + 1 reached sites
    model = model_from_dict(json.loads(moved_step_document(step)))
    start = time.perf_counter()
    verdict = is_irreducible_M(model)
    assert time.perf_counter() - start < 0.5
    assert (verdict.verdict, verdict.closure_dimension,
            verdict.max_length_used) == expected


def test_walk_search_keeps_every_site_that_can_still_return(std_model):
    # the first return words come at the last allowed length, and the paths
    # that go furthest out touch the pruning bound
    assert is_irreducible_M(std_model, max_length=2).verdict == "irreducible"
    model = model_from_dict(json.loads(moved_step_document(20)))
    verdict = is_irreducible_M(model, max_length=21)
    assert (verdict.verdict, verdict.max_length_used) == ("irreducible", 21)


def _walk_sample():
    """Builtins, two-level, three-level, 1-D and 2-D isometries, long steps, n4/n8."""
    models = [builtin(name) for name in BUILTIN_NAMES] + c2_sample(100)
    models += [three_level_two_block_model(), equal_modulus_diagonal_model()]
    models += [random_isometry_model(seed, n, steps) for seed in range(5)
               for n in (2, 3, 4) for steps in (NN_STEPS, STEPS_2D)]
    models += [random_isometry_model(seed, 2, ((1,), (-1,), (3,), (-2,)))
               for seed in range(5)]
    models += [model_from_dict(json.loads(bench_document(1, name)))
               for name in ("n4.json", "n8.json")]
    return models


@pytest.mark.parametrize("max_length", [None, 1, 3, 8])
def test_walk_irreducibility_matches_the_word_list(max_length):
    sample = _walk_sample()
    assert len(sample) == 144
    for i, model in enumerate(sample):
        got = is_irreducible_M(model, max_length)
        verdict, dim, used, witness = reference.enumerated_walk_irreducibility(
            model, max_length)
        assert (got.verdict, got.closure_dimension, got.max_length_used) == (
            verdict, dim, used), i
        assert (got.witness is None) == (witness is None), i
        if witness is not None:
            np.testing.assert_allclose(got.witness @ got.witness.conj().T,
                                       witness @ witness.conj().T, atol=1e-9)


def test_walk_witness_depends_only_on_its_subspace(periodic_model):
    w = is_irreducible_M(periodic_model).witness
    assert w.tolist() == [[1], [0]]
    w = is_irreducible_M(three_level_two_block_model()).witness
    np.testing.assert_allclose(w, np.eye(3)[:, 1:], atol=1e-12)
    # the reported basis is the projector's canonical one: a fixed point
    np.testing.assert_allclose(_projector_basis(w @ w.conj().T, 2), w, atol=1e-14)


def test_walk_on_a_line_in_the_plane_is_reducible(std_model):
    model = KrausModel(2, 2, ((1, 0), (-1, 0)), std_model.operators)
    assert is_irreducible_M(model) == MIrreducibility("reducible", 0, 0, None)


def test_walk_on_even_sites_is_reducible(std_model):
    model = KrausModel(1, 2, ((2,), (-2,)), std_model.operators)
    assert is_irreducible_M(model) == MIrreducibility("reducible", 0, 0, None)


def test_walk_without_a_down_step_is_reducible():
    model = random_isometry_model(3, n=2, steps=((1, 0), (-1, 0), (0, 1)))
    assert is_irreducible_M(model) == MIrreducibility("reducible", 0, 0, None)


def test_walks_on_long_coprime_steps_reach_every_site(std_model):
    # positive dependencies 3 (2) + 2 (-3) = 0 and (2, 1) + 2 (-1, 0) + (0, -1) = 0,
    # and minors of gcd 1: the gate must pass both
    model = KrausModel(1, 2, ((2,), (-3,)), std_model.operators)
    assert is_irreducible_M(model).verdict == "irreducible"
    model = random_isometry_model(3, n=2, steps=((2, 1), (-1, 0), (0, -1)))
    assert is_irreducible_M(model).verdict == "irreducible"


def test_breakdown_walk_is_not_irreducible(breakdown_model):
    assert is_irreducible_M(breakdown_model).verdict != "irreducible"


# -- the lattice walk's period -----------------------------------------------------

def test_lattice_period_matches_the_minor_gcd():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        steps = [tuple(int(c) for c in rng.integers(-4, 5, size=d)) for _ in range(k)]
        assert structure._lattice_period(steps) == reference.lattice_period_by_minors(steps), \
            steps


def test_lattice_period_takes_no_minor(monkeypatch):
    # The 80 steps of {-1, 0, 1}^4 \ {0} have C(79, 4) = 1.5 million 4 x 4
    # minors; row reduction forms none.
    calls = []
    monkeypatch.setattr(structure, "_det", lambda rows: calls.append(rows))
    steps = [s for s in itertools.product((-1, 0, 1), repeat=4) if any(s)]
    assert structure._lattice_period(steps) == 1
    assert calls == []


@pytest.mark.parametrize("steps, expected", [
    (((1,), (-1,)), 2),
    (((2,), (-3,)), 5),
    (((2, 1), (-1, 0), (0, -1)), 4),
    (STEPS_2D, 2),
], ids=["nn", "coprime", "skew_2d", "nn_2d"])
def test_walk_period_is_the_lattice_period_of_a_generic_walk(steps, expected):
    # A generic map is aperiodic, so the period is p, the index of the
    # lattice the step differences span: 2, 5, |det((-3, -1), (-2, -2))| = 4
    # and 2.
    walk = is_irreducible_M(random_isometry_model(3, n=2, steps=steps))
    assert (walk.verdict, walk.period) == ("irreducible", expected)


@pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 1), (2, 3, 3)])
def test_walk_period_is_the_lcm_of_the_lattice_and_map_periods(sizes):
    # The map cycles through three blocks and the steps alternate parity;
    # the closed return span is full at length 2, long before the period.
    model = block_cyclic_model(0, sizes)
    walk = is_irreducible_M(model)
    assert (walk.verdict, walk.max_length_used, walk.period) == ("irreducible", 2, 6)
    assert period(model).period == 3


def test_walk_period_scans_on_when_the_map_period_is_refused(monkeypatch):
    # With the map's peripheral spectrum refused, d is unknown and the scan
    # runs past length 6, where it stops when d = 3 is known, to max_length;
    # the gcd of its trace lengths is still 6.
    model = block_cyclic_model(0, (1, 2, 1))
    known = _span_count(monkeypatch, model)

    def refused(model):
        raise SpectralIndeterminateError("peripheral spectrum refused")

    monkeypatch.setattr(structure, "_peripheral_count", refused)
    walk = is_irreducible_M(model)
    assert (walk.verdict, walk.max_length_used, walk.period) == ("irreducible", 2, 6)
    assert _span_count(monkeypatch, model) > known


def _commuting_diagonal_model(seed):
    """L_+ = U diag(0.6, 0.8) U^dag and L_- = U diag(0.8, 0.6) U^dag: every
    return word is a multiple of I, so every ray is invariant, the
    eigenvectors of L_+ among them, but not the basis vectors for U != I."""
    return rotated(KrausModel(1, 2, NN_STEPS, np.array(
        [np.diag([0.6, 0.8]), np.diag([0.8, 0.6])], dtype=complex)), seed)


def test_walk_period_and_reason_match_the_ray_oracle():
    models = c2_sample(100) + [builtin(name) for name in (
        "periodic_example", "breakdown_example", "antidiag_example")]
    models.append(_commuting_diagonal_model(1))
    seen = []
    for seed in (None, 1, 2):  # the reason must not depend on the basis
        for i, model in enumerate(models):
            if seed is not None:
                model = rotated(model, seed)
            oracle = reference.c2_m_classifier(model)
            want = (oracle.m_irreducible, oracle.m_period, oracle.reducible_reason)
            walk = is_irreducible_M(model)
            got = ({"irreducible": True, "reducible": False}.get(walk.verdict),
                   walk.period, structure._two_level_reason(model, walk))
            assert got == want, (seed, i)
            seen.append(want)
    assert sorted(Counter(seen[:len(models)]).values()) == [10, 12, 12, 70]
    assert seen[80:90] == [(True, 4, None)] * 10
    assert seen[103] == (False, None, "common-eigenvector")


def _span_count(monkeypatch, model, max_length=None) -> int:
    """How many operator spans ``is_irreducible_M`` builds, closures included."""
    built = []

    class Counted(structure._OperatorSpan):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(structure, "_OperatorSpan", Counted)
    is_irreducible_M(model, max_length)
    return len(built)


@pytest.mark.parametrize("model, walk_period", [
    (lambda: model_from_dict(json.loads(bench_document(1, "n4.json"))), 2),
    (lambda: model_from_dict(json.loads(bench_document(1, "n8.json"))), 2),
    (lambda: block_cyclic_model(0, (1, 2, 1)), 6),
    (lambda: block_cyclic_model(0, (2, 3, 3)), 6),
], ids=["n4", "n8", "block_cyclic_121", "block_cyclic_233"])
def test_walk_period_scan_stops_once_the_period_is_known(monkeypatch, model, walk_period):
    # Here g first equals lcm(p, d) at the length of the period itself: the
    # benchmark documents at their verdict length 2, the block-cyclic model
    # at 6 of its 130 lengths.  With steps +-1 a run allowed twice that many
    # lengths prunes no site up to there, so its span count equals the
    # default run's only if both stop at that length.
    model = model()
    walk = is_irreducible_M(model)
    assert (walk.verdict, walk.max_length_used, walk.period) == (
        "irreducible", 2, walk_period)
    assert (_span_count(monkeypatch, model)
            == _span_count(monkeypatch, model, 2 * walk_period))


# -- the two-level ray oracle (tests/reference.py) ---------------------------------

def test_walk_classifier_on_builtins(std_model, periodic_model,
                                     breakdown_model, antidiag_model):
    cls = reference.c2_m_classifier(std_model)
    assert (cls.m_irreducible, cls.m_period) == (True, 2)

    for model in (periodic_model, antidiag_model):
        cls = reference.c2_m_classifier(model)
        assert (cls.m_irreducible, cls.m_period, cls.reducible_reason) == (
            False, None, "swap-pair")

    cls = reference.c2_m_classifier(breakdown_model)
    assert (cls.m_irreducible, cls.m_period, cls.reducible_reason) == (
        False, None, "common-eigenvector")


def test_walk_classifier_finds_period_four_models():
    model = diag_antidiag_model(0)
    cls = reference.c2_m_classifier(model)
    assert cls.m_irreducible
    assert cls.m_period == 4
    b = cls.basis
    np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-10)
    # the recorded basis makes one operator diagonal and the other antidiagonal
    forms = []
    for op in model.operators:
        t = b.conj().T @ op @ b
        off = abs(t[0, 1]) + abs(t[1, 0])
        diag = abs(t[0, 0]) + abs(t[1, 1])
        forms.append("diag" if off < 1e-9 else ("anti" if diag < 1e-9 else "mixed"))
    assert sorted(forms) == ["anti", "diag"]


def test_walk_classifier_rejects_wrong_shapes(classical_model):
    with pytest.raises(AssumptionError):
        reference.c2_m_classifier(classical_model)


def test_classifier_and_search_never_contradict_each_other():
    pool = c2_sample()
    sample = pool[:8] + pool[70:75] + pool[80:85] + pool[90:93] + pool[95:98]
    for model in sample:
        cls = reference.c2_m_classifier(model)
        search = is_irreducible_M(model, max_length=8)
        if cls.m_irreducible:
            assert search.verdict != "reducible"
        else:
            assert search.verdict != "irreducible"
