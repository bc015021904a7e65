"""Drift, CLT covariance, tilted-curve kinks, rate function, block mixtures."""
import functools
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oqwalk import (
    BUILTIN_NAMES,
    AssumptionError,
    KrausModel,
    ConvergenceError,
    MultiplicityError,
    SpectralIndeterminateError,
    asymptotic_stats,
    block_mixture,
    bn_decomposition,
    builtin,
    covariance,
    drift,
    invariant_state,
    is_irreducible_L,
    is_regular,
    lambda_curve,
    log_lambda,
    model_from_dict,
    period,
    point_initial_state,
    rate_function,
)
from oqwalk.asymptotics import (
    _block_crossings,
    _legendre_point,
    _newton_max,
    _top_block,
    _triple_derivatives,
)
from oqwalk.structure import (
    _fixed_point_data,
    _irreducible_blocks,
    _operator_closure,
    algebra_closure,
)
from oqwalk.superop import (
    _perron_rows,
    _shifted_map,
    _shifted_maps,
    build_superop,
    perron,
    spectral_radius,
)
import reference
from reference import c2_parameters
from model_zoo import (
    STEPS_2D,
    UNEQUAL_BLOCK_SIZES,
    bench_document,
    block_cyclic_model,
    block_sum_model,
    broken_scaled_model,
    c2_sample,
    diagonal_pair_model,
    equal_modulus_diagonal_model,
    mirrored_breakdown_model,
    nilpotent_step_model,
    random_isometry_model,
    rotated,
    three_level_two_block_model,
    transient_fed_rays_model,
    upper_triangular_model,
)


# -- invariant state -----------------------------------------------------------

def test_invariant_states_of_builtins(all_builtins):
    expected = {
        "std_example": reference.STD_INVARIANT,
        "periodic_example": reference.PERIODIC_INVARIANT,
        "breakdown_example": reference.BREAKDOWN_INVARIANT,
        "antidiag_example": np.eye(2) / 2,
        "classical_dilation": np.array([[1.0]]),
    }
    for name, model in all_builtins.items():
        rho = invariant_state(model)
        np.testing.assert_allclose(rho, expected[name], atol=1e-10, err_msg=name)


def test_invariant_state_refuses_degenerate_fixed_spaces():
    with pytest.raises(MultiplicityError):
        invariant_state(diagonal_pair_model(3))
    with pytest.raises(MultiplicityError):
        invariant_state(three_level_two_block_model())


# -- drift and covariance --------------------------------------------------------

def test_drift_of_builtins(all_builtins):
    for name, model in all_builtins.items():
        np.testing.assert_allclose(
            drift(model), [reference.MEANS[name]], atol=1e-12, err_msg=name)


def test_biased_classical_drift():
    np.testing.assert_allclose(drift(builtin("classical_dilation", p=0.7)),
                               [0.4], atol=1e-14)


def test_covariance_of_builtins(all_builtins):
    for name, model in all_builtins.items():
        np.testing.assert_allclose(
            covariance(model), [[reference.VARIANCES[name]]],
            atol=1e-10, err_msg=name)


def test_both_covariance_routes_agree(all_builtins):
    for name, model in all_builtins.items():
        gap = np.max(np.abs(covariance(model) - reference.covariance_ags(model)))
        assert gap <= 1e-9, (name, gap)


def test_full_stats_on_the_standard_model(std_model):
    stats = asymptotic_stats(std_model)
    np.testing.assert_allclose(stats.mean, [0.0], atol=1e-12)
    np.testing.assert_allclose(stats.covariance, [[8 / 9]], atol=1e-10)
    np.testing.assert_allclose(stats.covariance_alt, stats.covariance, atol=1e-9)
    assert stats.route_gap <= 1e-10
    assert stats.drift_fd_gap <= 1e-6
    # the corrector solving the recentred first-derivative equation
    np.testing.assert_allclose(stats.eta_basis[0], reference.STD_ETA, atol=1e-9)
    assert set(stats.method_residuals) == {
        "covariance_route_gap", "drift_fd_gap", "eta_fixed_point_residual"}
    assert stats.method_residuals["eta_fixed_point_residual"] <= 1e-10


def test_full_stats_raise_cleanly_without_a_unique_invariant_state():
    with pytest.raises(MultiplicityError):
        asymptotic_stats(diagonal_pair_model(5))


STEPS_3D = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
ISOMETRY_2D_3D = {"2-D": random_isometry_model(3, n=2, steps=STEPS_2D),
                  "3-D": random_isometry_model(4, n=2, steps=STEPS_3D)}


@pytest.mark.parametrize("label", ["std", "2-D", "3-D"])
def test_asymptotic_stats_solves_each_corrector_once(label, monkeypatch):
    """Each route solves once per axis: d traceless solves for the
    correctors (which ``eta_basis`` keeps) and d adjoint ``lstsq`` calls."""
    import oqwalk.asymptotics as asymptotics

    model = builtin("std_example") if label == "std" else ISOMETRY_2D_3D[label]
    solves = _count_calls(monkeypatch, "solve_on_traceless", asymptotics)
    lstsq_calls = _count_calls(monkeypatch, "lstsq", np.linalg)
    stats = asymptotic_stats(model)
    assert len(solves) == len(lstsq_calls) == model.lattice_dim
    assert len(stats.eta_basis) == model.lattice_dim


@pytest.mark.parametrize("label", ["2-D", "3-D"])
def test_covariance_is_the_hessian_of_log_lambda(label):
    # Central second differences of log lambda_u at 0 (h = 1e-3) share no
    # code with either covariance route; their error is O(h^2).
    model = ISOMETRY_2D_3D[label]
    d, h = model.lattice_dim, 1e-3
    axes = np.eye(d) * h
    hessian = np.empty((d, d))
    for i, j in itertools.product(range(d), repeat=2):
        hessian[i, j] = sum(
            a * b * log_lambda(model, a * axes[i] + b * axes[j])
            for a, b in itertools.product((1, -1), repeat=2)) / (4 * h * h)
    stats = asymptotic_stats(model)
    assert np.max(np.abs(hessian - np.diag(np.diag(hessian)))) >= 0.01
    np.testing.assert_allclose(stats.covariance, hessian, rtol=0, atol=1e-5)
    np.testing.assert_allclose(stats.covariance_alt, hessian, rtol=0, atol=1e-5)


@pytest.mark.parametrize("make, p1, p2", [
    (lambda: builtin("std_example"), 150, 300),
    (lambda: builtin("periodic_example"), 60, 120),
    (lambda: random_isometry_model(31, 4), 60, 120),
    (lambda: random_isometry_model(0, 3, STEPS_2D), 30, 60),
], ids=["std_example", "periodic_example", "isometry_n4", "isometry_2d"])
def test_clt_constants_match_the_exact_law(make, p1, p2):
    # std_example's slow transient needs the longer horizons: at 60/120 its
    # two-horizon covariance still errs by about 9e-8.
    model = make()
    mean, cov = reference.exact_clt_constants(model, p1, p2)
    stats = asymptotic_stats(model)
    np.testing.assert_allclose(stats.mean, mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(stats.covariance, cov, rtol=0, atol=1e-10)


def test_unequal_block_walks_match_the_exact_law():
    # Seed 0's periodic walks whose cyclic blocks differ in size: their
    # untilted maps are far from normal, yet every pair the constants read
    # is certified where it is read.
    answered = 0
    for sizes in UNEQUAL_BLOCK_SIZES:
        model = block_cyclic_model(0, sizes)
        if not is_irreducible_L(model).irreducible:
            continue
        mean, cov = reference.exact_clt_constants(model, 120, 240)
        stats = asymptotic_stats(model)
        np.testing.assert_allclose(stats.mean, mean, rtol=0, atol=1e-10, err_msg=str(sizes))
        np.testing.assert_allclose(stats.covariance, cov, rtol=0, atol=1e-10,
                                   err_msg=str(sizes))
        answered += 1
    assert answered == 34


@pytest.mark.parametrize("make, offset", [
    (lambda: builtin("std_example"), 0.5),
    (lambda: builtin("periodic_example"), 1.0),
    (lambda: random_isometry_model(31, 4), 0.5),
], ids=["std_example", "periodic_example", "isometry_n4"])
def test_clt_distance_falls_at_the_rate_one_over_root_p(make, offset):
    # D_P sqrt(P) stays within 0.2 % over P = 250..1000 with the package's
    # (m, C); with C scaled by 1.01 it moves 3 % (36 % on periodic_example).
    model = make()
    stats = asymptotic_stats(model)
    scaled = [reference.clt_kolmogorov_distance(
        model, p, float(stats.mean[0]), float(stats.covariance[0, 0]), offset) * np.sqrt(p)
        for p in (250, 500, 1000)]
    assert max(scaled) / min(scaled) <= 1.01


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_routes_and_finite_differences_agree_on_random_models(seed):
    stats = asymptotic_stats(random_isometry_model(seed))
    assert stats.route_gap <= 1e-8
    assert stats.drift_fd_gap <= 1e-6


# -- tilted curves and kinks -------------------------------------------------------

def test_smooth_models_produce_no_kinks(std_model, periodic_model):
    for model, ref in ((std_model, lambda u: np.log(reference.std_lambda(u))),
                       (periodic_model, reference.periodic_log_lambda)):
        curve = lambda_curve(model, np.linspace(-2.0, 2.0, 41))
        assert curve.kinks == ()
        assert curve.degenerate_parameters == ()
        for u, lv in zip(curve.parameters, curve.log_lambda_values):
            assert lv == pytest.approx(float(ref(u)), abs=1e-10)


def test_antidiag_curve_matches_its_closed_form(antidiag_model):
    curve = lambda_curve(antidiag_model, np.linspace(-3.0, 3.0, 25))
    for u, lv in zip(curve.parameters, curve.log_lambda_values):
        assert lv == pytest.approx(float(reference.antidiag_log_lambda(u)), abs=1e-10)
    assert curve.kinks == ()


def test_breakdown_curve_has_exactly_one_certified_kink(breakdown_model):
    curve = lambda_curve(breakdown_model, np.linspace(-2.0, 2.0, 81))
    for u, lam in zip(curve.parameters, curve.lambda_values):
        assert lam == pytest.approx(float(reference.breakdown_lambda(u)), abs=1e-10)
    assert len(curve.kinks) == 1
    kink = curve.kinks[0]
    # The crossing of cosh(u) and 3/4 e^u, with each block's own slopes.
    assert kink.u == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-12)
    sl, sr = reference.BREAKDOWN_LAMBDA_SLOPES
    assert kink.lambda_slope_left == pytest.approx(sl, abs=1e-9)
    assert kink.lambda_slope_right == pytest.approx(sr, abs=1e-9)
    gl, gr = reference.BREAKDOWN_LOG_SLOPES
    assert kink.log_slope_left == pytest.approx(gl, abs=1e-9)
    assert kink.log_slope_right == pytest.approx(gr, abs=1e-9)
    assert kink.slope_jump == kink.lambda_slope_right - kink.lambda_slope_left


def test_kink_finder_agrees_with_the_curve(breakdown_model, std_model):
    grid = np.linspace(-4, 4, 41)
    kinks = lambda_curve(breakdown_model, grid).kinks
    assert len(kinks) == 1
    assert kinks[0].u == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-4)
    assert lambda_curve(std_model, grid).kinks == ()


def _count_calls(monkeypatch, name, *modules):
    """Route ``name`` in each module through one shared call counter."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def radius_calls(monkeypatch):
    """Count the radius-only solves made through the asymptotics module."""
    import oqwalk.asymptotics as asymptotics

    return _count_calls(monkeypatch, "spectral_radius", asymptotics)


_FULL_ALGEBRA_MODELS = {
    "std": lambda: builtin("std_example"),
    "periodic": lambda: builtin("periodic_example"),
    "antidiag": lambda: builtin("antidiag_example"),
    "isometry_n3": lambda: random_isometry_model(3, n=3),
    "isometry_n4": lambda: random_isometry_model(4, n=4),
}


@pytest.mark.parametrize("name", sorted(_FULL_ALGEBRA_MODELS))
def test_full_algebra_curves_skip_kink_refinement(name, radius_calls):
    # One radius per grid point and no bisection; the Perron roots of the
    # refining oracle agree to rounding (the periodic maps' max modulus and
    # root's real part differ in the last bits).
    model = _FULL_ALGEBRA_MODELS[name]()
    ts = np.linspace(-4.0, 4.0, 41)
    curve = lambda_curve(model, ts)
    assert len(radius_calls) == len(ts)
    assert curve.kinks == ()
    refined = reference.refine_every_triple_curve(model, ts)
    assert refined.kinks == ()
    np.testing.assert_allclose(curve.log_lambda_values, refined.log_lambda_values,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(curve.lambda_values, refined.lambda_values,
                               rtol=1e-15, atol=0)


def test_reducible_curves_keep_kink_refinement(breakdown_model, radius_calls):
    curve = lambda_curve(breakdown_model, np.linspace(-4.0, 4.0, 41))
    # Two block radii per grid point, two per bisection step at the one
    # crossing, and five for its slopes: 169; refining every triple took 1721.
    assert 0 < len(radius_calls) <= 200
    assert len(curve.kinks) == 1
    assert curve.kinks[0].u == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-4)


def test_reducible_rate_function_refines_only_block_crossings(breakdown_model,
                                                              radius_calls):
    # The curve, then the kink or block Newton steps at the three interior
    # velocities and the closed form at the two edges; refining every triple
    # took 1843.
    rate_function(breakdown_model, np.linspace(-1.0, 1.0, 5))
    assert len(radius_calls) <= 350


def _is_reducible(model):
    return algebra_closure(model.operators).dimension != model.internal_dim ** 2


_REDUCIBLE_MODELS = {
    "breakdown": lambda: builtin("breakdown_example"),
    "three_level_two_block": three_level_two_block_model,
    "equal_modulus_diagonal": equal_modulus_diagonal_model,
    "mirrored_breakdown": mirrored_breakdown_model,
    "block_sum_n8": lambda: block_sum_model(random_isometry_model(3, n=4),
                                            random_isometry_model(4, n=4)),
}
_REDUCIBLE_MODELS.update({f"upper_triangular_{seed}": functools.partial(
    upper_triangular_model, seed) for seed in range(30)})

_ORACLE_GRIDS = (np.linspace(-4.0, 4.0, 41), np.linspace(-4.0, 4.0, 11),
                 np.linspace(-4.0, 4.0, 5), np.linspace(-3.0, 7.0, 23))


def _assert_block_values(model, curve, oracle):
    """Each value is the largest block radius, bit for bit, and within 1e-11
    relative of the oracle's whole-map value; the ties are the oracle's.

    The whole map's ``eig`` is the less accurate of the two on the std
    block's near-defective cluster: at u = 7 on the three-level sum it is
    1.5e-12 off the closed form (see the next test), the block value 1e-14.
    """
    blocks = [b for b, _ in _irreducible_blocks(model)]
    logs = []
    for t in curve.parameters:
        shift = _shifted_map(model, np.array([t]))[0]
        radius = max(spectral_radius(_shifted_map(b, np.array([t]))[1]) for b in blocks)
        logs.append(shift + float(np.log(radius)))
    assert curve.log_lambda_values.tobytes() == np.array(logs).tobytes()
    assert curve.lambda_values.tobytes() == np.array([np.exp(v) for v in logs]).tobytes()
    np.testing.assert_allclose(curve.lambda_values, oracle.lambda_values, rtol=1e-11, atol=0)
    assert curve.degenerate_parameters == oracle.degenerate_parameters


def _assert_confirmed_by_secants(model, kink):
    """Whole-map secants at offsets 1e-4 and 2e-4 show the same kink."""
    f = reference.whole_map_lambda(model, np.eye(model.lattice_dim)[0])
    u0, h = kink.u, reference.KINK_SLOPE_OFFSET
    left = (f(u0 - h) - f(u0 - 2 * h)) / h
    right = (f(u0 + 2 * h) - f(u0 + h)) / h
    assert right - left > reference.KINK_JUMP * max(1.0, abs(left), abs(right))
    assert kink.log_slope_left == pytest.approx(left / f(u0), abs=1e-3)
    assert kink.log_slope_right == pytest.approx(right / f(u0), abs=1e-3)


@pytest.mark.parametrize("name", sorted(_REDUCIBLE_MODELS))
def test_block_screen_keeps_every_kink_of_refining_every_triple(name):
    model = _REDUCIBLE_MODELS[name]()
    assert _is_reducible(model)
    width = reference.KINK_BRACKET_WIDTH
    for grid in _ORACLE_GRIDS:
        curve = lambda_curve(model, grid)
        oracle = reference.refine_every_triple_curve(model, grid)
        _assert_block_values(model, curve, oracle)
        found = [k.u for k in curve.kinks]
        for kink in oracle.kinks:
            assert any(abs(u - kink.u) <= width for u in found)
        for kink in curve.kinks:
            if not any(abs(kink.u - o.u) <= width for o in oracle.kinks):
                _assert_confirmed_by_secants(model, kink)


def test_three_level_curve_is_the_larger_closed_form():
    # lambda_u = max(0.3 e^u + 0.7 e^-u, the std block's cube-root form).
    grid = _ORACLE_GRIDS[3]
    curve = lambda_curve(three_level_two_block_model(), grid)
    want = np.maximum(0.3 * np.exp(grid) + 0.7 * np.exp(-grid), reference.std_lambda(grid))
    np.testing.assert_allclose(curve.lambda_values, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["breakdown", "three_level_two_block",
                                  "upper_triangular_0"])
def test_uncertified_blocks_raise(name, monkeypatch, capsys):
    import oqwalk.structure as structure
    from oqwalk.cli import main

    monkeypatch.setattr(structure, "_search_common_invariant_subspace",
                        lambda basis_mats, n: None)
    model = _REDUCIBLE_MODELS[name]()
    with pytest.raises(SpectralIndeterminateError, match="composition series"):
        _irreducible_blocks(model)
    with pytest.raises(SpectralIndeterminateError, match="composition series"):
        lambda_curve(model, _ORACLE_GRIDS[0])
    if name == "breakdown":
        assert main(["asymptotics", "--builtin", "breakdown_example"]) == 4
        assert "composition series" in capsys.readouterr().err


def test_tied_blocks_report_no_kink():
    # The two 1 x 1 blocks have equal radii at every tilt, so which one is
    # on top is rounding: their crossings have no slope jump.
    model = equal_modulus_diagonal_model()
    for grid in _ORACLE_GRIDS:
        assert lambda_curve(model, grid).kinks == ()


@pytest.mark.parametrize("grid", [np.linspace(-3.0, 3.0, 4),
                                  np.linspace(3.0, -3.0, 4)])
def test_three_tops_in_one_cell_report_both_crossings(grid):
    # On [-1, 1] the mirrored block is on top at -1 and the corner at 1;
    # their own crossing at 0 lies under the ray block's cosh u, so the cell
    # holds two kinks, one where each of them meets cosh u.
    curve = lambda_curve(mirrored_breakdown_model(), grid)
    kinks = curve.kinks if grid[0] < grid[-1] else curve.kinks[::-1]  # grid order
    u0 = reference.BREAKDOWN_KINK_U
    sl, sr = reference.BREAKDOWN_LAMBDA_SLOPES
    gl, gr = reference.BREAKDOWN_LOG_SLOPES
    want = [(-u0, -sr, -sl, -gr, -gl), (u0, sl, sr, gl, gr)]
    assert len(kinks) == 2
    for kink, (u, lam_l, lam_r, log_l, log_r) in zip(kinks, want):
        assert kink.u == pytest.approx(u, abs=1e-12)
        assert kink.lambda_slope_left == pytest.approx(lam_l, abs=1e-9)
        assert kink.lambda_slope_right == pytest.approx(lam_r, abs=1e-9)
        assert kink.log_slope_left == pytest.approx(log_l, abs=1e-9)
        assert kink.log_slope_right == pytest.approx(log_r, abs=1e-9)


def _overflowing_crossing_model():
    """Block radii eps e^{2u} + (1 - eps) e^{-u} and cosh u, eps = e^-720:
    they cross at u = ln(1 / (2 eps)) = 720 - ln 2, where lambda_u overflows."""
    eps = np.exp(-720.0)
    ops = np.zeros((3, 2, 2), dtype=complex)
    ops[0, 0, 0], ops[2, 0, 0] = np.sqrt(eps), np.sqrt(1 - eps)
    ops[1, 1, 1] = ops[2, 1, 1] = np.sqrt(0.5)
    return KrausModel(1, 2, ((2,), (1,), (-1,)), ops)


def test_a_kink_past_the_largest_double_keeps_its_log_slopes():
    # The jump is read from the finite log slopes, 1 on the left and 2 on
    # the right.
    model = _overflowing_crossing_model()
    blocks, ts = _irreducible_blocks(model), np.array([700.0, 740.0])
    (kink,) = _block_crossings(blocks, ts, np.ones(1), [_top_block(blocks, ts[:1])[0],
                                                        _top_block(blocks, ts[1:])[0]])
    assert kink.u == pytest.approx(720.0 - np.log(2.0), rel=1e-13)
    assert kink.log_slope_left == pytest.approx(1.0, abs=1e-5)
    assert kink.log_slope_right == pytest.approx(2.0, abs=1e-5)
    assert kink.lambda_slope_left == kink.lambda_slope_right == np.inf
    assert kink.slope_jump == np.inf


def test_a_curve_past_the_largest_double_warns_nothing():
    # The left Perron solve comes back NaN at these tilts; the residual gate
    # refuses it without a numpy warning (every point is still degenerate).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = lambda_curve(_overflowing_crossing_model(), np.linspace(700.0, 740.0, 3))
    assert [k.u for k in curve.kinks] == [pytest.approx(720.0 - np.log(2.0), rel=1e-12)]


def test_wide_grid_reports_only_the_real_block_crossing():
    # The std block's near-defective cluster at large tilt used to pass for
    # kinks at 8.4998, 8.9995, 9.4993 and 9.7495, where the two block curves
    # stay about 10 % apart.
    model = three_level_two_block_model()
    curve = lambda_curve(model, np.linspace(-10.0, 10.0, 81))
    assert [k.u for k in curve.kinks] == [pytest.approx(0.0, abs=1e-7)]


def test_breakdown_blocks_are_the_ray_and_the_corner(breakdown_model):
    blocks = [b for b, _ in _irreducible_blocks(breakdown_model)]
    assert sorted(b.internal_dim for b in blocks) == [1, 1]
    for u in (-3.0, -0.5, 0.0, reference.BREAKDOWN_KINK_U, 2.0):
        got = sorted(log_lambda(b, u) for b in blocks)
        want = sorted([np.log(np.cosh(u)), np.log(0.75) + u])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_two_block_model_splits_into_its_summands():
    blocks = _irreducible_blocks(three_level_two_block_model())
    assert sorted(b.internal_dim for b, _ in blocks) == [1, 2]


def test_the_block_split_reads_the_kept_closure_of_the_whole_walk(computes):
    # One closure per piece of the split, none again for the whole space.
    import oqwalk.structure as structure

    model = three_level_two_block_model()
    closures = computes(_irreducible_blocks, structure, "algebra_closure")
    _operator_closure(model)
    blocks = _irreducible_blocks(model)
    assert len(closures) == len(blocks) == 2


def test_rate_function_computes_the_operator_closure_once(monkeypatch):
    import oqwalk.structure as structure

    model = builtin("std_example")
    calls = _count_calls(monkeypatch, "algebra_closure", structure)
    rate_function(model, [0.0])
    assert len(calls) == 1
    rate_function(model, [0.0])  # the closure is kept on the model
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["std_example", "breakdown_example"])
def test_one_model_computes_each_kept_fact_once(name, computes):
    import oqwalk.structure as structure
    import oqwalk.superop as superop

    model = builtin(name)
    builds = computes(build_superop, superop, "weighted_superop")
    eigensolves = computes(_fixed_point_data, structure, "eigendecompose")
    closures = computes(_operator_closure, structure, "algebra_closure")
    searches = computes(_irreducible_blocks, structure, "_search_common_invariant_subspace")
    if is_irreducible_L(model).irreducible:
        period(model)
    else:
        with pytest.raises(AssumptionError):
            period(model)
    is_regular(model)
    bn_decomposition(model)
    invariant_state(model)
    asymptotic_stats(model)
    lambda_curve(model, np.linspace(-2.0, 2.0, 9))
    rate_function(model, np.linspace(-0.5, 0.5, 3), points=9)
    lambda_curve(model, np.linspace(-1.0, 1.0, 5))
    assert (len(builds), len(eigensolves), len(closures)) == (1, 1, 1)
    # One composition series for a reducible family, none for a full algebra.
    assert len(searches) == (0 if is_irreducible_L(model).irreducible else 1)


def test_kept_untilted_map_is_read_only():
    model = builtin("std_example")
    superop = build_superop(model)
    assert build_superop(model) is superop
    with pytest.raises(ValueError):
        superop.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        _fixed_point_data(model).state[0, 0] = 0.0


_CROSSING_U = float(np.log(2.0) / 2)  # where cosh u = 3/4 e^u on breakdown_example


_CROSSING_GRIDS = {
    "first": np.linspace(_CROSSING_U, 2.0, 5),
    "last": np.linspace(-_CROSSING_U, _CROSSING_U, 41),
    "interior": _CROSSING_U + np.linspace(-1.0, 1.0, 5),
}


@pytest.mark.parametrize("grid", list(_CROSSING_GRIDS.values()), ids=list(_CROSSING_GRIDS))
def test_curve_answers_a_grid_point_on_the_block_crossing(breakdown_model, grid):
    # The two block radii tie there (the whole map's roots meet in a Jordan
    # block, with no Perron pair); the point is listed as degenerate.
    assert _CROSSING_U in grid
    curve = lambda_curve(breakdown_model, grid)
    assert curve.degenerate_parameters == (_CROSSING_U,)
    want = np.maximum(np.cosh(grid), 0.75 * np.exp(grid))
    np.testing.assert_allclose(curve.lambda_values, want, rtol=1e-7)


def test_interior_crossing_point_reports_the_kink(breakdown_model):
    curve = lambda_curve(breakdown_model, _CROSSING_U + np.linspace(-1.0, 1.0, 5))
    assert [k.u for k in curve.kinks] == [pytest.approx(_CROSSING_U, abs=1e-7)]


def test_irreducible_curves_answer_where_perron_fails(std_model):
    # From u = 16 on the std map's nearly defective cluster defeats the
    # Perron extraction, but a curve reads radii only; a rate table on that
    # window declines the Newton rows there and keeps the default window's rates.
    ts = np.array([16.0, 17.0, 18.0])
    with pytest.raises(SpectralIndeterminateError):
        perron(_shifted_map(std_model, ts[:1])[1])
    curve = lambda_curve(std_model, ts)
    assert curve.log_lambda_values.tobytes() == np.array(
        [log_lambda(std_model, t) for t in ts]).tobytes()
    xs = np.linspace(-0.9, 0.9, 19)
    window = rate_function(std_model, xs, u_min=16.0, u_max=18.0, points=3)
    np.testing.assert_allclose(window.rate, rate_function(std_model, xs).rate,
                               rtol=0, atol=1e-13)


_CLOSED_FORM_CURVES = {
    "std_example": lambda u: np.log(reference.std_lambda(u)),
    "periodic_example": reference.periodic_log_lambda,
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_CURVES))
def test_an_irreducible_curve_is_as_accurate_as_its_perron_root(name):
    # The radius matches the closed form as well as the Perron root does, to
    # 1e-15 (periodic's root's real part and its modulus differ in the last
    # bits).  periodic stays within 1e-14 on |u| <= 12.  std stays within
    # 1e-12 on |u| <= 6; beyond, its nearly defective cluster (three roots
    # whose gaps close as |u| grows) costs both routes up to 2e-9 by |u| = 12.
    us = np.linspace(-12.0, 12.0, 97)
    model = builtin(name)
    exact = _CLOSED_FORM_CURVES[name](us)
    error = np.abs(lambda_curve(model, us).log_lambda_values - exact)
    roots = []
    for u in us:
        shift, shifted = _shifted_map(model, np.array([u]))
        roots.append(shift + np.log(perron(shifted).lambda_u))
    assert (error <= np.abs(np.array(roots) - exact) + 1e-15).all()
    envelope = (np.where(np.abs(us) <= 6.0, 1e-12, 2e-9) if name == "std_example"
                else 1e-14)
    assert (error <= envelope).all()


# -- the curve reads radii; Newton reads stacked Perron rows -------------------

def _bench_model(seed, stem):
    return model_from_dict(json.loads(bench_document(seed, f"{stem}.json")))


_WIDE = np.linspace(-4.0, 4.0, 41)
_STACKED_CURVES = {
    **{name: (functools.partial(builtin, name), _WIDE, None) for name in BUILTIN_NAMES},
    "n4_31": (functools.partial(_bench_model, 31, "n4"), _WIDE, None),
    "n8_31": (functools.partial(_bench_model, 31, "n8"), np.linspace(-4.0, 4.0, 9), None),
    "2-D axis 0": (lambda: ISOMETRY_2D_3D["2-D"], _WIDE, np.array([1.0, 0.0])),
    "2-D axis 1": (lambda: ISOMETRY_2D_3D["2-D"], _WIDE, np.array([0.0, 1.0])),
    **{f"crossing {key}": (functools.partial(builtin, "breakdown_example"), grid, None)
       for key, grid in _CROSSING_GRIDS.items()},
}

# Complex entries per stacked chunk: the default, and chunks of 3 and of 1
# maps at n = 2 (3 maps at n = 1).
_CHUNK_ENTRIES = [None, 48, 3]


@pytest.mark.parametrize("entries", _CHUNK_ENTRIES)
@pytest.mark.parametrize("name", list(_STACKED_CURVES))
def test_a_curve_is_log_lambda_bit_for_bit_at_every_point(name, entries, monkeypatch):
    # The curve stacks no Perron extraction, so no chunk size moves a bit;
    # one Perron root per point (the oracle) agrees to rounding and ties alike.
    import oqwalk.superop as superop

    make, grid, direction = _STACKED_CURVES[name]
    if entries is not None:
        monkeypatch.setattr(superop, "_STACK_ENTRIES", entries)
    model = make()
    curve = lambda_curve(model, grid, direction)
    axis = np.eye(model.lattice_dim)[0] if direction is None else direction
    logs = np.array([log_lambda(model, t * axis) for t in grid])
    with np.errstate(over="ignore"):
        lams = np.array([np.exp(v) for v in logs])
    assert curve.log_lambda_values.tobytes() == logs.tobytes()
    assert curve.lambda_values.tobytes() == lams.tobytes()
    _, oracle_logs, degenerate = reference.per_point_curve(model, grid, direction)
    np.testing.assert_allclose(logs, oracle_logs, rtol=0, atol=1e-15)
    assert curve.degenerate_parameters == degenerate


# Grids where the Perron extraction of a valid model fails.
_RAISING_CURVES = {
    "std 16-18": (functools.partial(builtin, "std_example"), np.array([16.0, 17.0, 18.0])),
    "std +-15": (functools.partial(builtin, "std_example"), np.linspace(-15.0, 15.0, 41)),
    "std +-17": (functools.partial(builtin, "std_example"), np.linspace(-17.0, 17.0, 41)),
    "periodic +-40": (functools.partial(builtin, "periodic_example"),
                      np.linspace(-40.0, 40.0, 41)),
}
_ROW_CASES = {**_STACKED_CURVES,
              **{key: (make, grid, None) for key, (make, grid) in _RAISING_CURVES.items()}}


@pytest.mark.parametrize("entries", _CHUNK_ENTRIES)
@pytest.mark.parametrize("name", list(_ROW_CASES))
def test_each_stacked_row_is_the_triple_of_its_matrix_alone(name, entries, monkeypatch):
    import oqwalk.superop as superop

    make, grid, direction = _ROW_CASES[name]
    if entries is not None:
        monkeypatch.setattr(superop, "_STACK_ENTRIES", entries)
    model = make()
    if direction is None:
        direction = np.eye(model.lattice_dim)[0]
    _, stack = superop._shifted_maps(model, grid[:, None] * direction)
    n = model.internal_dim
    for matrix, row in zip(stack, superop._perron_rows(stack, n)):
        try:
            want = reference.perron_per_matrix(matrix, n)
        except Exception as exc:
            assert (type(row), str(row)) == (type(exc), str(exc))
            continue
        got = (row.lambda_u, row.rho_u, row.m_u, row.degenerate, row.gap, row.residual,
               row.separation)
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]


@pytest.mark.parametrize("entries", _CHUNK_ENTRIES)
@pytest.mark.parametrize("name", list(_RAISING_CURVES))
def test_a_window_where_perron_fails_answers(name, entries, monkeypatch):
    # The curve reads radii only; the rate table's Newton rows, stacked in
    # chunks of ``entries``, decline where the extraction fails, and the
    # window's rates are the default window's.
    import oqwalk.superop as superop

    if entries is not None:
        monkeypatch.setattr(superop, "_STACK_ENTRIES", entries)
    make, grid = _RAISING_CURVES[name]
    model = make()
    _, stack = superop._shifted_maps(model, grid[:, None])
    assert any(isinstance(row, Exception)
               for row in superop._perron_rows(stack, model.internal_dim))
    curve = lambda_curve(model, grid)
    assert np.isfinite(curve.log_lambda_values).all()
    xs = np.linspace(-0.9, 0.9, 19)
    window = rate_function(model, xs, u_min=grid[0], u_max=grid[-1], points=len(grid))
    np.testing.assert_allclose(window.rate, rate_function(model, xs).rate,
                               rtol=0, atol=1e-13)


# -- rate function -------------------------------------------------------------

def legendre_by_hand(c, x, lo=-25.0, hi=25.0):
    res = minimize_scalar(lambda u: -(u * x - c(u)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    return -(res.fun)


def test_standard_rate_function_matches_an_independent_legendre_transform(std_model):
    xs = [-0.5, -0.3, 0.0, 0.3, 0.5]
    table = rate_function(std_model, xs)
    assert not table.upper_bound_only
    assert table.finite.all()
    assert table.rate[2] <= 1e-9  # zero at the drift
    c = lambda u: float(np.log(reference.std_lambda(u)))
    for x, val in zip(xs, table.rate):
        assert val == pytest.approx(max(legendre_by_hand(c, x), 0.0), abs=1e-7)
    assert table.kinks == ()


def test_periodic_rate_function_matches_the_closed_form(periodic_model):
    xs = [0.0, 0.25, 0.5, 1.0, -1.0]
    table = rate_function(periodic_model, xs)
    assert table.finite.all()
    for x, val in zip(xs[:3], table.rate[:3]):
        assert val == pytest.approx(float(reference.periodic_rate(x)), abs=1e-6)
    assert table.rate[1] <= 1e-10  # the drift costs nothing
    # speed-one edges: finite limits reached as the tilt runs away
    assert table.rate[3] == pytest.approx(1.5 * np.log(2) - 0.5 * np.log(3), abs=1e-6)
    assert table.rate[4] == pytest.approx(1.5 * np.log(2), abs=1e-6)


def test_rate_is_infinite_strictly_outside_the_reachable_cone(periodic_model,
                                                              std_model):
    for model in (periodic_model, std_model):
        table = rate_function(model, [-1.5, 1.5])
        assert not table.finite.any()
        assert np.isinf(table.rate).all()


def test_reducible_models_only_get_an_upper_bound(breakdown_model):
    table = rate_function(breakdown_model, [0.0, 0.5])
    assert table.upper_bound_only
    assert table.rate[0] <= 1e-9
    assert len(table.kinks) == 1
    assert table.kinks[0] == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-4)


def test_rate_vanishes_at_the_drift_for_every_builtin(all_builtins):
    for name, model in all_builtins.items():
        table = rate_function(model, [float(drift(model)[0])])
        assert table.rate[0] <= 1e-6, name


def test_rate_maximizers_match_closed_forms(periodic_model):
    xs = np.linspace(-0.9, 0.9, 19)
    table = rate_function(periodic_model, xs)
    np.testing.assert_allclose(table.maximizers, reference.periodic_maximizer(xs),
                               rtol=0, atol=1e-10)
    for p in (0.3, 0.5, 0.8):
        table = rate_function(builtin("classical_dilation", p=p), xs)
        np.testing.assert_allclose(table.maximizers, reference.classical_maximizer(xs, p),
                                   rtol=0, atol=1e-10)


def _block(build, k):
    return lambda: _irreducible_blocks(build())[k][0]


_CLT_MODELS = {
    "std": lambda: builtin("std_example"),
    "periodic": lambda: builtin("periodic_example"),
    "isometry_n4": lambda: random_isometry_model(4, n=4),
    # Each irreducible block of the two direct sums whose blocks' drifts differ.
    **{f"{name}-{k}": _block(_REDUCIBLE_MODELS[name], k)
       for name in ("block_sum_n8", "three_level_two_block") for k in range(2)},
}


@pytest.mark.parametrize("name", sorted(_CLT_MODELS))
def test_newton_derivatives_at_zero_are_the_clt_constants(name):
    # A third route to drift and variance: c'(0) and c''(0) of c = log lambda,
    # from the rate table's Newton route (a stack of one at u = 0).
    model = _CLT_MODELS[name]()
    stats = asymptotic_stats(model)
    shifts, stack = _shifted_maps(model, np.array([[0.0]]))
    (row,) = _perron_rows(stack, model.internal_dim)
    value, slope, curvature = _triple_derivatives(model, 0.0, float(shifts[0]), stack[0], row)
    assert abs(value) < 1e-12
    assert slope == pytest.approx(stats.mean[0], abs=1e-12)
    assert curvature == pytest.approx(stats.covariance[0, 0], abs=1e-9)


def test_rate_function_takes_at_most_six_perron_solves_per_velocity(monkeypatch,
                                                                    std_model):
    # The grid takes one radius per point and no eigenvectors.  Each round
    # of the table's Newton runs, the first one included, is one stacked
    # extraction (one eig) of at most one row per velocity; a lone perron
    # call is a round's stack of one.
    import oqwalk.asymptotics as asymptotics
    import oqwalk.superop as superop

    perrons = _count_calls(monkeypatch, "perron", superop)
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    eigs = _count_calls(monkeypatch, "eig", np.linalg)
    triples = _count_calls(monkeypatch, "_triple_derivatives", asymptotics)
    stacked = []
    real_rows = asymptotics._perron_rows

    def rows(stack, n):
        stacked.append(len(stack))
        return real_rows(stack, n)

    monkeypatch.setattr(asymptotics, "_perron_rows", rows)
    xs = np.linspace(-0.9, 0.9, 19)
    for velocities in [[x] for x in xs] + [xs]:
        for calls in (perrons, radii, eigs, triples, stacked):
            calls.clear()
        rate_function(std_model, velocities)
        assert len(radii) == 41, velocities  # the grid's, and no bisection fallback
        assert 1 <= len(stacked) <= 6, velocities  # the Newton rounds
        assert len(eigs) == len(stacked), velocities  # no eig outside them
        assert max(stacked) <= len(velocities), velocities
        assert len(triples) >= len(velocities), velocities
        assert len(perrons) == stacked.count(1), velocities  # stacks of one only


@pytest.mark.parametrize("name", ["std_example", "breakdown_example"])
def test_a_curve_takes_no_eig_and_no_eigvals_outside_the_radius(name, monkeypatch):
    import oqwalk.asymptotics as asymptotics

    model = builtin(name)
    lambda_curve(model, [0.0, 1.0])  # the model's kept structure facts
    calls = {key: _count_calls(monkeypatch, key, np.linalg) for key in ("eig", "eigvals")}
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    lambda_curve(model, np.linspace(-4.0, 4.0, 41))
    # A curve takes only radii, its blocks' on a reducible map, and solves
    # no eigenvector; an irreducible one takes one radius per grid point.
    assert calls["eig"] == []
    assert len(calls["eigvals"]) == len(radii)
    if is_irreducible_L(model).irreducible:
        assert len(radii) == 41


def test_reducible_rate_runs_block_newton_steps_and_no_radius_search(monkeypatch):
    import oqwalk.asymptotics as asymptotics
    import oqwalk.superop as superop

    model = builtin("breakdown_example")
    curve = lambda_curve(model, np.linspace(-4.0, 4.0, 41))
    searched, stacked = [], []
    real_log_lambda = asymptotics.log_lambda
    real_rows = asymptotics._perron_rows
    perrons = _count_calls(monkeypatch, "perron", superop)

    def whole_curve(m, u):
        if m is model:
            searched.append(u)
        return real_log_lambda(m, u)

    def rows(stack, n):
        stacked.append((len(stack), n))
        return real_rows(stack, n)

    monkeypatch.setattr(asymptotics, "log_lambda", whole_curve)
    monkeypatch.setattr(asymptotics, "_perron_rows", rows)
    table = rate_function(model, [-0.5, 0.0, 0.5])
    # Newton on the cosh u block for x = -0.5 and 0, each tilt a stack of
    # one on that 1-dimensional block, extracted by one perron call; the
    # grid takes the block radii, so no whole-map stack is built.
    # x = 0.5 lies between the kink's slopes 1/3 and 1, so the kink is the
    # maximizer, and the model's log_lambda is read only there, for the value.
    assert stacked and set(stacked) == {(1, 1)}
    assert len(perrons) == len(stacked)
    assert searched == [curve.kinks[0].u]
    assert table.maximizers[2] == curve.kinks[0].u
    np.testing.assert_allclose(table.maximizers[:2], [np.arctanh(-0.5), 0.0],
                               rtol=0, atol=1e-12)


def test_breakdown_rate_matches_its_closed_form(breakdown_model):
    # lambda_u = max(cosh u, 3/4 e^u): the maximizer is atanh(x) below the
    # kink's left slope 1/3, and the kink itself from there up to 1.
    xs = np.linspace(-0.9, 0.9, 19)
    table = rate_function(breakdown_model, xs)
    kink = table.kinks[0]
    assert kink == pytest.approx(np.log(2.0) / 2, abs=1e-12)
    below = np.abs(xs) < 1 / 3
    above = xs >= 1 / 3
    np.testing.assert_allclose(table.maximizers[below], np.arctanh(xs[below]),
                               rtol=0, atol=1e-12)
    assert (table.maximizers[above] == kink).all()
    want = np.where(xs < 1 / 3, xs * np.arctanh(xs) - np.log(np.cosh(np.arctanh(xs))),
                    kink * xs - np.log(np.cosh(kink)))
    np.testing.assert_allclose(table.rate, want, rtol=0, atol=1e-12)


_DIRECT_SUMS = {
    "three_level_two_block": (three_level_two_block_model, np.linspace(-1.0, 1.0, 21)),
    "block_sum_n8": (lambda: block_sum_model(random_isometry_model(3, n=4),
                                             random_isometry_model(4, n=4)),
                     np.linspace(-0.5, 0.5, 11)),
}


@pytest.mark.parametrize("name", sorted(_DIRECT_SUMS))
def test_direct_sums_with_different_block_drifts_answer(name):
    # Every block radius is 1 at u = 0, so lambda_u has a kink there whose
    # one-sided slopes are the block drifts: the rate vanishes between them.
    build, xs = _DIRECT_SUMS[name]
    model = build()
    table = rate_function(model, xs)
    drifts = sorted(float(drift(block)[0]) for block, _ in _irreducible_blocks(model))
    assert drifts[0] < drifts[-1]
    assert (table.rate >= 0).all()
    between = (xs >= drifts[0]) & (xs <= drifts[-1])
    assert between.any()
    assert (table.rate[between] <= 1e-12).all()


def test_bisection_fallback_matches_the_newton_rates(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics

    xs = np.linspace(-0.9, 0.9, 19)
    newton = rate_function(std_model, xs)
    monkeypatch.setattr(asymptotics, "_triple_derivatives", lambda *args: None)
    searched = _count_calls(monkeypatch, "log_lambda", asymptotics)
    bisected = rate_function(std_model, xs)
    assert searched  # the fallback compared the objective off the grid
    np.testing.assert_allclose(bisected.rate, newton.rate, rtol=0, atol=1e-12)


_ROW_MODELS = {
    **{name: functools.partial(builtin, name) for name in BUILTIN_NAMES},
    "isometry_n3": lambda: random_isometry_model(5, n=3),
    "isometry_n4": lambda: random_isometry_model(6, n=4),
    "three_level_two_block": three_level_two_block_model,
}


@pytest.mark.parametrize("name", sorted(_ROW_MODELS))
def test_each_velocity_of_a_table_has_the_bytes_it_gets_alone(name):
    # The velocities' Newton runs share stacked extractions; none moves a bit
    # of another's row.
    model = _ROW_MODELS[name]()
    xs = np.append(np.linspace(-1.0, 1.0, 11), [0.33, 1.5])
    table = rate_function(model, xs)
    for j, x in enumerate(xs):
        alone = rate_function(model, [x])
        assert table.rate[j].tobytes() == alone.rate[0].tobytes(), x
        assert table.maximizers[j].tobytes() == alone.maximizers[0].tobytes(), x


def _newton_failing_after(real, steps):
    """``_newton_max`` whose run for each velocity in ``steps`` raises after
    that many Newton steps."""
    def newton(c, x, a, u, b):
        run = real(c, x, a, u, b)
        if x not in steps:
            return (yield from run)
        point = None
        for _ in range(steps[x]):
            point = yield run.send(point)
        raise ConvergenceError(f"velocity {x} failed")
    return newton


def test_a_table_raises_the_error_of_its_first_failing_velocity(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics

    monkeypatch.setattr(asymptotics, "_newton_max",
                        _newton_failing_after(asymptotics._newton_max, {0.2: 3, 0.5: 1}))
    # 0.5 fails two rounds before 0.2 does; the lower index raises either way.
    with pytest.raises(ConvergenceError, match=r"^velocity 0\.2 failed$"):
        rate_function(std_model, [-0.3, 0.2, 0.5])
    with pytest.raises(ConvergenceError, match=r"^velocity 0\.5 failed$"):
        rate_function(std_model, [0.5, -0.3, 0.2])

    # A velocity whose bracketing fails waits for the Newton runs before it.
    real_point = asymptotics._legendre_point

    def bracketing(c, x, *args):
        if x == -0.3:
            raise ConvergenceError("velocity -0.3 did not localize")
        return real_point(c, x, *args)

    monkeypatch.setattr(asymptotics, "_legendre_point", bracketing)
    with pytest.raises(ConvergenceError, match=r"^velocity 0\.2 failed$"):
        rate_function(std_model, [0.2, -0.3, 0.5])
    with pytest.raises(ConvergenceError, match=r"^velocity -0\.3 did not localize$"):
        rate_function(std_model, [-0.3, 0.2, 0.5])


def test_boundary_velocities_take_the_closed_form(monkeypatch, periodic_model):
    import oqwalk.asymptotics as asymptotics

    newton = _count_calls(monkeypatch, "_newton_max", asymptotics)
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    table = rate_function(periodic_model, [-1.0, 1.0])
    assert newton == []
    # One per grid point, then one per edge: rho of the edge step's Kraus terms.
    assert len(radii) == 41 + 2
    # Speed-one limits of the closed form.
    np.testing.assert_allclose(
        table.rate, [1.5 * np.log(2), 1.5 * np.log(2) - 0.5 * np.log(3)],
        rtol=0, atol=1e-12)
    assert list(table.maximizers) == [-np.inf, np.inf]


def test_velocities_beyond_the_steps_are_infinite_at_once(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics

    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    table = rate_function(std_model, [-1.5, 1.5])
    assert len(radii) == 41  # the grid's only
    assert list(table.rate) == [np.inf, np.inf]
    assert list(table.maximizers) == [-np.inf, np.inf]
    assert list(table.finite) == [False, False]


def test_rate_command_keeps_its_values_at_the_cone_edges():
    import json

    from test_cli_golden import GOLDEN, run

    result = run("rate", "std_example")
    assert result["exit_code"] == 0
    golden = json.loads((GOLDEN / "rate.json").read_text())
    np.testing.assert_allclose(result["stdout"]["rate"],
                               golden["std_example"]["stdout"]["rate"], rtol=0, atol=1e-12)


def test_rate_function_is_one_dimensional_only():
    with pytest.raises(AssumptionError):
        rate_function(random_isometry_model(0, steps=STEPS_2D), [0.0])


def test_rate_function_refuses_a_map_that_is_not_trace_preserving():
    # std_example with L_+ scaled by 1.001: log lambda_0 = log rho(Phi) > 0.
    with pytest.raises(ConvergenceError, match=r"^log lambda at u = 0 is "):
        rate_function(broken_scaled_model(), [0.0])


def test_a_newton_run_that_crawls_raises_after_100_steps():
    # Each triple says c' - x = -1 with curvature 1e6: a step of 1e-6 that
    # stays in the bracket [-1, 1] and moves its lower end by as much.
    run = _newton_max(lambda u: 0.0, 0.0, -1.0, 0.0, 1.0)
    u = next(run)
    with pytest.raises(ConvergenceError, match="did not converge in 100 steps"):
        for _ in range(100):
            u = run.send((0.0, -1.0, 1e6))
    assert u == pytest.approx(99e-6)


def test_a_maximum_that_never_leaves_the_window_edge_raises():
    # At x = 0 the objective -c(u) = asinh(u) rises on every window, and the
    # 64 doublings end near u = 1e20, where it is 46, far under the cap.
    with pytest.raises(ConvergenceError, match="did not localize"):
        _legendre_point(lambda u: -np.arcsinh(u), 0.0, -4.0, 4.0, 41, ())


# -- two-level closed forms (the oracle in reference.py) ------------------------

def approx_law(law, expected):
    assert set(law) == set(expected)
    for key, val in expected.items():
        assert law[key] == pytest.approx(val, abs=1e-12), key


def test_closed_form_on_aperiodic_irreducible_models(std_model):
    params = c2_parameters(std_model)
    assert (params.situation, params.periodic) == (1, False)
    np.testing.assert_allclose(params.mean, [reference.STD_MEAN], atol=1e-12)
    np.testing.assert_allclose(params.covariance, [[reference.STD_VARIANCE]],
                               atol=1e-10)
    assert params.law_a is None and params.law_b is None


def test_closed_form_eigendecomposes_the_untilted_map_once(monkeypatch):
    # period and invariant state come from one fixed-point record
    import oqwalk.structure as structure

    std_model = builtin("std_example")
    untilted = build_superop(std_model).matrix
    seen = []
    real = structure.eigendecompose

    def recording(matrix, *args, **kwargs):
        seen.append(np.array_equal(matrix, untilted))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(structure, "eigendecompose", recording)
    params = c2_parameters(std_model)
    assert sum(seen) == 1
    c2_parameters(std_model)  # the record is kept on the model
    assert sum(seen) == 1
    monkeypatch.undo()
    rho = invariant_state(std_model)
    assert params.mean.tobytes() == drift(std_model, rho).tobytes()
    assert params.covariance.tobytes() == covariance(std_model, rho).tobytes()


def test_closed_form_on_the_periodic_model(periodic_model):
    params = c2_parameters(periodic_model)
    assert (params.situation, params.periodic) == (1, True)
    approx_law(params.law_a, reference.PERIODIC_LAW_A)
    approx_law(params.law_b, reference.PERIODIC_LAW_B)
    np.testing.assert_allclose(params.mean, [reference.PERIODIC_MEAN], atol=1e-12)
    np.testing.assert_allclose(params.covariance, [[reference.PERIODIC_VARIANCE]],
                               atol=1e-12)


def test_closed_form_on_the_antidiagonal_model(antidiag_model):
    params = c2_parameters(antidiag_model)
    assert params.periodic
    approx_law(params.law_a, reference.ANTIDIAG_LAW_A)
    approx_law(params.law_b, reference.ANTIDIAG_LAW_B)
    np.testing.assert_allclose(params.mean, [reference.ANTIDIAG_MEAN], atol=1e-12)
    np.testing.assert_allclose(params.covariance, [[reference.ANTIDIAG_VARIANCE]],
                               atol=1e-12)


def test_closed_form_on_the_breakdown_model(breakdown_model):
    params = c2_parameters(breakdown_model)
    assert (params.situation, params.periodic) == (2, False)
    approx_law(params.law_a, reference.BREAKDOWN_LAW)
    np.testing.assert_allclose(params.mean, [0.0], atol=1e-12)
    np.testing.assert_allclose(params.covariance, [[1.0]], atol=1e-12)
    assert params.law_b is None and params.weight_first is None


def test_two_ray_models_mix_branch_laws_by_initial_weight():
    model = diagonal_pair_model(5)
    params = c2_parameters(model)
    assert params.situation == 3
    assert params.weight_first == pytest.approx(0.5, abs=1e-12)
    ma = sum(k[0] * p for k, p in params.law_a.items())
    mb = sum(k[0] * p for k, p in params.law_b.items())
    assert abs(ma - mb) > 1e-3  # distinct branch means for this draw
    assert params.covariance is None  # no single Gaussian limit
    np.testing.assert_allclose(params.mean, [(ma + mb) / 2], atol=1e-12)


def test_two_ray_models_recover_a_gaussian_on_one_ray():
    from oqwalk import classify_c2

    model = diagonal_pair_model(5)
    ray = classify_c2(model).rays[0]
    start = point_initial_state(model, np.outer(ray, ray.conj()))
    params = c2_parameters(model, initial_state=start)
    assert params.weight_first == pytest.approx(1.0, abs=1e-10)
    assert params.covariance is not None
    ma = sum(k[0] * p for k, p in params.law_a.items())
    va = sum(k[0] ** 2 * p for k, p in params.law_a.items()) - ma**2
    np.testing.assert_allclose(params.mean, [ma], atol=1e-10)
    np.testing.assert_allclose(params.covariance, [[va]], atol=1e-10)


def test_two_ray_models_with_equal_branch_means_keep_a_gaussian():
    params = c2_parameters(equal_modulus_diagonal_model())
    assert params.situation == 3
    assert params.covariance is not None
    np.testing.assert_allclose(params.mean, [-0.28], atol=1e-12)
    np.testing.assert_allclose(params.covariance, [[0.9216]], atol=1e-12)


def test_closed_form_agrees_with_the_spectral_route(periodic_model):
    stats = asymptotic_stats(periodic_model)
    params = c2_parameters(periodic_model)
    np.testing.assert_allclose(stats.mean, params.mean, atol=1e-10)
    np.testing.assert_allclose(stats.covariance, params.covariance, atol=1e-9)


# -- block mixture ----------------------------------------------------------------

_MIXTURE_DOCUMENTS = {
    "three_level_two_block": three_level_two_block_model,
    "std_sum": lambda: block_sum_model(builtin("std_example"), builtin("std_example")),
    "block_sum_n8": lambda: block_sum_model(random_isometry_model(3, n=4),
                                            random_isometry_model(4, n=4)),
}


def test_block_weights_follow_absorption_through_a_transient_level():
    # From I/3 the transient e2 falls to e0 with probability 3/4: weights 7/12
    # and 5/12 (not the 1/3 of each ray that rho_0's diagonal holds), and the
    # drift is the exact mean slope, -1/60.
    model = transient_fed_rays_model()
    mix = block_mixture(model)
    np.testing.assert_allclose(mix.weights, [7 / 12, 5 / 12], rtol=0, atol=1e-15)
    mean, _ = reference.exact_clt_constants(model, 200, 400, start=np.eye(3) / 3)
    np.testing.assert_allclose(mix.mean, mean, rtol=0, atol=1e-13)
    np.testing.assert_allclose(mix.mean, [-1 / 60], rtol=0, atol=1e-15)
    assert [float(b.mean[0]) for b in mix.blocks] == [pytest.approx(0.4, abs=1e-14),
                                                      pytest.approx(-0.6, abs=1e-14)]
    assert mix.covariance is None


@pytest.mark.parametrize("name", sorted(_MIXTURE_DOCUMENTS))
def test_each_block_started_on_its_invariant_state_has_the_exact_constants(name):
    # The walk started on q_k rho_k q_k^dag, block k's invariant state in its
    # piece of the internal space, never leaves block k.
    model = _MIXTURE_DOCUMENTS[name]()
    mix = block_mixture(model)
    blocks = _irreducible_blocks(model)
    assert len(mix.blocks) == len(blocks) == 2
    for (block, q), stats in zip(blocks, mix.blocks):
        start = q @ invariant_state(block) @ q.conj().T
        mean, cov = reference.exact_clt_constants(model, 150, 300, start=start)
        np.testing.assert_allclose(stats.mean, mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(stats.covariance, cov, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(_MIXTURE_DOCUMENTS))
def test_the_block_mixture_is_the_exact_law_from_the_default_state(name):
    # The drift is the exact mean slope; where the block drifts agree, the
    # covariance is the exact covariance slope, and otherwise there is none.
    model = _MIXTURE_DOCUMENTS[name]()
    mix = block_mixture(model)
    n = model.internal_dim
    mean, cov = reference.exact_clt_constants(model, 150, 300, start=np.eye(n) / n)
    np.testing.assert_allclose(mix.mean, mean, rtol=0, atol=1e-10)
    if name == "std_sum":
        np.testing.assert_allclose(mix.weights, [0.5, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(mix.covariance, cov, rtol=0, atol=1e-10)
        np.testing.assert_allclose(mix.covariance, [[8 / 9]], rtol=0, atol=1e-12)
    else:
        assert mix.covariance is None


def _two_ray_models():
    equal = equal_modulus_diagonal_model()
    pair = diagonal_pair_model(5)
    ray = np.diag([1.0, 0.0])
    yield "diagonal_pair_5", pair, None
    yield "diagonal_pair_5_on_one_ray", pair, point_initial_state(pair, ray)
    yield "equal_modulus", equal, None
    yield "rotated_equal_modulus", rotated(equal, 1), None
    for i, model in enumerate(c2_sample(100)[95:]):
        yield f"c2_sample_{95 + i}", model, None


def test_the_block_mixture_equals_the_two_level_closed_forms():
    for name, model, start in _two_ray_models():
        mix = block_mixture(model, start)
        params = c2_parameters(model, start)
        assert params.situation == 3, name
        np.testing.assert_allclose(mix.mean, params.mean, rtol=0, atol=1e-12, err_msg=name)
        assert (mix.covariance is None) == (params.covariance is None), name
        if params.covariance is not None:
            np.testing.assert_allclose(mix.covariance, params.covariance, rtol=0, atol=1e-12,
                                       err_msg=name)


def test_a_weighted_block_that_is_not_trace_preserving_is_refused():
    # The transient e2 stays with probability 1 - 1e-9: its eigenvalue lies
    # within UNIT_CIRCLE_TOL of 1 and counts as fixed, so E1 keeps a third of
    # I/3 on a block that leaks 1e-9 per step.
    model = transient_fed_rays_model(1 - 1e-9)
    with pytest.raises(SpectralIndeterminateError, match="is not trace preserving"):
        block_mixture(model)


# -- overflow-free curve evaluation ------------------------------------------------

def test_log_lambda_refuses_a_tilt_where_the_map_is_nilpotent():
    # The -1 term's weight exp(-800) underflows; the +1 operator is nilpotent.
    model = nilpotent_step_model()
    assert np.isfinite(log_lambda(model, 300.0))
    with pytest.raises(SpectralIndeterminateError, match=r"^zero spectral radius$") as info:
        log_lambda(model, 400.0)
    assert info.value.exit_code == 4


def test_log_lambda_stays_finite_far_out(all_builtins):
    for name, model in all_builtins.items():
        if model.lattice_dim != 1:
            continue
        for u in (-300.0, 300.0):
            assert np.isfinite(log_lambda(model, u)), (name, u)
