"""Drift, CLT covariance, tilted-curve kinks, rate function, closed forms."""
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
    bn_decomposition,
    builtin,
    c2_parameters,
    covariance,
    covariance_ags,
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
    _KINK_JUMP_TOL,
    _block_crossings,
    _log_lambda_derivatives,
)
from oqwalk.structure import (
    _fixed_point_data,
    _irreducible_blocks,
    _operator_closure,
    algebra_closure,
)
from oqwalk.superop import build_superop
import reference
from model_zoo import (
    STEPS_2D,
    bench_document,
    block_sum_model,
    diagonal_pair_model,
    equal_modulus_diagonal_model,
    mirrored_breakdown_model,
    random_isometry_model,
    three_level_two_block_model,
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
        gap = np.max(np.abs(covariance(model) - covariance_ags(model)))
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
    model = _FULL_ALGEBRA_MODELS[name]()
    ts = np.linspace(-4.0, 4.0, 41)
    curve = lambda_curve(model, ts)
    assert radius_calls == []
    assert curve.kinks == ()
    refined = reference.refine_every_triple_curve(model, ts)
    assert curve.lambda_values.tobytes() == refined.lambda_values.tobytes()
    assert curve.log_lambda_values.tobytes() == refined.log_lambda_values.tobytes()


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


def _assert_same_values(curve, oracle):
    assert curve.lambda_values.tobytes() == oracle.lambda_values.tobytes()
    assert curve.log_lambda_values.tobytes() == oracle.log_lambda_values.tobytes()
    assert curve.degenerate_parameters == oracle.degenerate_parameters


def _assert_confirmed_by_secants(model, kink):
    """Whole-map secants at offsets 1e-4 and 2e-4 show the same kink."""
    f = reference.whole_map_lambda(model, np.eye(model.lattice_dim)[0])
    u0, h = kink.u, reference.KINK_SLOPE_OFFSET
    left = (f(u0 - h) - f(u0 - 2 * h)) / h
    right = (f(u0 + 2 * h) - f(u0 + h)) / h
    assert right - left > _KINK_JUMP_TOL * max(1.0, abs(left), abs(right))
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
        _assert_same_values(curve, oracle)
        found = [k.u for k in curve.kinks]
        for kink in oracle.kinks:
            assert any(abs(u - kink.u) <= width for u in found)
        for kink in curve.kinks:
            if not any(abs(kink.u - o.u) <= width for o in oracle.kinks):
                _assert_confirmed_by_secants(model, kink)


@pytest.mark.parametrize("name", ["breakdown", "three_level_two_block",
                                  "upper_triangular_0"])
def test_uncertified_blocks_raise(name, monkeypatch, capsys):
    import oqwalk.structure as structure
    from oqwalk.cli import main

    monkeypatch.setattr(structure, "_search_common_invariant_subspace",
                        lambda basis_mats, n: None)
    model = _REDUCIBLE_MODELS[name]()
    assert _irreducible_blocks(model) is None
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
    (kink,) = _block_crossings(model, np.array([700.0, 740.0]), np.ones(1))
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
    blocks = _irreducible_blocks(breakdown_model)
    assert sorted(b.internal_dim for b in blocks) == [1, 1]
    for u in (-3.0, -0.5, 0.0, reference.BREAKDOWN_KINK_U, 2.0):
        got = sorted(log_lambda(b, u) for b in blocks)
        want = sorted([np.log(np.cosh(u)), np.log(0.75) + u])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_two_block_model_splits_into_its_summands():
    blocks = _irreducible_blocks(three_level_two_block_model())
    assert sorted(b.internal_dim for b in blocks) == [1, 2]


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
    # The two block roots meet in a Jordan block there, so no Perron pair
    # exists; the radius still does.
    assert _CROSSING_U in grid
    curve = lambda_curve(breakdown_model, grid)
    assert curve.degenerate_parameters == (_CROSSING_U,)
    want = np.maximum(np.cosh(grid), 0.75 * np.exp(grid))
    np.testing.assert_allclose(curve.lambda_values, want, rtol=1e-7)


def test_interior_crossing_point_reports_the_kink(breakdown_model):
    curve = lambda_curve(breakdown_model, _CROSSING_U + np.linspace(-1.0, 1.0, 5))
    assert [k.u for k in curve.kinks] == [pytest.approx(_CROSSING_U, abs=1e-7)]


def test_irreducible_curves_still_raise_where_perron_fails(std_model):
    # From u = 16 on the std map's nearly defective cluster defeats the
    # Perron extraction; a full algebra has no crossing to fall back on.
    with pytest.raises(SpectralIndeterminateError):
        lambda_curve(std_model, [16.0, 17.0, 18.0])


# -- one stacked Perron extraction per curve -----------------------------------

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
def test_stacked_curve_keeps_the_bits_of_one_perron_per_point(name, entries, monkeypatch):
    import oqwalk.superop as superop

    make, grid, direction = _STACKED_CURVES[name]
    if entries is not None:
        monkeypatch.setattr(superop, "_STACK_ENTRIES", entries)
    model = make()
    curve = lambda_curve(model, grid, direction)
    lams, logs, degenerate = reference.per_point_curve(model, grid, direction)
    assert curve.lambda_values.tobytes() == lams.tobytes()
    assert curve.log_lambda_values.tobytes() == logs.tobytes()
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
def test_stacked_curve_raises_what_the_first_failing_point_raises(name, entries, monkeypatch):
    import oqwalk.superop as superop

    if entries is not None:
        monkeypatch.setattr(superop, "_STACK_ENTRIES", entries)
    make, grid = _RAISING_CURVES[name]
    model = make()
    outcomes = []
    for curve in (reference.per_point_curve, lambda_curve):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Exception) as raised:
                curve(model, grid)
        outcomes.append((type(raised.value), str(raised.value),
                         [str(w.message) for w in caught]))
    assert outcomes[1] == outcomes[0]


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


_CLT_MODELS = {
    "std": lambda: builtin("std_example"),
    "periodic": lambda: builtin("periodic_example"),
    "isometry_n4": lambda: random_isometry_model(4, n=4),
}


@pytest.mark.parametrize("name", sorted(_CLT_MODELS))
def test_newton_derivatives_at_zero_are_the_clt_constants(name):
    # A third route to drift and variance: c'(0) and c''(0) of c = log lambda.
    model = _CLT_MODELS[name]()
    stats = asymptotic_stats(model)
    value, slope, curvature = _log_lambda_derivatives(model, 0.0)
    assert abs(value) < 1e-12
    assert slope == pytest.approx(stats.mean[0], abs=1e-12)
    assert curvature == pytest.approx(stats.covariance[0, 0], abs=1e-9)


def test_rate_function_takes_at_most_six_perron_solves_per_velocity(monkeypatch,
                                                                    std_model):
    import oqwalk.asymptotics as asymptotics

    perrons = _count_calls(monkeypatch, "perron", asymptotics)
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    stacked = []
    real_rows = asymptotics._perron_rows

    def rows(stack, n):
        stacked.append(len(stack))
        return real_rows(stack, n)

    monkeypatch.setattr(asymptotics, "_perron_rows", rows)
    for x in np.linspace(-0.9, 0.9, 19):
        perrons.clear()
        radii.clear()
        stacked.clear()
        rate_function(std_model, [x])
        assert stacked == [41], x  # the grid, in one stacked call
        assert 0 < len(perrons) <= 6, x  # then Newton
        assert radii == [], x  # no bisection fallback


@pytest.mark.parametrize("name", ["std_example", "breakdown_example"])
def test_a_curve_takes_one_eig_and_no_eigvals_outside_the_radius(name, monkeypatch):
    import oqwalk.asymptotics as asymptotics

    model = builtin(name)
    lambda_curve(model, [0.0, 1.0])  # the model's kept structure facts
    calls = {key: _count_calls(monkeypatch, key, np.linalg) for key in ("eig", "eigvals")}
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    lambda_curve(model, np.linspace(-4.0, 4.0, 41))
    assert len(calls["eig"]) == 1
    assert len(calls["eigvals"]) == len(radii)  # radii only for a reducible model's kinks


def test_reducible_rate_runs_block_newton_steps_and_no_radius_search(monkeypatch):
    import oqwalk.asymptotics as asymptotics

    model = builtin("breakdown_example")
    curve = lambda_curve(model, np.linspace(-4.0, 4.0, 41))
    newton, searched = [], []
    real_newton, real_log_lambda = asymptotics._log_lambda_derivatives, asymptotics.log_lambda

    def block_newton(block, u):
        newton.append(block)
        return real_newton(block, u)

    def whole_curve(m, u):
        if m is model:
            searched.append(u)
        return real_log_lambda(m, u)

    monkeypatch.setattr(asymptotics, "_log_lambda_derivatives", block_newton)
    monkeypatch.setattr(asymptotics, "log_lambda", whole_curve)
    table = rate_function(model, [-0.5, 0.0, 0.5])
    # Newton on the cosh u block for x = -0.5 and 0; x = 0.5 lies between the
    # kink's slopes 1/3 and 1, so the kink is the maximizer, and the whole
    # map's curve is read only there, for the value.
    assert newton and all(block.internal_dim == 1 for block in newton)
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
    drifts = sorted(float(drift(block)[0]) for block in _irreducible_blocks(model))
    assert drifts[0] < drifts[-1]
    assert (table.rate >= 0).all()
    between = (xs >= drifts[0]) & (xs <= drifts[-1])
    assert between.any()
    assert (table.rate[between] <= 1e-12).all()


def test_bisection_fallback_matches_the_newton_rates(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics

    xs = np.linspace(-0.9, 0.9, 19)
    newton = rate_function(std_model, xs)
    monkeypatch.setattr(asymptotics, "_log_lambda_derivatives", lambda model, u: None)
    bisected = rate_function(std_model, xs)
    np.testing.assert_allclose(bisected.rate, newton.rate, rtol=0, atol=1e-12)


def test_boundary_velocities_take_the_closed_form(monkeypatch, periodic_model):
    import oqwalk.asymptotics as asymptotics

    newton = _count_calls(monkeypatch, "_newton_max", asymptotics)
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    table = rate_function(periodic_model, [-1.0, 1.0])
    assert newton == []
    assert len(radii) == 2  # one per edge: rho of the edge step's Kraus terms
    # Speed-one limits of the closed form.
    np.testing.assert_allclose(
        table.rate, [1.5 * np.log(2), 1.5 * np.log(2) - 0.5 * np.log(3)],
        rtol=0, atol=1e-12)
    assert list(table.maximizers) == [-np.inf, np.inf]


def test_velocities_beyond_the_steps_are_infinite_at_once(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics

    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    table = rate_function(std_model, [-1.5, 1.5])
    assert radii == []
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


# -- two-level closed forms -----------------------------------------------------

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


# -- overflow-free curve evaluation ------------------------------------------------

def test_log_lambda_stays_finite_far_out(all_builtins):
    for name, model in all_builtins.items():
        if model.lattice_dim != 1:
            continue
        for u in (-300.0, 300.0):
            assert np.isfinite(log_lambda(model, u)), (name, u)
