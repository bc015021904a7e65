"""Drift, CLT covariance, tilted-curve kinks, rate function, closed forms."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oqwalk import (
    AssumptionError,
    ConvergenceError,
    MultiplicityError,
    asymptotic_stats,
    builtin,
    c2_parameters,
    covariance,
    covariance_ags,
    drift,
    invariant_state,
    lambda_curve,
    log_lambda,
    point_initial_state,
    rate_function,
)
from oqwalk.asymptotics import (
    _kink_candidates,
    _lambda_curve,
    _log_lambda_derivatives,
)
from oqwalk.structure import _irreducible_blocks, algebra_closure
from oqwalk.superop import build_superop
import reference
from model_zoo import (
    STEPS_2D,
    block_sum_model,
    diagonal_pair_model,
    equal_modulus_diagonal_model,
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


@pytest.mark.parametrize("label, solves", [("std", 1), ("2-D", 4)])
def test_asymptotic_stats_solves_each_corrector_once(label, solves, monkeypatch):
    """d axis solves plus d (d - 1) polarization solves; the axis correctors
    of ``eta_basis`` reuse the covariance's diagonal solves."""
    import oqwalk.asymptotics as asymptotics

    model = (builtin("std_example") if label == "std"
             else random_isometry_model(3, n=2, steps=STEPS_2D))
    calls = _count_calls(monkeypatch, "solve_on_traceless", asymptotics)
    stats = asymptotic_stats(model)
    assert len(calls) == solves
    assert len(stats.eta_basis) == model.lattice_dim


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
    assert kink.u == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-4)
    sl, sr = reference.BREAKDOWN_LAMBDA_SLOPES
    assert kink.lambda_slope_left == pytest.approx(sl, abs=1e-3)
    assert kink.lambda_slope_right == pytest.approx(sr, abs=1e-3)
    gl, gr = reference.BREAKDOWN_LOG_SLOPES
    assert kink.log_slope_left == pytest.approx(gl, abs=1e-3)
    assert kink.log_slope_right == pytest.approx(gr, abs=1e-3)
    assert kink.slope_jump > 0


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
    plain = _lambda_curve(model, ts, None, False)
    assert curve.lambda_values.tobytes() == plain.lambda_values.tobytes()
    assert curve.log_lambda_values.tobytes() == plain.log_lambda_values.tobytes()


def test_reducible_curves_keep_kink_refinement(breakdown_model, radius_calls):
    curve = lambda_curve(breakdown_model, np.linspace(-4.0, 4.0, 41))
    # Two block radii per grid point, two refined triples and the slopes;
    # refining every triple took 1721.
    assert 0 < len(radius_calls) <= 200
    assert len(curve.kinks) == 1
    assert curve.kinks[0].u == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-4)


def test_reducible_rate_function_refines_only_block_crossings(breakdown_model,
                                                              radius_calls):
    # The curve, then golden section at the three interior velocities and
    # the closed form at the two edges; refining every triple took 1843.
    rate_function(breakdown_model, np.linspace(-1.0, 1.0, 5))
    assert len(radius_calls) <= 350


def _is_reducible(model):
    return algebra_closure(model.operators).dimension != model.internal_dim ** 2


_REDUCIBLE_MODELS = {
    "breakdown": lambda: builtin("breakdown_example"),
    "three_level_two_block": three_level_two_block_model,
    "equal_modulus_diagonal": equal_modulus_diagonal_model,
    "block_sum_n8": lambda: block_sum_model(random_isometry_model(3, n=4),
                                            random_isometry_model(4, n=4)),
}
_REDUCIBLE_MODELS.update({f"upper_triangular_{seed}": functools.partial(
    upper_triangular_model, seed) for seed in range(30)})

_ORACLE_GRIDS = (np.linspace(-4.0, 4.0, 41), np.linspace(-4.0, 4.0, 11),
                 np.linspace(-4.0, 4.0, 5), np.linspace(-3.0, 7.0, 23))


def _assert_same_curve(curve, oracle):
    assert curve.kinks == oracle.kinks
    assert curve.lambda_values.tobytes() == oracle.lambda_values.tobytes()
    assert curve.log_lambda_values.tobytes() == oracle.log_lambda_values.tobytes()
    assert curve.degenerate_parameters == oracle.degenerate_parameters


@pytest.mark.parametrize("name", sorted(_REDUCIBLE_MODELS))
def test_block_screen_keeps_every_kink_of_refining_every_triple(name):
    model = _REDUCIBLE_MODELS[name]()
    assert _is_reducible(model)
    for grid in _ORACLE_GRIDS:
        _assert_same_curve(lambda_curve(model, grid),
                           reference.refine_every_triple_curve(model, grid))


@pytest.mark.parametrize("name", ["breakdown", "three_level_two_block",
                                  "upper_triangular_0"])
def test_uncertified_blocks_refine_every_triple(name, monkeypatch):
    import oqwalk.structure as structure

    monkeypatch.setattr(structure, "_search_common_invariant_subspace",
                        lambda basis_mats, n: None)
    model = _REDUCIBLE_MODELS[name]()
    assert _irreducible_blocks(model) is None
    grid = _ORACLE_GRIDS[0]
    _assert_same_curve(lambda_curve(model, grid),
                       reference.refine_every_triple_curve(model, grid))


def test_tied_blocks_send_every_triple_to_refinement():
    # The two 1 x 1 blocks have equal radii at every tilt, so which one is
    # on top is rounding: no triple may be skipped on that verdict.
    model = equal_modulus_diagonal_model()
    assert _kink_candidates(model, np.linspace(-4.0, 4.0, 11), np.ones(1)).all()


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


def test_rate_function_computes_the_operator_closure_once(monkeypatch, std_model):
    import oqwalk.asymptotics as asymptotics
    import oqwalk.structure as structure

    calls = _count_calls(monkeypatch, "algebra_closure", structure, asymptotics)
    rate_function(std_model, [0.0])
    assert len(calls) == 1


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
    for x in np.linspace(-0.9, 0.9, 19):
        perrons.clear()
        radii.clear()
        rate_function(std_model, [x])
        assert 41 < len(perrons) <= 41 + 6, x  # the grid, then Newton
        assert radii == [], x  # no golden-section fallback


def test_reducible_rate_keeps_the_golden_section_path(monkeypatch, breakdown_model):
    import oqwalk.asymptotics as asymptotics

    newton = _count_calls(monkeypatch, "_log_lambda_derivatives", asymptotics)
    golden = _count_calls(monkeypatch, "_golden_max", asymptotics)
    table = rate_function(breakdown_model, [-0.5, 0.0, 0.5])
    assert newton == []
    assert len(golden) == 3
    assert table.kinks[0] == pytest.approx(reference.BREAKDOWN_KINK_U, abs=1e-6)


def test_boundary_velocities_take_the_closed_form(monkeypatch, periodic_model):
    import oqwalk.asymptotics as asymptotics

    golden = _count_calls(monkeypatch, "_golden_max", asymptotics)
    radii = _count_calls(monkeypatch, "spectral_radius", asymptotics)
    table = rate_function(periodic_model, [-1.0, 1.0])
    assert golden == []
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


def test_closed_form_eigendecomposes_the_untilted_map_once(std_model, monkeypatch):
    # period and invariant state come from one fixed-point record
    import oqwalk.structure as structure

    untilted = build_superop(std_model).matrix
    seen = []
    real = structure.eigendecompose

    def recording(matrix, *args, **kwargs):
        seen.append(np.array_equal(matrix, untilted))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(structure, "eigendecompose", recording)
    params = c2_parameters(std_model)
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
