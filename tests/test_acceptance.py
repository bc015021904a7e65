"""Acceptance suite: one test per contract criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured numbers.
"""
import itertools
import time

import numpy as np
import pytest

from oqwalk import (
    asymptotic_stats,
    batch_statistics,
    bn_decomposition,
    c2_m_classifier,
    classify_c2,
    exact_distribution,
    invariant_state,
    is_irreducible_L,
    is_irreducible_M,
    lambda_curve,
    log_lambda,
    mgf_check,
    period,
    point_initial_state,
    rate_function,
    validate_model,
)
import reference
from conftest import moments
from model_zoo import c2_sample, irreducible_sample


E1 = np.array([[1.0, 0.0], [0.0, 0.0]])


def announce(n, message):
    print(f"\n[criterion {n}] PASS — {message}")


def test_criterion_1_standard_model_statistics(std_model):
    t0 = time.perf_counter()
    stats = asymptotic_stats(std_model)
    assert abs(stats.mean[0]) <= 1e-10
    assert abs(stats.covariance[0, 0] - 8 / 9) <= 1e-9
    np.testing.assert_allclose(stats.eta_basis[0], reference.STD_ETA, atol=1e-9)
    worst = 0.0
    for u in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        lam = float(np.exp(log_lambda(std_model, u)))
        ref = float(reference.std_lambda(u))
        worst = max(worst, abs(lam - ref) / ref)
        assert abs(lam - ref) <= 1e-9 * ref
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"mean 0, covariance 8/9, corrector matched, "
                f"tilted-curve rel err {worst:.1e}, {elapsed:.2f}s")


def test_criterion_2_periodic_model(periodic_model):
    t0 = time.perf_counter()
    pd = period(periodic_model)
    assert pd.period == 2
    np.testing.assert_allclose(pd.projections[0], np.diag([1.0, 0.0]), atol=1e-9)
    np.testing.assert_allclose(pd.projections[1], np.diag([0.0, 1.0]), atol=1e-9)
    stats = asymptotic_stats(periodic_model)
    assert abs(stats.mean[0] - 0.25) <= 1e-9
    assert abs(stats.covariance[0, 0] - 7 / 8) <= 1e-9
    xs = (0.0, 0.25, 0.5)
    table = rate_function(periodic_model, xs)
    gaps = [abs(v - float(reference.periodic_rate(x)))
            for x, v in zip(xs, table.rate)]
    assert max(gaps) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, f"period 2, drift 1/4, covariance 7/8, "
                f"rate gaps {max(gaps):.1e}, {elapsed:.2f}s")


def test_criterion_3_breakdown_model(breakdown_model):
    t0 = time.perf_counter()
    cls = classify_c2(breakdown_model)
    assert cls.situation == 2
    bn = bn_decomposition(breakdown_model)
    assert bn.recurrent_dimension == 1
    assert abs(bn.recurrent_basis[:, 0][0]) == pytest.approx(1.0, abs=1e-9)

    us = np.linspace(-2.0, 2.0, 41)
    curve = lambda_curve(breakdown_model, us)
    lam_gap = float(np.max(np.abs(
        curve.lambda_values - [reference.breakdown_lambda(u) for u in us])))
    assert lam_gap <= 1e-9
    assert len(curve.kinks) == 1
    kink = curve.kinks[0]
    assert abs(kink.u - reference.BREAKDOWN_KINK_U) <= 1e-4
    sl, sr = reference.BREAKDOWN_LAMBDA_SLOPES
    assert abs(kink.lambda_slope_left - sl) <= 1e-3
    assert abs(kink.lambda_slope_right - sr) <= 1e-3

    start = point_initial_state(breakdown_model,
                                np.array([[0.0, 0.0], [0.0, 1.0]]))
    lp = np.asarray(breakdown_model.operators[0])
    e2 = np.array([0.0, 1.0], dtype=complex)
    corner_gap = 0.0
    for n in range(1, 11):
        mass = exact_distribution(breakdown_model, n, initial_state=start).masses[(n,)]
        closed = reference.breakdown_return_probability(n)
        vec = np.linalg.matrix_power(lp, n) @ e2
        power = float(np.vdot(vec, vec).real)
        corner_gap = max(corner_gap, abs(mass - closed), abs(mass - power))
        assert abs(mass - closed) <= 1e-10
        assert abs(mass - power) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(3, f"situation 2, trapping ray found, kink at ln(2)/2 with matched "
                f"slopes, ballistic-corner gap {corner_gap:.1e}, {elapsed:.2f}s")


def test_criterion_4_clt_normality(std_model, periodic_model, breakdown_model):
    t0 = time.perf_counter()
    cases = [
        ("standard", std_model, None),
        ("periodic", periodic_model, None),
        ("breakdown", breakdown_model, point_initial_state(breakdown_model, E1)),
    ]
    report = []
    for name, model, start in cases:
        batch = batch_statistics(model, 1000, 10000, seed=2026,
                                 initial_state=start, **moments(model))
        m = float(batch.mean_standardized[0])
        ks = batch.ks_distance
        assert abs(m) <= 0.04, (name, m)
        assert ks <= 0.05, (name, ks)
        report.append(f"{name}: mean {m:+.3f}, KS {ks:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(4, f"{'; '.join(report)}; {elapsed:.1f}s for 3x10^4 x 10^3 steps")


def test_criterion_5_simulation_oracles(all_builtins):
    t0 = time.perf_counter()
    worst_mgf = 0.0
    worst_tv = 0.0
    for name, model in all_builtins.items():
        for p, u in itertools.product(range(1, 9), (0.0, 0.5, -0.5, 1.0, -1.0)):
            gap = mgf_check(model, u, p).relative_gap
            worst_mgf = max(worst_mgf, gap)
            assert gap <= 1e-10, (name, p, u, gap)
        for p in range(1, 11):
            tv = exact_distribution(model, p).tv_gap
            worst_tv = max(worst_tv, tv)
            assert tv <= 1e-10, (name, p, tv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(5, f"mgf gap {worst_mgf:.1e} (p <= 8), "
                f"distribution TV gap {worst_tv:.1e} (p <= 10), {elapsed:.1f}s")


def test_criterion_6_classifier_consistency():
    t0 = time.perf_counter()
    sample = c2_sample(100)
    n_irr = n_red = n_inconclusive = n_period2 = 0
    for i, model in enumerate(sample):
        report = is_irreducible_L(model)  # must never raise on this sample
        cls = c2_m_classifier(model)
        search = is_irreducible_M(model, max_length=10)
        if cls.m_irreducible:
            assert search.verdict != "reducible", i
            n_irr += 1
        else:
            assert search.verdict != "irreducible", i
            n_red += 1
        n_inconclusive += search.verdict == "inconclusive"
        if report.irreducible and period(model).period == 2:
            # alternating internal structure forces a reducible walk
            n_period2 += 1
            assert not cls.m_irreducible, i
            assert search.verdict != "irreducible", i
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(6, f"100 models: {n_irr} walk-irreducible, {n_red} not, "
                f"{n_inconclusive} search-inconclusive, {n_period2} with "
                f"period-2 internal maps, no contradictions, {elapsed:.1f}s")


def test_criterion_7_covariance_route_agreement(all_builtins):
    t0 = time.perf_counter()
    models = list(all_builtins.values()) + irreducible_sample(20)
    worst = 0.0
    for model in models:
        stats = asymptotic_stats(model)
        worst = max(worst, stats.route_gap)
        assert stats.route_gap <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(7, f"{len(models)} models, worst corrector-vs-adjoint "
                f"covariance gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_8_builtin_self_consistency(all_builtins):
    t0 = time.perf_counter()
    h = 1e-4
    worst_fd = 0.0
    for name, model in all_builtins.items():
        report = validate_model(model)
        assert report.residual <= 1e-10, name
        assert report.choi_psd, name

        assert abs(log_lambda(model, 0.0)) <= 1e-12, name

        us = np.linspace(-2.0, 2.0, 41)
        c = np.array([log_lambda(model, u) for u in us])
        second = c[2:] - 2 * c[1:-1] + c[:-2]
        assert np.min(second) >= -1e-8, name

        rho = invariant_state(model)
        m = reference.MEANS[name]
        table = rate_function(model, [m])
        assert table.rate[0] <= 1e-6, name

        lam = lambda u: float(np.exp(log_lambda(model, u)))
        d1 = (lam(h) - lam(-h)) / (2 * h)
        d2 = (lam(h) - 2.0 + lam(-h)) / h**2
        gap1 = abs(d1 - m) / max(1.0, abs(m))
        gap2 = abs(d2 - reference.LAMBDA_PP0[name]) / reference.LAMBDA_PP0[name]
        worst_fd = max(worst_fd, gap1, gap2)
        assert gap1 <= 1e-5, (name, gap1)
        assert gap2 <= 1e-5, (name, gap2)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(8, f"5 builtins: valid, c(0)=0, convex curves, I(drift)=0, "
                f"worst finite-difference gap {worst_fd:.1e}, {elapsed:.1f}s")
