"""Answers that do not depend on how the walk is written down.

A unitary change of internal basis (L_s -> U L_s U^dag), a reflection of
the steps (s -> -s) and a shift of every step (s -> s + v) each describe
the same walk.  With sign = -1 for the reflection and +1 otherwise, they
move a position x to sign x + v and turn log lambda_u into
log lambda_{sign u} + u v.  So the structural verdicts, the CLT constants,
the tilted curve with its kinks and ties, the rate function and the exact
law must come out the same, mapped.  The lattice walk's verdict and period
are compared except under the shift, which changes the lattice.  Swapping
the axes of a walk on Z^2 keeps every verdict and permutes the covariance.
No closed form is needed, so the check reaches every model here, not only
those whose basis makes zeros exact.
"""
import functools

import numpy as np
import pytest

from oqwalk import (
    BUILTIN_NAMES,
    KrausModel,
    OQWalkError,
    asymptotic_stats,
    bn_decomposition,
    builtin,
    classify_c2,
    exact_distribution,
    is_irreducible_L,
    is_irreducible_M,
    is_regular,
    lambda_curve,
    period,
    rate_function,
)
from oqwalk.structure import algebra_closure
import reference
from model_zoo import (
    STEPS_2D,
    block_cyclic_model,
    block_sum_model,
    c2_sample,
    equal_modulus_diagonal_model,
    mirrored_breakdown_model,
    random_isometry_model,
    rotated,
    three_level_two_block_model,
)

_C2 = c2_sample(100)
_REDUCIBLE_C2 = [i for i, m in enumerate(_C2) if algebra_closure(m.operators).dimension < 4]

MODELS = {
    **{name: functools.partial(builtin, name) for name in BUILTIN_NAMES},
    **{f"c2_{i}": functools.partial(_C2.__getitem__, i) for i in _REDUCIBLE_C2},
    "three_level_two_block": three_level_two_block_model,
    "block_sum_n8": lambda: block_sum_model(random_isometry_model(3, n=4),
                                            random_isometry_model(4, n=4)),
    "equal_modulus_diagonal": equal_modulus_diagonal_model,
    "mirrored_breakdown": mirrored_breakdown_model,
    "isometry_2d": lambda: random_isometry_model(3, n=2, steps=STEPS_2D),
    "block_cyclic_121": lambda: block_cyclic_model(0, (1, 2, 1)),
    "block_cyclic_1232": lambda: block_cyclic_model(0, (1, 2, 3, 2)),
}


def _moved(model, sign, v):
    """``model`` with each step s replaced by sign s + v."""
    steps = tuple(tuple(sign * c + w for c, w in zip(s, v)) for s in model.displacements)
    return KrausModel(model.lattice_dim, model.internal_dim, steps, model.operators)


# name -> (transform, sign, shift along the first axis)
TRANSFORMS = {
    "unitary_1": (lambda m: rotated(m, 1), 1, 0),
    "unitary_2": (lambda m: rotated(m, 2), 1, 0),
    "reflection": (lambda m: _moved(m, -1, (0,) * m.lattice_dim), -1, 0),
    "shift": (lambda m: _moved(m, 1, (3,) + (0,) * (m.lattice_dim - 1)), 1, 3),
}

_GRID = np.linspace(-4.0, 4.0, 41)
_VELOCITIES = np.linspace(-1.25, 1.25, 11)  # dyadic: sign x + v is exact
_HORIZON = 6


def _outcome(compute, model):
    """What ``compute(model)`` returns, or the type of the error it raises."""
    try:
        return compute(model)
    except OQWalkError as exc:
        return type(exc)


def _verdicts(model, lattice: bool) -> dict:
    """The structural verdicts; the lattice's only where the steps keep it."""
    irr = is_irreducible_L(model)
    out = {"irreducible": irr.irreducible, "closure": irr.closure_dimension,
           "fixed_points": irr.fixed_point_count,
           "recurrent_dimension": bn_decomposition(model).recurrent_dimension}
    if irr.irreducible:
        out.update(period=period(model).period, regular=is_regular(model).regular)
    if model.internal_dim == 2:
        out["situation"] = _outcome(lambda m: classify_c2(m).situation, model)
    if lattice:
        walk = is_irreducible_M(model)
        out["lattice"] = (walk.verdict, walk.period)
        if model.internal_dim == 2 and set(model.displacements) == {(1,), (-1,)}:
            m = reference.c2_m_classifier(model)
            out["c2_m"] = (m.m_irreducible, m.m_period)
    return out


@functools.cache
def _answers(name: str, transform: str | None) -> dict:
    """Every answer compared here, for a model or its transformed copy, in
    the original's coordinates: transformed positions x' = sign x + v, tilts
    u' = sign u."""
    model = MODELS[name]()
    steps = model.steps_array[:, 0]
    sign, v = 1, 0
    if transform is not None:
        make, sign, v = TRANSFORMS[transform]
        model = make(model)
    out = {"verdicts": _verdicts(model, lattice=transform != "shift")}

    def stats(m):
        s = asymptotic_stats(m)
        return sign * (s.mean - np.eye(m.lattice_dim)[0] * v), s.covariance
    out["stats"] = _outcome(stats, model)

    curves = []
    for axis in range(model.lattice_dim):
        e = np.eye(model.lattice_dim)[axis]
        curve = lambda_curve(model, sign * _GRID, e)
        mapped_v = v if axis == 0 else 0
        curves.append((
            curve.log_lambda_values - sign * _GRID * mapped_v,
            tuple(sign * t for t in curve.degenerate_parameters),
            sorted((sign * k.u, *((k.log_slope_left, k.log_slope_right) if sign > 0
                                  else (-k.log_slope_right, -k.log_slope_left)))
                   for k in curve.kinks),
            mapped_v,
        ))
    out["curves"] = curves

    def rates(m):
        t = rate_function(m, sign * _VELOCITIES + v)
        return t.rate, sign * t.maximizers, t.upper_bound_only, sorted(sign * k for k in t.kinks)
    if model.lattice_dim == 1:
        out["rate"] = _outcome(rates, model)
        out["edge"] = (_VELOCITIES == steps.min()) | (_VELOCITIES == steps.max())

    moved = (_HORIZON * v,) + (0,) * (model.lattice_dim - 1)
    out["law"] = {tuple(sign * (c - w) for c, w in zip(x, moved)): p
                  for x, p in exact_distribution(model, _HORIZON).masses.items()}
    return out


def _close(got, want, tol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want[np.isfinite(want)]), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * scale, err_msg=what)


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("name", list(MODELS))
def test_the_walk_answers_alike_in_every_description(name, transform):
    want, got = _answers(name, None), _answers(name, transform)
    assert got["verdicts"] == {key: verdict for key, verdict in want["verdicts"].items()
                               if key in got["verdicts"]}

    if isinstance(want["stats"], type):
        assert got["stats"] is want["stats"]
    else:
        for g, w, what in zip(got["stats"], want["stats"], ("mean", "covariance")):
            _close(g, w, 1e-12, what)

    for (g_log, g_ties, g_kinks, v), (w_log, w_ties, w_kinks, _) in zip(
            got["curves"], want["curves"]):
        _close(g_log, w_log, 1e-12, "log lambda")
        assert g_ties == w_ties
        assert len(g_kinks) == len(w_kinks)
        for (gu, gl, gr), (wu, wl, wr) in zip(g_kinks, w_kinks):
            assert gu == pytest.approx(wu, abs=1e-12)
            # One-sided slopes are central differences at step 1e-5.
            assert (gl - v, gr - v) == pytest.approx((wl, wr), abs=1e-8)

    if "rate" in want:
        if isinstance(want["rate"], type):
            assert got["rate"] is want["rate"]
        else:
            (g_rate, g_max, g_upper, g_kinks), (w_rate, w_max, w_upper, w_kinks) = \
                got["rate"], want["rate"]
            edge = want["edge"]
            _close(g_rate[~edge], w_rate[~edge], 1e-12, "rate")
            # At an extreme step x the rate is -log rho(Phi_x), the radius of
            # that step's map alone.  Where L_x is defective (std_example's
            # L_+ = (I + N) / sqrt 3) the root is a triple Jordan block of
            # Phi_x, which an eigensolver resolves to eps^(1/3), 9e-6.
            np.testing.assert_allclose(g_rate[edge], w_rate[edge], rtol=2e-5, atol=0)
            # Newton stops at |c' - x| <= 1e-12 max(1, |x|), which leaves the
            # maximizer free by that much over c''.
            _close(g_max, w_max, 1e-10, "maximizers")
            assert g_upper == w_upper
            _close(g_kinks, w_kinks, 1e-12, "rate kinks")

    assert set(got["law"]) == set(want["law"])
    for x, p in want["law"].items():
        assert got["law"][x] == pytest.approx(p, abs=1e-14), x


def test_a_2d_walk_answers_alike_with_its_axes_swapped():
    model = MODELS["isometry_2d"]()
    swapped = KrausModel(2, model.internal_dim,
                         tuple(s[::-1] for s in model.displacements), model.operators)
    want, got = _verdicts(model, lattice=True), _verdicts(swapped, lattice=True)
    assert got == want
    assert want["lattice"] == ("irreducible", 2)
    stats, swapped_stats = asymptotic_stats(model), asymptotic_stats(swapped)
    _close(swapped_stats.mean, stats.mean[::-1], 1e-12, "mean")
    _close(swapped_stats.covariance, stats.covariance[::-1, ::-1], 1e-12, "covariance")
