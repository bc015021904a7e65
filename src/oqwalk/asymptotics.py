"""Asymptotic statistics of a lattice walk: drift, diffusion, tilted spectra.

The central objects are the invariant state of the auxiliary map, the drift
vector, the CLT covariance (computed by two genuinely different routes that
must agree), the tilted-eigenvalue curve u -> lambda_u with kink detection,
and the large-deviation rate function obtained as a Legendre transform of
log lambda_u.  A closed-form fallback for two-level models covers the cases
where the generic spectral route degenerates.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionError,
    ConvergenceError,
    MultiplicityError,
    PositivityError,
    SingularRestrictionError,
    SpectralIndeterminateError,
    TraceGaugeError,
)
from .model import KrausModel, LatticeState, default_initial_state
from .numerics import project_to_state, psd_check, solve_on_traceless, unvec, vec
from .structure import (
    _FixedPoints,
    _checked_period,
    _fixed_point_data,
    _irreducible_blocks,
    algebra_closure,
    classify_c2,
    is_irreducible_L,
)
from .superop import (
    Superoperator,
    _shifted_map,
    build_superop,
    derivative_maps,
    perron,
    spectral_radius,
    weighted_superop,
)

__all__ = [
    "invariant_state",
    "drift",
    "covariance",
    "covariance_ags",
    "AsymptoticStats",
    "asymptotic_stats",
    "log_lambda",
    "KinkRecord",
    "LambdaCurve",
    "lambda_curve",
    "RateFunctionTable",
    "rate_function",
    "C2Parameters",
    "c2_parameters",
]


def invariant_state(model: KrausModel) -> np.ndarray:
    """The invariant state of the auxiliary map; must be unique.

    Raises :class:`MultiplicityError` when the fixed space has dimension
    greater than one (two-level models can then fall back to
    :func:`c2_parameters`).
    """
    return _unique_invariant_state(_fixed_point_data(model))


def _unique_invariant_state(fp: _FixedPoints) -> np.ndarray:
    """:func:`invariant_state` from the untilted map's fixed points."""
    if fp.state is None:
        raise MultiplicityError(
            f"invariant state is not unique (fixed-point count {fp.fixed.size}); "
            "for two-level models use the closed-form route instead"
        )
    return project_to_state(fp.state, what="invariant state")


def drift(model: KrausModel, rho: np.ndarray | None = None) -> np.ndarray:
    """Mean displacement per step under the invariant internal state."""
    if rho is None:
        rho = invariant_state(model)
    weights = np.array(
        [float(np.trace(op @ rho @ op.conj().T).real) for op in model.operators]
    )
    return weights @ model.steps_array


def _directional_curvature_eta(model: KrausModel, u: np.ndarray,
                               rho: np.ndarray,
                               superop: Superoperator) -> tuple[float, np.ndarray]:
    """lambda''(0) - lambda'(0)^2 along u, via the corrector equation.

    Returns the curvature together with the traceless corrector eta that
    produced it.
    """
    n = model.internal_dim
    d1, d2 = derivative_maps(model, u)
    l1rho = d1.apply(rho)
    lam1 = float(np.trace(l1rho).real)
    rhs = l1rho - lam1 * rho
    rhs = (rhs + rhs.conj().T) / 2
    eye = np.eye(n * n, dtype=complex)
    eta = solve_on_traceless(eye - superop.matrix, rhs)
    eta = (eta + eta.conj().T) / 2
    lam2 = float(np.trace(d2.apply(rho)).real) + 2 * float(np.trace(d1.apply(eta)).real)
    return lam2 - lam1**2, eta


def _directional_curvature_ags(model: KrausModel, u: np.ndarray,
                               rho: np.ndarray,
                               superop: Superoperator,
                               mean: np.ndarray) -> float:
    """Same quantity via the adjoint-side observable equation.

    Solves (Id - adjoint)(Y) = sum_s <u,s> L_s^dag L_s - <u,m> Id, which is
    consistent exactly when m is the drift; the answer is invariant under the
    Y -> Y + c Id gauge, so any particular solution works.
    """
    n = model.internal_dim
    phi = model.steps_array @ u
    a_u = np.zeros((n, n), dtype=complex)
    for w, op in zip(phi, model.operators):
        a_u += w * (op.conj().T @ op)
    shift = float(u @ mean)
    b = a_u - shift * np.eye(n)

    k = np.eye(n * n, dtype=complex) - superop.matrix.conj().T
    y_vec, *_ = np.linalg.lstsq(k, vec(b), rcond=None)
    resid = np.linalg.norm(k @ y_vec - vec(b))
    if resid > 1e-9 * max(1.0, np.linalg.norm(vec(b))):
        raise SingularRestrictionError(
            f"observable equation is inconsistent (residual {resid:.3e}); "
            "drift input is wrong or the map is degenerate"
        )
    y = unvec(y_vec, n)
    y = (y + y.conj().T) / 2
    y = y - (np.trace(y) / n) * np.eye(n)

    d1, d2 = derivative_maps(model, u)
    l1rho = d1.apply(rho)
    lam1 = float(np.trace(l1rho).real)
    correction = float(np.trace(l1rho @ y).real) - lam1 * float(np.trace(rho @ y).real)
    lam2 = float(np.trace(d2.apply(rho)).real) + 2 * correction
    return lam2 - lam1**2


def _covariance_from_form(model: KrausModel, q, what: str) -> np.ndarray:
    """Covariance from its quadratic form by polarization, checked PSD.

    ``q`` is called on the coordinate axes first, then on their pairwise
    sums and differences.
    """
    d = model.lattice_dim
    c = np.zeros((d, d))
    basis = np.eye(d)
    for i in range(d):
        c[i, i] = q(basis[i])
    for i in range(d):
        for j in range(i + 1, d):
            plus = q(basis[i] + basis[j])
            minus = q(basis[i] - basis[j])
            c[i, j] = c[j, i] = (plus - minus) / 4
    c = (c + c.T) / 2
    report = psd_check(c.astype(complex), tol=1e-8)
    if not report.is_psd:
        raise PositivityError(
            f"{what} is not positive semidefinite "
            f"(minimum eigenvalue {report.min_eigenvalue:.3e})"
        )
    return c


def _covariance_and_correctors(model: KrausModel, rho: np.ndarray,
                               superop: Superoperator) -> tuple[np.ndarray, list]:
    """Corrector-route covariance and the traceless corrector of each axis."""
    etas = []

    def curvature(u: np.ndarray) -> float:
        value, eta = _directional_curvature_eta(model, u, rho, superop)
        if len(etas) < model.lattice_dim:  # the axes come first
            etas.append(eta)
        return value

    return _covariance_from_form(model, curvature, "covariance"), etas


def covariance(model: KrausModel, rho: np.ndarray | None = None) -> np.ndarray:
    """CLT covariance via the corrector (traceless-solve) route."""
    if rho is None:
        rho = invariant_state(model)
    return _covariance_and_correctors(model, rho, build_superop(model))[0]


def covariance_ags(model: KrausModel, rho: np.ndarray | None = None,
                   mean: np.ndarray | None = None) -> np.ndarray:
    """CLT covariance via the adjoint-observable route (independent check)."""
    if rho is None:
        rho = invariant_state(model)
    if mean is None:
        mean = drift(model, rho)
    return _covariance_ags(model, rho, mean, build_superop(model))


def _covariance_ags(model: KrausModel, rho: np.ndarray, mean: np.ndarray,
                    superop: Superoperator) -> np.ndarray:
    """:func:`covariance_ags` on an already built untilted map."""
    return _covariance_from_form(
        model, lambda u: _directional_curvature_ags(model, u, rho, superop, mean),
        "covariance (adjoint route)")


@dataclass(frozen=True)
class AsymptoticStats:
    """Drift and covariance with route-agreement diagnostics.

    ``eta_basis`` holds the traceless correctors for the coordinate tilt
    directions; ``method_residuals`` collects the cross-check gaps by name.
    """

    mean: np.ndarray
    covariance: np.ndarray
    covariance_alt: np.ndarray
    route_gap: float
    drift_fd_gap: float
    eta_basis: tuple[np.ndarray, ...] = ()
    method_residuals: dict[str, float] = field(default_factory=dict)


def asymptotic_stats(model: KrausModel) -> AsymptoticStats:
    """Drift + covariance by both routes, with cross-checks recorded.

    ``route_gap`` is the max-abs difference of the two covariance routes;
    ``drift_fd_gap`` compares the drift against central differences of
    log lambda_u at h = 1e-5.
    """
    fp = _fixed_point_data(model)
    rho, superop = _unique_invariant_state(fp), fp.superop
    mean = drift(model, rho)
    c_eta, etas = _covariance_and_correctors(model, rho, superop)
    c_ags = _covariance_ags(model, rho, mean, superop)
    route_gap = float(np.max(np.abs(c_eta - c_ags)))

    eta_residual = 0.0
    for i, eta in enumerate(etas):
        e = np.eye(model.lattice_dim)[i]
        if abs(np.trace(eta)) > 1e-12:
            raise TraceGaugeError(
                f"corrector along axis {i} has trace {np.trace(eta):.3e}"
            )
        d1, _ = derivative_maps(model, e)
        lam1 = float(np.trace(d1.apply(rho)).real)
        defect = (eta - superop.apply(eta)) - (d1.apply(rho) - lam1 * rho)
        eta_residual = max(eta_residual, float(np.linalg.norm(defect)))

    h = 1e-5
    fd = np.zeros_like(mean)
    for i in range(model.lattice_dim):
        e = np.zeros(model.lattice_dim)
        e[i] = 1.0
        fd[i] = (log_lambda(model, h * e) - log_lambda(model, -h * e)) / (2 * h)
    drift_fd_gap = float(np.max(np.abs(fd - mean)))
    return AsymptoticStats(
        mean, c_eta, c_ags, route_gap, drift_fd_gap,
        eta_basis=tuple(etas),
        method_residuals={
            "covariance_route_gap": route_gap,
            "drift_fd_gap": drift_fd_gap,
            "eta_fixed_point_residual": eta_residual,
        },
    )


def _log_lambda_derivatives(model: KrausModel,
                            u: float) -> tuple[float, float, float] | None:
    """``(c, c', c'')`` at ``u`` for ``c = log lambda`` on a 1-D walk.

    One Perron triple of the overflow-free shifted map gives all three: with
    ``r = vec(rho_u)``, ``l = vec(m_u)`` and ``M'``, ``M''`` the maps that
    weight each Kraus term by ``s`` and ``s^2``, Hellmann-Feynman gives
    ``c' = l^dag M' r / lambda``, and ``c'' = (l^dag M'' r + 2 l^dag M' x) /
    lambda - c'^2``, where ``x`` solves the bordered system ``(lambda I - M +
    r l^dag) x = (M' - c' lambda) r`` (the derivative of r with l^dag x = 0).
    The shift rescales M, M' and M'' alike, so it drops out of c' and c''.

    Returns None wherever these formulas cannot be trusted: the Perron data
    is uncertified, degenerate or within 1e-6 of another eigenvalue, the
    bordered system is singular, or ``c''`` is not finite and positive.
    """
    steps = model.steps_array[:, 0]
    shift, shifted = _shifted_map(model, np.array([u]))
    try:
        data = perron(shifted)
    except (SpectralIndeterminateError, PositivityError):
        return None
    if data.degenerate or data.separation < 1e-6:
        return None
    lam, rho, m = data.lambda_u, data.rho_u, data.m_u
    ops = model.operators
    ops_dag = ops.conj().transpose(0, 2, 1)
    d1 = steps * np.exp(steps * u - shift)  # Kraus weights of M'
    sandwiches = ops @ rho @ ops_dag
    paired = np.einsum("ij,sji->s", m, sandwiches).real  # Tr(m L_s rho L_s^dag)
    c1 = float(d1 @ paired) / lam
    rhs = np.einsum("s,sij->ij", d1, sandwiches) - c1 * lam * rho
    bordered = lam * np.eye(rho.size) - shifted.matrix + np.outer(vec(rho), vec(m).conj())
    try:
        x = unvec(np.linalg.solve(bordered, vec(rhs)), rho.shape[0])
    except np.linalg.LinAlgError:
        return None
    paired_x = np.einsum("ij,sji->s", m, ops @ x @ ops_dag).real
    c2 = float((steps * d1) @ paired + 2 * d1 @ paired_x) / lam - c1**2
    if not (np.isfinite(c2) and c2 > 0):
        return None
    return shift + float(np.log(lam)), c1, c2


def log_lambda(model: KrausModel, u) -> float:
    """log of the leading tilted eigenvalue, stable for large tilts."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shift, shifted = _shifted_map(model, u)
    radius = spectral_radius(shifted)
    if radius <= 0:
        raise ConvergenceError("tilted map has zero spectral radius")
    return shift + float(np.log(radius))


@dataclass(frozen=True)
class KinkRecord:
    """A point where the tilted-eigenvalue curve has a slope discontinuity.

    Slopes are one-sided, taken from secants just outside the certified
    bracket; they are reported for both lambda_u and log lambda_u.
    """

    u: float
    lambda_slope_left: float
    lambda_slope_right: float
    log_slope_left: float
    log_slope_right: float
    slope_jump: float


@dataclass(frozen=True)
class LambdaCurve:
    """Sampled tilted-eigenvalue curve along a fixed direction."""

    parameters: np.ndarray
    lambda_values: np.ndarray
    log_lambda_values: np.ndarray
    kinks: tuple[KinkRecord, ...]
    degenerate_parameters: tuple[float, ...]


_KINK_BRACKET_WIDTH = 1e-7
_KINK_JUMP_TOL = 1e-3
_KINK_SLOPE_OFFSET = 1e-4


def _refine_kink(f, a: float, m: float, b: float, fa: float, fm: float,
                 fb: float) -> tuple[float, float]:
    """Shrink a slope-jump bracket; returns (location, final jump).

    A genuine kink keeps a constant slope jump as the bracket shrinks, while
    smooth curvature scales the jump down with the width, so following the
    max-jump sub-bracket separates the two cases.
    """
    while b - a > _KINK_BRACKET_WIDTH:
        q1, q2 = (a + m) / 2, (m + b) / 2
        fq1, fq2 = f(q1), f(q2)
        triples = (
            (a, q1, m, fa, fq1, fm),
            (q1, m, q2, fq1, fm, fq2),
            (m, q2, b, fm, fq2, fb),
        )
        best, best_jump = None, -1.0
        for t in triples:
            ta, tm, tb, va, vm, vb = t
            jump = abs((vb - vm) / (tb - tm) - (vm - va) / (tm - ta))
            if jump > best_jump:
                best, best_jump = t, jump
        a, m, b, fa, fm, fb = best
    jump = abs((fb - fm) / (b - m) - (fm - fa) / (m - a))
    return m, jump


def _kink_candidates(model: KrausModel, ts: np.ndarray,
                     direction: np.ndarray) -> np.ndarray:
    """Which interior grid triples ``(t[i-1], t[i], t[i+1])`` may hold a kink.

    Entry ``i - 1`` is set when the top block of :func:`_irreducible_blocks`
    is not the same at all three points, or when the two largest block radii
    agree to 1e-6 relative at one of them; every entry is set when the
    blocks cannot be certified.  The shift of each block's map is the whole
    map's, so the shifted radii compare directly.
    """
    blocks = _irreducible_blocks(model)
    if blocks is None:
        return np.ones(len(ts) - 2, dtype=bool)
    radii = np.array([[spectral_radius(_shifted_map(block, t * direction)[1])
                       for block in blocks] for t in ts])
    top = np.argmax(radii, axis=1)
    ordered = np.sort(radii, axis=1)
    tied = (ordered[:, -1] - ordered[:, -2] <= 1e-6 * ordered[:, -1]
            if len(blocks) > 1 else np.zeros(len(ts), dtype=bool))
    return ((top[:-2] != top[1:-1]) | (top[1:-1] != top[2:])
            | tied[:-2] | tied[1:-1] | tied[2:])


def lambda_curve(model: KrausModel, parameters, direction=None) -> LambdaCurve:
    """Evaluate u -> lambda_u along ``t * direction`` and locate kinks.

    Each grid point goes through a full Perron extraction: one
    eigendecomposition, and a left vector by inverse iteration, on the
    rescaled map so large tilts cannot overflow.  Kink refinement between
    grid points uses radius-only evaluations and runs only when the Kraus
    operators do not generate the full matrix algebra: tilting rescales each
    operator by a positive scalar, so with a full algebra every tilted map is
    irreducible, its spectral radius is a simple eigenvalue, and lambda_u is
    real-analytic with no kink to find.

    Otherwise the same argument applies block by block.  The invariant
    subspaces of the operators do not depend on the tilt, so in a basis
    adapted to a composition series of the family every tilted map is block
    triangular, and lambda_u is the largest of the irreducible diagonal
    blocks' radii, each real-analytic.  A kink therefore needs the top block
    to change: a grid triple is refined only when its top block differs
    between its three points, or when two blocks tie to 1e-6 relative at one
    of them (every triple, when no split can be certified).  The one blind
    spot is a double crossing inside a single grid cell, where another block
    rises to the top and falls back between grid points.  Kinks are certified
    to a bracket of width 1e-7 and reported with one-sided slopes from
    secants at offsets 1e-4 and 2e-4 outside the bracket.
    """
    n = model.internal_dim
    refine_kinks = algebra_closure(model.operators).dimension != n * n
    return _lambda_curve(model, parameters, direction, refine_kinks)


def _lambda_curve(model: KrausModel, parameters, direction,
                  refine_kinks: bool) -> LambdaCurve:
    """:func:`lambda_curve` with the kink refinement decided by the caller."""
    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)

    lams = np.empty(len(ts))
    logs = np.empty(len(ts))
    degenerate: list[float] = []
    for i, t in enumerate(ts):
        shift, shifted = _shifted_map(model, t * direction)
        data = perron(shifted)
        logs[i] = shift + float(np.log(data.lambda_u))
        lams[i] = float(np.exp(logs[i]))
        if data.degenerate:
            degenerate.append(float(t))

    def f(t: float) -> float:
        shift, shifted = _shifted_map(model, t * direction)
        return float(np.exp(shift + np.log(spectral_radius(shifted))))

    kinks: list[KinkRecord] = []
    if refine_kinks and len(ts) >= 3:
        candidates = _kink_candidates(model, ts, direction)
        for i in range(1, len(ts) - 1):
            if not candidates[i - 1]:
                continue
            a, m, b = ts[i - 1], ts[i], ts[i + 1]
            fa, fm, fb = lams[i - 1], lams[i], lams[i + 1]
            sl = (fm - fa) / (m - a)
            sr = (fb - fm) / (b - m)
            scale = max(1.0, abs(sl), abs(sr))
            if abs(sr - sl) <= _KINK_JUMP_TOL * scale:
                continue
            u0, jump = _refine_kink(f, a, m, b, fa, fm, fb)
            if jump <= _KINK_JUMP_TOL * scale:
                continue  # curvature masquerading as a kink
            if any(abs(u0 - k.u) < (b - a) / 2 for k in kinks):
                continue
            h = _KINK_SLOPE_OFFSET
            left = (f(u0 - h) - f(u0 - 2 * h)) / h
            right = (f(u0 + 2 * h) - f(u0 + h)) / h
            lam0 = f(u0)
            kinks.append(KinkRecord(
                u=float(u0),
                lambda_slope_left=float(left),
                lambda_slope_right=float(right),
                log_slope_left=float(left / lam0),
                log_slope_right=float(right / lam0),
                slope_jump=float(jump),
            ))
    return LambdaCurve(
        parameters=ts,
        lambda_values=lams,
        log_lambda_values=logs,
        kinks=tuple(kinks),
        degenerate_parameters=tuple(degenerate),
    )


@dataclass(frozen=True)
class RateFunctionTable:
    """Legendre transform values I(x) = sup_u (u x - log lambda_u).

    ``upper_bound_only`` is set when the auxiliary map is reducible: the
    transform then certifies only an upper bound on exponential decay.
    Infinite values mark positions outside the reachable velocity range.
    The window grid of log lambda_u used for the sup is kept (``u_grid``,
    ``log_lambda``) along with any slope-discontinuity locations found on
    it (``kinks``).
    """

    x_grid: np.ndarray
    rate: np.ndarray
    maximizers: np.ndarray
    finite: np.ndarray
    upper_bound_only: bool
    u_grid: np.ndarray
    log_lambda: np.ndarray
    kinks: tuple[float, ...]


_RATE_SUP_CAP = 1e6
_GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(g, a: float, b: float, xtol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximization on [a, b] to absolute width xtol."""
    x1 = b - _GOLDEN_RATIO * (b - a)
    x2 = a + _GOLDEN_RATIO * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > xtol:
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN_RATIO * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN_RATIO * (b - a)
            g1 = g(x1)
    u = (a + b) / 2
    return u, g(u)


def _newton_max(derivatives, x: float, a: float, u: float,
                b: float) -> tuple[float, float] | None:
    """Solve c'(u) = x by Newton from u, safeguarded inside [a, b].

    A step that leaves the bracket is replaced by bisection; the bracket
    shrinks by the sign of c' - x, which orders points because c is convex.
    Stops at |c' - x| <= 1e-12 max(1, |x|) and returns (u, u x - c(u)) like
    :func:`_golden_max`; None when ``derivatives`` declines a point or 16
    steps do not converge.
    """
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(16):
        point = derivatives(u)
        if point is None:
            return None
        value, slope, curvature = point
        miss = slope - x
        if abs(miss) <= tol:
            return u, u * x - value
        if miss < 0:
            a = u
        else:
            b = u
        u_next = u - miss / curvature
        u = u_next if a < u_next < b else (a + b) / 2
    return None


def _legendre_point(c, x: float, u_lo: float, u_hi: float, points: int,
                    derivatives=None) -> tuple[float, float]:
    """sup_u (u x - c(u)) by grid bracketing, window growth and refinement.

    Once the grid puts the maximum at an interior point, the maximizer is
    refined by :func:`_newton_max` inside the two neighbouring cells when
    ``derivatives`` is given, and by golden section on the same bracket when
    it is not or when Newton gives up (a degenerate, nearly degenerate or
    uncertified Perron triple, a singular bordered solve, a curvature that
    is not positive, or no convergence in 16 steps).
    """
    us = list(np.linspace(u_lo, u_hi, points))
    gs = [u * x - c(u) for u in us]
    for _ in range(64):
        i = int(np.argmax(gs))
        if gs[i] > _RATE_SUP_CAP:
            return float("inf"), float(np.sign(us[i]) * np.inf)
        if max(gs) - min(gs) <= 1e-12 * max(1.0, abs(gs[i])):
            return float(gs[i]), float(us[i])  # flat objective (degenerate walk)
        if 0 < i < len(us) - 1:
            a, b = us[i - 1], us[i + 1]
            newton = derivatives and _newton_max(derivatives, x, a, us[i], b)
            u_star, val = newton or _golden_max(lambda u: u * x - c(u), a, b)
            return float(val), float(u_star)
        # Maximum at the window edge: extend outward by the current width.
        width = us[-1] - us[0]
        if i == 0:
            new = list(np.linspace(us[0] - width, us[0], points))[:-1]
            us = new + us
            gs = [u * x - c(u) for u in new] + gs
        else:
            new = list(np.linspace(us[-1], us[-1] + width, points))[1:]
            us = us + new
            gs = gs + [u * x - c(u) for u in new]
    raise ConvergenceError(
        f"Legendre maximizer for x = {x} did not localize within the window "
        "growth budget"
    )


def rate_function(model: KrausModel, positions,
                  u_min: float = -4.0, u_max: float = 4.0,
                  points: int = 41) -> RateFunctionTable:
    """Large-deviation rate function on a grid of velocities (1-D walks only).

    ``log lambda_u`` is sampled on ``points`` tilts in ``[u_min, u_max]``, and
    the window grows outward while a maximum sits at its edge.  For an
    irreducible map each maximizer is then refined by safeguarded Newton steps
    on ``(log lambda)'(u) = x`` between the grid neighbours, falling back to
    golden section where a Perron triple is degenerate or uncertified (see
    :func:`_legendre_point`); a reducible map, whose curve may have kinks,
    always uses golden section.  At an extreme step x the supremum is the
    u -> +-inf limit ``-log rho(Phi_x)``, with ``Phi_x`` the map of the Kraus
    terms of step x alone, and beyond the steps it is infinite; the maximizer
    there is reported as +-inf.
    """
    if model.lattice_dim != 1:
        raise AssumptionError(
            "rate-function evaluation is implemented for one-dimensional walks"
        )
    xs = np.asarray(positions, dtype=float)
    upper_only = not is_irreducible_L(model).irreducible

    # The irreducibility verdict is the closure test lambda_curve would repeat.
    curve = _lambda_curve(model, np.linspace(u_min, u_max, points), None, upper_only)
    u_grid = curve.parameters
    log_grid = curve.log_lambda_values

    cache: dict[float, float] = {
        float(u): float(v) for u, v in zip(u_grid, log_grid)
    }

    def c(u: float) -> float:
        if u not in cache:
            cache[u] = log_lambda(model, u)
        return cache[u]

    if abs(c(0.0)) > 1e-10:
        raise ConvergenceError(
            f"log lambda at u = 0 is {c(0.0):.3e}, not 0; map is not "
            "trace preserving to tolerance"
        )

    # c is a limit of convex functions, so its sampled second differences
    # may dip below zero only by rounding.
    second_c = log_grid[2:] - 2 * log_grid[1:-1] + log_grid[:-2]
    if second_c.size and np.min(second_c) < -1e-8 * max(
            1.0, float(np.max(np.abs(log_grid)))):
        raise ConvergenceError(
            "log lambda_u sampled on the window is not convex; tilted "
            "spectral data is unreliable here"
        )

    # An irreducible map has a simple Perron root, so c is real-analytic and
    # Newton steps on its Hellmann-Feynman slope apply; a reducible one may
    # have kinks, where only the golden-section search is safe.
    derivatives = None if upper_only else functools.cache(
        functools.partial(_log_lambda_derivatives, model))

    values = np.empty(len(xs))
    maximizers = np.empty(len(xs))
    steps = model.steps_array[:, 0]
    for j, x in enumerate(xs):
        if steps.min() < x < steps.max():
            val, u_star = _legendre_point(c, float(x), u_min, u_max, points, derivatives)
        else:  # u x - c(u) is monotone here
            edge = (spectral_radius(weighted_superop(model, steps == x))
                    if steps.min() <= x <= steps.max() else 0.0)
            val = -float(np.log(edge)) if edge > 0 else float("inf")
            u_star = np.inf if x >= steps.max() else -np.inf
        if np.isfinite(val) and val < 0:
            if val < -1e-10:
                raise ConvergenceError(
                    f"rate function came out negative ({val:.3e}) at x = {x}"
                )
            val = 0.0
        values[j] = val
        maximizers[j] = u_star
    finite = np.isfinite(values)

    # Convexity sanity on the finite part (equally spaced grids only).
    fin = values[finite]
    if len(fin) >= 3 and len(set(np.round(np.diff(xs), 12))) == 1:
        second = fin[2:] - 2 * fin[1:-1] + fin[:-2]
        if np.min(second) < -1e-8 * max(1.0, np.max(np.abs(fin))):
            raise ConvergenceError("rate-function values violate convexity")
    return RateFunctionTable(
        x_grid=xs,
        rate=values,
        maximizers=maximizers,
        finite=finite,
        upper_bound_only=upper_only,
        u_grid=u_grid,
        log_lambda=log_grid,
        kinks=tuple(k.u for k in curve.kinks),
    )


# --------------------------------------------------------------------------
# Closed forms for two-level models.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class C2Parameters:
    """Walk statistics of a two-level model from its normal form.

    ``law_a`` / ``law_b`` map displacements to probabilities for the one or
    two effective classical step distributions; ``weight_first`` is the mass
    the initial state puts on the first invariant ray (two-ray case only).
    ``covariance`` is None in the two-ray case with distinct branch means,
    where no single Gaussian limit exists.
    """

    situation: int
    periodic: bool
    mean: np.ndarray
    covariance: np.ndarray | None
    law_a: dict[tuple[int, ...], float] | None
    law_b: dict[tuple[int, ...], float] | None
    weight_first: float | None


def _law_moments(law: dict[tuple[int, ...], float],
                 d: int) -> tuple[np.ndarray, np.ndarray]:
    mean = np.zeros(d)
    second = np.zeros((d, d))
    for s, p in law.items():
        sv = np.asarray(s, dtype=float)
        mean += p * sv
        second += p * np.outer(sv, sv)
    return mean, second - np.outer(mean, mean)


def c2_parameters(model: KrausModel,
                  initial_state: LatticeState | None = None) -> C2Parameters:
    """Drift/covariance of a two-level walk through its invariant-ray form.

    * no common ray: generic spectral statistics (periodic maps get the
      two-alternating-laws form via the cyclic projections);
    * one common ray: the walk's statistics are those of the classical step
      law on the ray (the off-ray part decays);
    * two common rays: two classical branch laws mixed with the initial
      weight of the first ray.
    """
    cls = classify_c2(model)
    d = model.lattice_dim

    if cls.situation == 1:
        fp = _fixed_point_data(model)
        pd = _checked_period(model, fp)
        if pd.period == 1:
            rho = _unique_invariant_state(fp)
            mean = drift(model, rho)
            cov = covariance(model, rho)
            return C2Parameters(1, False, mean, cov, None, None, None)
        if pd.period != 2:
            raise AssumptionError(
                f"two-level irreducible maps have period 1 or 2, got {pd.period}"
            )
        f1 = _projection_ray(pd.projections[0])
        f2 = _projection_ray(pd.projections[1])
        law_a = {
            s: float(abs(f2.conj() @ op @ f1) ** 2)
            for s, op in zip(model.displacements, model.operators)
        }
        law_b = {
            s: float(abs(f1.conj() @ op @ f2) ** 2)
            for s, op in zip(model.displacements, model.operators)
        }
        ma, va = _law_moments(law_a, d)
        mb, vb = _law_moments(law_b, d)
        return C2Parameters(1, True, (ma + mb) / 2, (va + vb) / 2, law_a, law_b, None)

    if cls.situation == 2:
        law_a = {
            s: float(abs(a) ** 2)
            for s, a in zip(model.displacements, cls.alpha)
        }
        mean, cov = _law_moments(law_a, d)
        return C2Parameters(2, False, mean, cov, law_a, None, None)

    # Two common rays.
    law_a = {s: float(abs(a) ** 2) for s, a in zip(model.displacements, cls.alpha)}
    law_b = {s: float(abs(b) ** 2) for s, b in zip(model.displacements, cls.beta)}
    ma, va = _law_moments(law_a, d)
    mb, vb = _law_moments(law_b, d)
    if initial_state is None:
        initial_state = default_initial_state(model)
    ray = cls.rays[0]
    weight = 0.0
    for block in initial_state.blocks.values():
        weight += float((ray.conj() @ block @ ray).real)
    mean = weight * ma + (1 - weight) * mb
    if (np.allclose(ma, mb, atol=1e-12)
            or weight <= 1e-12 or weight >= 1 - 1e-12):
        # Single Gaussian limit: branch means agree, or the initial state
        # sits (to rounding) on one invariant ray.
        cov = weight * va + (1 - weight) * vb
    else:
        cov = None
    return C2Parameters(3, False, mean, cov, law_a, law_b, weight)


def _projection_ray(p: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(p)
    if abs(vals[-1] - 1.0) > 1e-8 or int(np.sum(vals > 0.5)) != 1:
        raise AssumptionError("cyclic projection is not rank one")
    return vecs[:, -1]
