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
    _fixed_point_data,
    _irreducible_blocks,
    _operator_closure,
    classify_c2,
    is_irreducible_L,
    period,
)
from .superop import (
    SpectralData,
    Superoperator,
    _perron_rows,
    _shifted_map,
    _shifted_maps,
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
    fp = _fixed_point_data(model)
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


def _axis_terms(model: KrausModel, rho: np.ndarray):
    """The maps D1_i, the images D1_i(rho), lambda'_i = Tr D1_i(rho) (the
    drift) and the matrix Tr D2_ij(rho).

    D1_i and D2_ij weight each Kraus term by s_i and s_i s_j; D1_i and D2_ii
    are :func:`derivative_maps` along axis i.
    """
    d = model.lattice_dim
    maps = [derivative_maps(model, e) for e in np.eye(d)]
    d1_rho = [d1.apply(rho) for d1, _ in maps]
    second = np.empty((d, d))
    for i, (_, d2_ii) in enumerate(maps):
        second[i, i] = float(np.trace(d2_ii.apply(rho)).real)
        for j in range(i):
            d2 = weighted_superop(model, model.steps_array[:, i] * model.steps_array[:, j])
            second[i, j] = second[j, i] = float(np.trace(d2.apply(rho)).real)
    return [d1 for d1, _ in maps], d1_rho, [float(np.trace(x).real) for x in d1_rho], second


def _corrector_route(model: KrausModel, rho: np.ndarray,
                     axes) -> tuple[np.ndarray, list]:
    """Covariance with G_ij = Tr D1_i(eta_j), and the correctors eta_j.

    eta_j is the traceless solution of (Id - Phi)(eta) = D1_j(rho) -
    lambda'_j rho, one solve per axis.
    """
    d1_maps, d1_rho, lam1, _ = axes
    n = model.internal_dim
    k = np.eye(n * n, dtype=complex) - build_superop(model).matrix
    etas = []
    for x, l1 in zip(d1_rho, lam1):
        rhs = x - l1 * rho
        eta = solve_on_traceless(k, (rhs + rhs.conj().T) / 2)
        etas.append((eta + eta.conj().T) / 2)
    g = [[float(np.trace(d1.apply(eta)).real) for eta in etas] for d1 in d1_maps]
    return _covariance_from_terms(axes, g, "covariance"), etas


def _adjoint_route(model: KrausModel, rho: np.ndarray, mean: np.ndarray,
                   axes) -> np.ndarray:
    """Covariance with G_ij = Tr(D1_i(rho) Y_j) - lambda'_i Tr(rho Y_j).

    Y_j solves (Id - adjoint)(Y) = sum_s s_j L_s^dag L_s - m_j Id, one
    least-squares solve per axis; the equation is consistent exactly when m
    is the drift.  G is invariant under the Y -> Y + c Id gauge, so any
    particular solution works.
    """
    _, d1_rho, lam1, _ = axes
    n = model.internal_dim
    k = np.eye(n * n, dtype=complex) - build_superop(model).matrix.conj().T
    columns = []
    for j in range(model.lattice_dim):
        a_j = sum(w * (op.conj().T @ op)
                  for w, op in zip(model.steps_array[:, j], model.operators))
        b = a_j - float(mean[j]) * np.eye(n)
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
        shift = float(np.trace(rho @ y).real)
        columns.append([float(np.trace(x @ y).real) - l1 * shift
                        for x, l1 in zip(d1_rho, lam1)])
    return _covariance_from_terms(axes, np.array(columns).T, "covariance (adjoint route)")


def _covariance_from_terms(axes, g, what: str) -> np.ndarray:
    """The Hessian of log lambda_u at u = 0, a bilinear form, checked PSD:

        C_ij = Tr D2_ij(rho) + (G_ij + G_ji) - lambda'_i lambda'_j.

    Each route supplies the cross term G; the adjoint route's G is the
    corrector route's transposed, and only G + G^T enters.
    """
    _, _, lam1, second = axes
    c = np.empty(second.shape)
    for i in range(len(lam1)):
        # lam1[i]**2 (libm pow) and lam1[i] * lam1[i] can differ in the last
        # bit; the 1-D outputs that tests/byte_sweep.py compares square with **.
        c[i, i] = (second[i, i] + 2 * g[i][i]) - lam1[i]**2
        for j in range(i):
            c[i, j] = c[j, i] = (second[i, j] + (g[i][j] + g[j][i])) - lam1[i] * lam1[j]
    report = psd_check(c.astype(complex), tol=1e-8)
    if not report.is_psd:
        raise PositivityError(
            f"{what} is not positive semidefinite "
            f"(minimum eigenvalue {report.min_eigenvalue:.3e})"
        )
    return c


def covariance(model: KrausModel, rho: np.ndarray | None = None) -> np.ndarray:
    """CLT covariance via the corrector route: one traceless solve per axis."""
    if rho is None:
        rho = invariant_state(model)
    return _corrector_route(model, rho, _axis_terms(model, rho))[0]


def covariance_ags(model: KrausModel, rho: np.ndarray | None = None,
                   mean: np.ndarray | None = None) -> np.ndarray:
    """CLT covariance via the adjoint-observable route (independent check):
    one least-squares solve per axis."""
    if rho is None:
        rho = invariant_state(model)
    if mean is None:
        mean = drift(model, rho)
    return _adjoint_route(model, rho, mean, _axis_terms(model, rho))


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

    The axis maps are built once and serve both routes and the corrector
    residual check.  ``route_gap`` is the max-abs difference of the two
    covariance routes; ``drift_fd_gap`` compares the drift against central
    differences of log lambda_u at h = 1e-5.
    """
    rho = invariant_state(model)
    mean = drift(model, rho)
    axes = _axis_terms(model, rho)
    c_eta, etas = _corrector_route(model, rho, axes)
    c_ags = _adjoint_route(model, rho, mean, axes)
    route_gap = float(np.max(np.abs(c_eta - c_ags)))

    eta_residual = 0.0
    _, d1_rho, lam1, _ = axes
    for i, eta in enumerate(etas):
        if abs(np.trace(eta)) > 1e-12:
            raise TraceGaugeError(
                f"corrector along axis {i} has trace {np.trace(eta):.3e}"
            )
        defect = (eta - build_superop(model).apply(eta)) - (d1_rho[i] - lam1[i] * rho)
        eta_residual = max(eta_residual, float(np.linalg.norm(defect)))

    h = 1e-5
    fd = np.array([(log_lambda(model, h * e) - log_lambda(model, -h * e)) / (2 * h)
                   for e in np.eye(model.lattice_dim)])
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

    ``u`` is where two irreducible blocks' radii cross, and each one-sided
    slope is the derivative of one block's own analytic curve there; they
    are reported for both lambda_u and log lambda_u, and ``slope_jump`` is
    the right lambda slope minus the left one (+inf where lambda_u overflows,
    since the right log slope exceeds the left).
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


_KINK_JUMP_TOL = 1e-3


def _block_crossings(model: KrausModel, ts: np.ndarray,
                     direction: np.ndarray) -> list[KinkRecord]:
    """The kinks of a reducible curve: where its top irreducible block changes.

    Each block's shifted map shares the whole map's shift, so the block radii
    at a tilt compare directly.  In every grid cell whose two ends have
    different top blocks a and b, bisection on "radius of a >= radius of b"
    closes in on their crossing to 1e-13 relative.  If a third block is on
    top there, the top went a -> c -> b inside the cell, and each half of the
    cell is searched again.  The one-sided log slopes are central differences
    (step 1e-5) of the two blocks' own curves.  A crossing is dropped (equal
    block curves, a tangency) when its log slopes jump by at most 1e-3 of
    max(1 / lambda, |left|, |right|): the lambda-slope gate divided by
    lambda, which stays finite where lambda overflows.
    """
    blocks = _irreducible_blocks(model)
    if blocks is None:
        raise SpectralIndeterminateError(
            "no composition series of the Kraus family could be certified; "
            "the tilted curve's kinks cannot be located"
        )

    def radius(block: KrausModel, t: float) -> float:
        return spectral_radius(_shifted_map(block, t * direction)[1])

    def top(t: float) -> int:
        return int(np.argmax([radius(block, t) for block in blocks]))

    def log_slope(block: KrausModel, t: float) -> float:
        h = 1e-5
        return (log_lambda(block, (t + h) * direction)
                - log_lambda(block, (t - h) * direction)) / (2 * h)

    def open_cell(lo: float, hi: float) -> bool:
        return hi - lo > 1e-13 * max(1.0, abs(lo), abs(hi))

    def crossings(t0: float, i: int, t1: float, j: int) -> list[KinkRecord]:
        """The kinks between grid-ordered ends t0 (top block i) and t1 (top j)."""
        lo, hi, a, b = (t0, t1, i, j) if t0 < t1 else (t1, t0, j, i)
        wide = open_cell(lo, hi)
        while open_cell(lo, hi):
            mid = (lo + hi) / 2
            if radius(blocks[a], mid) >= radius(blocks[b], mid):
                lo = mid
            else:
                hi = mid
        u0 = float((lo + hi) / 2)
        c = top(u0) if len(blocks) > 2 else a
        if wide and c not in (a, b):
            return crossings(t0, i, u0, c) + crossings(u0, c, t1, j)
        with np.errstate(over="ignore"):
            log_lam0 = log_lambda(blocks[a], u0 * direction)
            lam0, inv_lam0 = float(np.exp(log_lam0)), float(np.exp(-log_lam0))
        left, right = log_slope(blocks[a], u0), log_slope(blocks[b], u0)
        if right - left <= _KINK_JUMP_TOL * max(inv_lam0, abs(left), abs(right)):
            return []
        sl, sr = lam0 * left, lam0 * right
        return [KinkRecord(
            u=u0,
            lambda_slope_left=sl,
            lambda_slope_right=sr,
            log_slope_left=left,
            log_slope_right=right,
            slope_jump=sr - sl if lam0 < np.inf else np.inf,
        )]

    tops = [top(t) for t in ts]
    kinks: list[KinkRecord] = []
    for k in range(len(ts) - 1):
        if tops[k] != tops[k + 1]:
            kinks += crossings(ts[k], tops[k], ts[k + 1], tops[k + 1])
    return kinks


def lambda_curve(model: KrausModel, parameters, direction=None) -> LambdaCurve:
    """Evaluate u -> lambda_u along ``t * direction`` and locate kinks.

    The grid's rescaled maps (rescaled so large tilts cannot overflow) are
    built as one stack and go through one stacked Perron extraction: one
    ``eig``, one projection ``eigh`` and two left solves for the whole grid,
    in chunks of a fixed size.  Each point gets exactly the triple, or the
    error, that :func:`perron` gives on its map alone, and the points are
    read in grid order, so the first failing point raises.

    Kinks are looked for only when the Kraus operators do not generate the
    full matrix algebra: tilting rescales each operator by a positive
    scalar, so with a full algebra every tilted map is irreducible, its
    spectral radius is a simple eigenvalue, and lambda_u is real-analytic
    with no kink to find.

    Otherwise the same argument applies block by block.  The invariant
    subspaces of the operators do not depend on the tilt, so in a basis
    adapted to a composition series of the family every tilted map is block
    triangular, and lambda_u is the largest of the irreducible diagonal
    blocks' radii, each real-analytic.  A kink is therefore a point where one
    block overtakes another: each grid cell whose ends have different top
    blocks is bisected to the crossing of those two blocks (and split there
    when a third block is on top), and the kink is reported with each
    block's own slope there (see :func:`_block_crossings`).
    The one blind spot is a double crossing inside a single grid cell, where
    another block rises to the top and falls back between grid points.  A
    family whose composition series cannot be certified raises
    :class:`SpectralIndeterminateError`.

    At a grid point on a crossing two block roots can meet in a Jordan
    block, where no Perron pair exists: there a reducible model takes the
    map's spectral radius and lists the point as degenerate.  A lambda_u
    beyond the largest double is reported as infinite.
    """
    n = model.internal_dim
    reducible = _operator_closure(model).dimension != n * n
    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)

    lams = np.empty(len(ts))
    logs = np.empty(len(ts))
    degenerate: list[float] = []
    shifts, stack = _shifted_maps(model, ts[:, None] * direction)
    for i, (t, data) in enumerate(zip(ts, _perron_rows(stack, n))):
        if isinstance(data, SpectralData):
            radius, tied = data.lambda_u, data.degenerate
        elif reducible and isinstance(data, SpectralIndeterminateError):
            radius, tied = spectral_radius(Superoperator(stack[i], n)), True
        else:
            raise data
        logs[i] = float(shifts[i]) + float(np.log(radius))
        with np.errstate(over="ignore"):
            lams[i] = float(np.exp(logs[i]))
        if tied:
            degenerate.append(float(t))

    kinks = _block_crossings(model, ts, direction) if reducible and len(ts) >= 2 else []
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


def _newton_max(c, derivatives, x: float, a: float, u: float,
                b: float) -> tuple[float, float]:
    """Solve c'(u) = x by Newton from u, safeguarded inside [a, b].

    A step that leaves the bracket is replaced by bisection; the bracket
    shrinks by the sign of c' - x, which orders points because c is convex.
    Where ``derivatives`` declines (a linear block, a degenerate or
    uncertified Perron triple), the concave objective u x - c(u) is compared
    at u +- h, h = 1e-3 (b - a), and cannot peak beyond the lower side, kink
    or not.  Stops at |c' - x| <= 1e-12 max(1, |x|) or a bracket closed to
    1e-13 relative, with (u, u x - c(u)); raises after 100 steps.
    """
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(100):
        if b - a <= 1e-13 * max(1.0, abs(a), abs(b)):
            u = (a + b) / 2
            return u, u * x - c(u)
        point = derivatives(u)
        if point is None:
            h = 1e-3 * (b - a)
            rising = (u + h) * x - c(u + h) > (u - h) * x - c(u - h)
            a, b = (max(a, u - h), b) if rising else (a, min(b, u + h))
            u = (a + b) / 2
            continue
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
    raise ConvergenceError(f"Legendre maximizer for x = {x} did not converge in 100 steps")


def _legendre_point(c, x: float, u_lo: float, u_hi: float, points: int,
                    derivatives, kinks: tuple[KinkRecord, ...]) -> tuple[float, float]:
    """sup_u (u x - c(u)) by grid bracketing, window growth and refinement.

    Once the grid puts the maximum at an interior point, the maximizer lies
    between its two neighbours.  A kink there whose one-sided log slopes
    straddle x is the maximizer itself; otherwise :func:`_newton_max`
    refines inside that bracket.
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
            for kink in kinks:
                if a < kink.u < b and kink.log_slope_left <= x <= kink.log_slope_right:
                    return float(kink.u * x - c(kink.u)), float(kink.u)
            u_star, val = _newton_max(c, derivatives, x, a, us[i], b)
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
    the window grows outward while a maximum sits at its edge.  Between the
    grid neighbours the maximizer is a kink whose one-sided slopes straddle
    x, or Newton steps on ``(log lambda)'(u) = x`` with the Perron triple of
    the top irreducible block (the whole map if irreducible) refine it, with
    bisection on the objective where that triple declines (see
    :func:`_legendre_point`).  At an extreme step x the supremum is the
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
    curve = lambda_curve(model, np.linspace(u_min, u_max, points))
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

    # c is the largest of the curves of the irreducible blocks (lambda_curve
    # has certified them), each analytic: Newton uses the top block's triple.
    blocks = _irreducible_blocks(model) if upper_only else (model,)

    @functools.cache
    def derivatives(u: float):
        top = blocks[0] if len(blocks) == 1 else max(
            blocks, key=lambda b: spectral_radius(_shifted_map(b, np.array([u]))[1]))
        return _log_lambda_derivatives(top, u)

    values = np.empty(len(xs))
    maximizers = np.empty(len(xs))
    steps = model.steps_array[:, 0]
    for j, x in enumerate(xs):
        if steps.min() < x < steps.max():
            val, u_star = _legendre_point(c, float(x), u_min, u_max, points,
                                          derivatives, curve.kinks)
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
        pd = period(model)
        if pd.period == 1:
            rho = invariant_state(model)
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
