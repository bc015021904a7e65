"""Asymptotic statistics of a lattice walk: drift, diffusion, tilted spectra.

The central objects are the invariant state of the auxiliary map, the drift
vector, the CLT covariance (computed by two genuinely different routes that
must agree), the tilted-eigenvalue curve u -> lambda_u with kink detection,
and the large-deviation rate function obtained as a Legendre transform of
log lambda_u.  A walk without a unique invariant state gets the mixture of
its recurrent blocks' statistics, weighted by where the initial state is
absorbed.
"""
from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from .config import DERIVED_POSITIVITY_TOL, STOCHASTICITY_TOL
from .errors import (
    AssumptionError,
    ConvergenceError,
    MultiplicityError,
    PositivityError,
    SingularRestrictionError,
    SpectralIndeterminateError,
)
from .model import KrausModel, LatticeState, default_initial_state
from .numerics import (
    project_to_state,
    psd_check,
    solve_on_traceless,
    unvec,
    vec,
)
from .structure import _cesaro_limit, _fixed_point_data, _irreducible_blocks
from .superop import (
    SpectralData,
    _PERRON_ERRORS,
    _perron_rows,
    _radius_tie,
    _refuse_zero_radius,
    _shifted_map,
    _shifted_maps,
    build_superop,
    derivative_maps,
    spectral_radius,
    weighted_superop,
)

__all__ = [
    "invariant_state",
    "drift",
    "covariance",
    "AsymptoticStats",
    "asymptotic_stats",
    "log_lambda",
    "KinkRecord",
    "LambdaCurve",
    "lambda_curve",
    "RateFunctionTable",
    "rate_function",
    "BlockMixture",
    "block_mixture",
]


def invariant_state(model: KrausModel) -> np.ndarray:
    """The invariant state of the auxiliary map; must be unique.

    Raises :class:`MultiplicityError` when the fixed space has dimension
    greater than one; :func:`block_mixture` then gives the walk's statistics.
    """
    fp = _fixed_point_data(model)
    if fp.state is None:
        raise MultiplicityError(
            f"invariant state is not unique (fixed-point count {fp.fixed.size}); "
            "the walk's statistics are a mixture of its recurrent blocks'"
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
    report = psd_check(c.astype(complex), DERIVED_POSITIVITY_TOL)
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
    differences of log lambda_u at h = 1e-5 / max |s_i| over the steps, so
    that the tilt h * s stays small on walks with long steps.
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
        defect = (eta - build_superop(model).apply(eta)) - (d1_rho[i] - lam1[i] * rho)
        eta_residual = max(eta_residual, float(np.linalg.norm(defect)))

    h = 1e-5 / max(1, *(abs(c) for s in model.displacements for c in s))
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


def _triple_derivatives(model: KrausModel, u: float, shift: float, matrix: np.ndarray,
                        data: SpectralData) -> tuple[float, float, float] | None:
    """``(c, c', c'')`` at ``u`` for ``c = log lambda`` on a 1-D walk, from the
    Perron triple ``data`` of the shifted map ``matrix`` (shift ``shift``).

    With ``r = vec(rho_u)``, ``l = vec(m_u)`` and ``M'``, ``M''`` the maps
    that weight each Kraus term by ``s`` and ``s^2``, Hellmann-Feynman gives
    ``c' = l^dag M' r / lambda``, and ``c'' = (l^dag M'' r + 2 l^dag M' x) /
    lambda - c'^2``, where ``x`` solves the bordered system ``(lambda I - M +
    r l^dag) x = (M' - c' lambda) r`` (the derivative of r with l^dag x = 0).
    The shift rescales M, M' and M'' alike, so it drops out of c' and c''.

    Returns None wherever these formulas cannot be trusted: the triple is
    degenerate or within 1e-6 of another eigenvalue, the bordered system is
    singular, or ``c''`` is not finite and positive.
    """
    if data.degenerate or data.separation < 1e-6:
        return None
    steps = model.steps_array[:, 0]
    lam, rho, m = data.lambda_u, data.rho_u, data.m_u
    ops = model.operators
    ops_dag = ops.conj().transpose(0, 2, 1)
    d1 = steps * np.exp(steps * u - shift)  # Kraus weights of M'
    sandwiches = ops @ rho @ ops_dag
    paired = np.einsum("ij,sji->s", m, sandwiches).real  # Tr(m L_s rho L_s^dag)
    c1 = float(d1 @ paired) / lam
    rhs = np.einsum("s,sij->ij", d1, sandwiches) - c1 * lam * rho
    bordered = lam * np.eye(rho.size) - matrix + np.outer(vec(rho), vec(m).conj())
    try:
        x = unvec(np.linalg.solve(bordered, vec(rhs)), rho.shape[0])
    except np.linalg.LinAlgError:
        return None
    paired_x = np.einsum("ij,sji->s", m, ops @ x @ ops_dag).real
    c2 = float((steps * d1) @ paired + 2 * d1 @ paired_x) / lam - c1**2
    if not (np.isfinite(c2) and c2 > 0):
        return None
    return shift + float(np.log(lam)), c1, c2


#: What a Perron extraction may raise where the Newton formulas just decline.
_DECLINED = (SpectralIndeterminateError, PositivityError)


#: Blocks of a walk with their isometries, as :func:`_irreducible_blocks` gives them.
Blocks = tuple[tuple[KrausModel, np.ndarray], ...]


def _top_block(blocks: Blocks, u: np.ndarray) -> tuple[int, float, bool]:
    """``(top, log lambda_u, tied)`` at ``u``: each block's shifted map shares
    the whole map's shift, so ``top`` indexes the largest block radius r (the
    first of equal ones), log lambda_u is the shift plus log r, and ``tied``
    says the next largest radius ties r (:func:`_radius_tie`, as in
    :func:`perron`).
    """
    shifted = [_shifted_map(b, u) for b, _ in blocks]
    radii = [spectral_radius(m) for _, m in shifted]
    top = int(np.argmax(radii))
    r = radii[top]
    _refuse_zero_radius(r)
    tied = len(radii) > 1 and bool(_radius_tie(r - sorted(radii)[-2], r))
    return top, shifted[top][0] + float(np.log(r)), tied


def log_lambda(model: KrausModel, u) -> float:
    """log of the leading tilted eigenvalue, stable for large tilts: the
    largest of the walk's irreducible blocks' values, as in
    :func:`lambda_curve`."""
    return _top_block(_irreducible_blocks(model),
                      np.atleast_1d(np.asarray(u, dtype=float)))[1]


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


def _closed(a: float, b: float) -> bool:
    """Is the bracket [a, b] closed to 1e-13 relative?  A NaN one is, so a
    bisection on it stops."""
    return not b - a > 1e-13 * max(1.0, abs(a), abs(b))


def _convex(values: np.ndarray) -> bool:
    """Are equally spaced samples convex to rounding, no second difference
    below -1e-8 max(1, max |values|)?  Fewer than three samples, or NaN, pass."""
    second = values[2:] - 2 * values[1:-1] + values[:-2]
    return not (second.size
                and np.min(second) < -1e-8 * max(1.0, float(np.max(np.abs(values)))))


def _block_crossings(blocks: Blocks, ts: np.ndarray, direction: np.ndarray,
                     tops: list[int]) -> list[KinkRecord]:
    """The kinks of a reducible curve: where its top irreducible block changes.

    ``tops[k]`` is the top block at grid point ``ts[k]`` (see
    :func:`_top_block`).  In every grid cell whose two ends have
    different top blocks a and b, bisection on "radius of a >= radius of b"
    closes in on their crossing to 1e-13 relative.  If a third block is on
    top there, the top went a -> c -> b inside the cell, and each half of the
    cell is searched again.  The one-sided log slopes are central differences
    (step 1e-5) of the two blocks' own curves.  A crossing is dropped (equal
    block curves, a tangency) when its log slopes jump by at most 1e-3 of
    max(1 / lambda, |left|, |right|): the lambda-slope gate divided by
    lambda, which stays finite where lambda overflows.
    """
    def log_lam(block: tuple[KrausModel, np.ndarray], t: float) -> float:
        return _top_block((block,), t * direction)[1]

    def log_slope(block: tuple[KrausModel, np.ndarray], t: float) -> float:
        return (log_lam(block, t + 1e-5) - log_lam(block, t - 1e-5)) / 2e-5

    def crossings(t0: float, i: int, t1: float, j: int) -> list[KinkRecord]:
        """The kinks between grid-ordered ends t0 (top block i) and t1 (top j)."""
        lo, hi, a, b = (t0, t1, i, j) if t0 < t1 else (t1, t0, j, i)
        wide = not _closed(lo, hi)
        while not _closed(lo, hi):
            mid = (lo + hi) / 2
            if _top_block((blocks[a], blocks[b]), mid * direction)[0] == 0:
                lo = mid
            else:
                hi = mid
        u0 = float((lo + hi) / 2)
        c = _top_block(blocks, u0 * direction)[0] if len(blocks) > 2 else a
        if wide and c not in (a, b):
            return crossings(t0, i, u0, c) + crossings(u0, c, t1, j)
        with np.errstate(over="ignore"):
            log_lam0 = log_lam(blocks[a], u0)
            lam0, inv_lam0 = float(np.exp(log_lam0)), float(np.exp(-log_lam0))
        left, right = log_slope(blocks[a], u0), log_slope(blocks[b], u0)
        if right - left <= 1e-3 * max(inv_lam0, abs(left), abs(right)):
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

    kinks: list[KinkRecord] = []
    for k in range(len(ts) - 1):
        if tops[k] != tops[k + 1]:
            kinks += crossings(ts[k], tops[k], ts[k + 1], tops[k + 1])
    return kinks


def lambda_curve(model: KrausModel, parameters, direction=None) -> LambdaCurve:
    """Evaluate u -> lambda_u along ``t * direction`` and locate kinks.

    Each grid point is :func:`log_lambda` at ``t * direction``, bit for bit:
    the largest spectral radius of the walk's irreducible blocks (see
    :func:`_irreducible_blocks`), each block's tilted map rescaled so large
    tilts cannot overflow, and degenerate where a second block ties it (see
    :func:`_top_block`).  No Perron pair is read, so none is solved.

    The invariant subspaces of the operators do not depend on the tilt, and
    tilting rescales each operator by a positive scalar, so in a basis
    adapted to a composition series of the family every tilted map is block
    triangular with irreducible diagonal blocks, each block's radius is a
    simple eigenvalue, real-analytic in u, and lambda_u is the largest of
    them; a walk whose operators generate the full matrix algebra is its own
    one block.  The whole map of a reducible walk is never solved, so no
    basis makes its zeros matter.  A kink is a point where one block
    overtakes another, found by bisecting each grid cell whose ends have
    different top blocks (see :func:`_block_crossings`); the one blind spot
    is a double crossing inside one cell.  A family whose composition series
    cannot be certified raises :class:`SpectralIndeterminateError`.  A
    lambda_u beyond the largest double is reported as infinite.
    """
    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)

    blocks = _irreducible_blocks(model)
    points = [_top_block(blocks, t * direction) for t in ts]
    logs = np.array([log for _, log, _ in points], dtype=float)
    with np.errstate(over="ignore"):
        lams = np.array([float(np.exp(log)) for log in logs], dtype=float)
    return LambdaCurve(
        parameters=ts,
        lambda_values=lams,
        log_lambda_values=logs,
        kinks=tuple(_block_crossings(blocks, ts, direction, [p[0] for p in points])),
        degenerate_parameters=tuple(float(t) for t, (_, _, tied) in zip(ts, points) if tied),
    )


@dataclass(frozen=True)
class RateFunctionTable:
    """Legendre transform values I(x) = sup_u (u x - log lambda_u).

    ``upper_bound_only`` is set when the auxiliary map is reducible (its curve
    comes from certified blocks): the transform then certifies only an upper
    bound on exponential decay.
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

#: A Newton run of :func:`_newton_max`: it yields tilts, is sent the
#: ``(c, c', c'')`` triple (or None) at each, and returns ``(value, maximizer)``.
NewtonRun = Generator[float, tuple[float, float, float] | None, tuple[float, float]]


def _newton_max(c, x: float, a: float, u: float, b: float) -> NewtonRun:
    """Solve c'(u) = x by Newton from u, safeguarded inside [a, b].

    A generator: it yields each tilt where it needs ``(c, c', c'')`` and is
    sent that triple back, so that a caller can run many of them in lockstep
    and serve each round's tilts together.  A step that leaves the bracket is
    replaced by bisection; the bracket shrinks by the sign of c' - x, which
    orders points because c is convex.  Where the triple is None (a linear
    block, a degenerate or uncertified Perron triple), the concave objective
    u x - c(u) is compared at u +- h, h = 1e-3 (b - a), and cannot peak
    beyond the lower side, kink or not.  Stops at |c' - x| <= 1e-12
    max(1, |x|) or a bracket closed to 1e-13 relative, and returns
    ``(u x - c(u), u)``; raises after 100 steps.
    """
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(100):
        if _closed(a, b):
            u = (a + b) / 2
            return float(u * x - c(u)), float(u)
        point = yield u
        if point is None:
            h = 1e-3 * (b - a)
            rising = (u + h) * x - c(u + h) > (u - h) * x - c(u - h)
            a, b = (max(a, u - h), b) if rising else (a, min(b, u + h))
            u = (a + b) / 2
            continue
        value, slope, curvature = point
        miss = slope - x
        if abs(miss) <= tol:
            return float(u * x - value), float(u)
        if miss < 0:
            a = u
        else:
            b = u
        u_next = u - miss / curvature
        u = u_next if a < u_next < b else (a + b) / 2
    raise ConvergenceError(f"Legendre maximizer for x = {x} did not converge in 100 steps")


def _legendre_point(c, x: float, u_lo: float, u_hi: float, points: int,
                    kinks: tuple[KinkRecord, ...]) -> tuple[float, float] | NewtonRun:
    """sup_u (u x - c(u)) by grid bracketing and window growth, as the finished
    ``(value, maximizer)`` or the Newton run that refines it.

    Once the grid puts the maximum at an interior point, the maximizer lies
    between its two neighbours.  A kink there whose one-sided log slopes
    straddle x is the maximizer itself; otherwise the unstarted
    :func:`_newton_max` run inside that bracket is returned.  A flat
    objective and a value beyond the cap (infinite) come back finished.
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
            return _newton_max(c, x, a, us[i], b)
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

    ``log lambda_u`` (on a reducible map the largest of its irreducible
    blocks' values, as in :func:`lambda_curve`) is sampled on ``points``
    tilts in ``[u_min, u_max]``, and the window grows outward while a maximum
    sits at its edge.  Between the grid neighbours the maximizer is a kink
    whose one-sided slopes straddle x, or Newton steps on ``(log lambda)'(u)
    = x`` with the Perron triple of the top block (the whole map if
    irreducible) refine it, with bisection on the objective where that
    triple declines (see :func:`_legendre_point`).  At an extreme step x the
    supremum is the u -> +-inf limit ``-log rho(Phi_x)``, with ``Phi_x`` the
    map of the Kraus terms of step x alone, and beyond the steps it is
    infinite; the maximizer there is reported as +-inf.

    The Newton runs of all velocities go in lockstep, one step each per
    round.  Every tilt takes one route: a stack of shifted maps, one Perron
    extraction of the stack (:func:`_perron_rows`), then the derivative
    formulas row by row.  Only the stacks differ: on an irreducible map a
    round's tilts share one, and on a reducible map each tilt is a stack of
    one on its top block, which the extraction answers through
    :func:`perron`.  The window grid takes radii only, as the curve does, so
    a Perron triple is solved only where Newton reads it.  Every row has the
    bits of a lone extraction, so each velocity gets the value it gets
    alone.  Where velocities fail, the table raises the error of the first.
    """
    if model.lattice_dim != 1:
        raise AssumptionError(
            "rate-function evaluation is implemented for one-dimensional walks"
        )
    xs = np.asarray(positions, dtype=float)
    curve = lambda_curve(model, np.linspace(u_min, u_max, points))
    u_grid = curve.parameters
    log_grid = curve.log_lambda_values

    cache: dict[float, float] = {float(u): float(v) for u, v in zip(u_grid, log_grid)}

    def c(u: float) -> float:
        if u not in cache:
            cache[u] = log_lambda(model, u)
        return cache[u]

    if abs(c(0.0)) > 1e-10:
        raise ConvergenceError(
            f"log lambda at u = 0 is {c(0.0):.3e}, not 0; map is not "
            "trace preserving to tolerance"
        )

    # c is a limit of convex functions.
    if not _convex(log_grid):
        raise ConvergenceError(
            "log lambda_u sampled on the window is not convex; tilted "
            "spectral data is unreliable here"
        )

    blocks = _irreducible_blocks(model)
    reducible = blocks[0][0] is not model
    # What each tilt sends to a Newton run: its triple, None, or its error.
    derivatives: dict[float, tuple[float, float, float] | None | Exception] = {}

    def serve(tilts: list[float]) -> None:
        groups = [(model, tilts)]  # a one-block walk's round is one stack
        if reducible:
            # On a reducible map c is the largest of the irreducible blocks'
            # curves, each analytic: Newton uses the top block's triple.  Each
            # tilt is a stack of one, which goes through perron and so keeps
            # the benchmark's superop.perron.calls above 0 on its spectral
            # workload; stacking the tilts by top block changes only this.
            groups = []
            for u in tilts:
                try:
                    groups.append((blocks[_top_block(blocks, np.array([u]))[0]][0], [u]))
                except _PERRON_ERRORS as exc:
                    derivatives[u] = exc
        for block, group in groups:
            shifts, stack = _shifted_maps(block, np.array(group)[:, None])
            for u, shift, matrix, row in zip(group, shifts.tolist(), stack,
                                             _perron_rows(stack, block.internal_dim)):
                if isinstance(row, _DECLINED):
                    derivatives[u] = None
                elif isinstance(row, Exception):
                    derivatives[u] = row
                else:
                    derivatives[u] = _triple_derivatives(block, u, shift, matrix, row)

    # Each velocity's (value, maximizer) or error, and the Newton runs
    # still going with the tilt each waits on.  An error waits here, so that
    # the table raises the error of its first failing velocity, as one
    # velocity after another would.
    outcomes: dict[int, tuple[float, float] | Exception] = {}
    runs: dict[int, tuple[NewtonRun, float]] = {}

    def resume(j: int, run: NewtonRun, point=None) -> None:
        try:
            runs[j] = run, run.send(point)
        except StopIteration as done:
            outcomes[j] = done.value
        except _PERRON_ERRORS as exc:
            outcomes[j] = exc

    steps = model.steps_array[:, 0]
    for j, x in enumerate(xs):
        try:
            if steps.min() < x < steps.max():
                found = _legendre_point(c, float(x), u_min, u_max, points, curve.kinks)
            else:  # u x - c(u) is monotone here
                edge = (spectral_radius(weighted_superop(model, steps == x))
                        if steps.min() <= x <= steps.max() else 0.0)
                found = (-float(np.log(edge)) if edge > 0 else float("inf"),
                         np.inf if x >= steps.max() else -np.inf)
        except _PERRON_ERRORS as exc:
            outcomes[j] = exc
            break  # the velocities after it cannot be the first to fail
        if isinstance(found, tuple):
            outcomes[j] = found
        else:
            resume(j, found)
    while runs:
        waiting = dict(runs)
        runs.clear()
        serve(list(dict.fromkeys(u for _, u in waiting.values() if u not in derivatives)))
        for j, (run, u) in waiting.items():
            if isinstance(derivatives[u], Exception):
                outcomes[j] = derivatives[u]
            else:
                resume(j, run, derivatives[u])

    values = np.empty(len(xs))
    maximizers = np.empty(len(xs))
    for j, x in enumerate(xs):
        if isinstance(outcomes[j], Exception):
            raise outcomes[j]
        val, u_star = outcomes[j]
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
    if len(set(np.round(np.diff(xs), 12))) == 1 and not _convex(values[finite]):
        raise ConvergenceError("rate-function values violate convexity")
    return RateFunctionTable(
        x_grid=xs,
        rate=values,
        maximizers=maximizers,
        finite=finite,
        upper_bound_only=reducible,
        u_grid=u_grid,
        log_lambda=log_grid,
        kinks=tuple(k.u for k in curve.kinks),
    )


# --------------------------------------------------------------------------
# Walks without a unique invariant state: a mixture of recurrent blocks.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockMixture:
    """Walk statistics of a reducible walk as a mixture of its recurrent blocks.

    ``weights[k]`` is the mass the initial state ends up with in the block
    whose :func:`asymptotic_stats` are ``blocks[k]``; ``mean`` and
    ``covariance`` are the weighted sums of the blocks' drifts and
    covariances.  ``covariance`` is None where the drifts differ, since the
    blocks then part at distinct velocities and no single Gaussian limit
    exists.
    """

    mean: np.ndarray
    covariance: np.ndarray | None
    weights: tuple[float, ...]
    blocks: tuple[AsymptoticStats, ...]


def block_mixture(model: KrausModel,
                  initial_state: LatticeState | None = None) -> BlockMixture:
    """Drift and covariance of a walk from the irreducible blocks of its
    Kraus family (Baumgartner-Narnhofer; Carbone-Pautrat).

    Given absorption in the irreducible block k, with isometry q_k onto its
    piece of the internal space, (X_P - P m_k) / sqrt(P) tends to N(0, C_k),
    where (m_k, C_k) are the block's own :func:`asymptotic_stats`; the
    decaying part adds only O(1).  The walk from the initial blocks summed
    over sites, rho_0, is absorbed in block k with weight Tr(q_k^dag E1(rho_0)
    q_k), E1 the Cesaro limit of the map's powers.  Blocks of weight at most
    1e-12 are dropped; a block with weight must be trace preserving to
    ``STOCHASTICITY_TOL`` (:class:`SpectralIndeterminateError` if not, as
    when a transient decays too slowly to be told from a fixed point), and
    drifts count as equal under ``np.allclose(..., atol=1e-12)``.
    """
    blocks = _irreducible_blocks(model)
    if initial_state is None:
        initial_state = default_initial_state(model)
    limit = _cesaro_limit(model, sum(initial_state.blocks.values()))
    weights, stats = [], []
    for block, q in blocks:
        weight = float(np.trace(q.conj().T @ limit @ q).real)
        if weight <= 1e-12:
            continue
        residual = block.stochasticity_residual()
        if not residual <= STOCHASTICITY_TOL:
            raise SpectralIndeterminateError(
                f"a recurrent block of weight {weight:.3e} is not trace preserving "
                f"(stochasticity residual {residual:.3e})"
            )
        weights.append(weight)
        stats.append(asymptotic_stats(block))
    mean = sum(w * s.mean for w, s in zip(weights, stats))
    cov = None
    if all(np.allclose(s.mean, stats[0].mean, atol=1e-12) for s in stats):
        cov = sum(w * s.covariance for w, s in zip(weights, stats))
    return BlockMixture(mean, cov, tuple(weights), tuple(stats))
