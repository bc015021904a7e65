"""Superoperator layer: the auxiliary map of a walk, its tilted relatives, and
Perron data extraction.

For a model with operators ``L_s`` the auxiliary map is
``rho -> sum_s L_s rho L_s^dag``; the tilted map attaches a weight
``exp(<u, s>)`` to each Kraus term, and is built rescaled by
``exp(-max_s <u, s>)`` so that large tilts cannot overflow.  Every map is a
weighted sum over the model's cached stack of Kraus-term products
(``KrausModel.product_stack``), so from one tilt to the next only the
weights change.  All of these maps are completely positive, so the leading
eigenvalue is a genuine spectral radius with (up to normalization) a PSD
eigenvector on either side; ``perron`` extracts that data with explicit
tolerance and degeneracy reporting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RESIDUAL_TOL
from .errors import AssumptionError, SpectralIndeterminateError
from .model import KrausModel, LatticeState, _kept
from .numerics import (
    EigenSystem,
    check_dense_side,
    eigendecompose,
    frob,
    project_to_state,
    unvec,
    vec,
)

__all__ = [
    "Superoperator",
    "build_superop",
    "weighted_superop",
    "derivative_maps",
    "apply_M",
    "SpectralData",
    "perron",
    "spectral_radius",
]


@dataclass(frozen=True)
class Superoperator:
    """A linear map on n x n matrices in column-stacking matrix form."""

    matrix: np.ndarray
    dim: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)

    def power_apply(self, rho: np.ndarray, p: int) -> np.ndarray:
        v = vec(rho)
        for _ in range(p):
            v = self.matrix @ v
        return unvec(v, self.dim)


def weighted_superop(model: KrausModel, weights: np.ndarray) -> Superoperator:
    """Superoperator of ``rho -> sum_s w_s L_s rho L_s^dag``.

    A weighted sum over the model's product stack, accumulated term by term
    in step order.
    """
    products = model.product_stack
    acc = np.zeros(products.shape[1:], dtype=complex)
    for w, product in zip(np.asarray(weights, dtype=float), products):
        acc += w * product
    return Superoperator(acc, model.internal_dim)


@_kept
def build_superop(model: KrausModel) -> Superoperator:
    """The untilted auxiliary map, built on first use and kept on the model.

    Its matrix is read-only: every later call returns the same object.
    """
    superop = weighted_superop(model, np.ones(model.n_steps))
    superop.matrix.setflags(write=False)
    return superop


def _shifted_map(model: KrausModel, u: np.ndarray) -> tuple[float, Superoperator]:
    """Tilted map rescaled so its weights lie in (0, 1] (overflow-free).

    Returns ``(shift, map)`` with ``shift = max_s <u, s>``; the tilted map is
    ``exp(shift)`` times the returned one.
    """
    phi = model.steps_array @ u
    shift = float(np.max(phi))
    return shift, weighted_superop(model, np.exp(phi - shift))


def derivative_maps(model: KrausModel, u) -> tuple[Superoperator, Superoperator]:
    """First and second derivative maps of ``t -> tilt(t*u)`` at t = 0.

    These weight each Kraus term by ``<u, s>`` respectively ``<u, s>^2``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (model.lattice_dim,):
        raise AssumptionError(
            f"direction shape {u.shape} does not match lattice dimension "
            f"{model.lattice_dim}"
        )
    phi = model.steps_array @ u
    return weighted_superop(model, phi), weighted_superop(model, phi**2)


def apply_M(model: KrausModel, state: LatticeState) -> LatticeState:
    """One step of the full lattice walk: mass at site i flows to i + s via L_s."""
    n = model.internal_dim
    out: dict[tuple[int, ...], np.ndarray] = {}
    for pos, block in state.blocks.items():
        for s, op in zip(model.displacements, model.operators):
            target = tuple(p + c for p, c in zip(pos, s))
            contrib = op @ block @ op.conj().T
            if target in out:
                out[target] = out[target] + contrib
            else:
                out[target] = contrib
    return LatticeState(out, check=False)


@dataclass(frozen=True)
class SpectralData:
    """Leading-eigenvalue data of a completely positive superoperator.

    * ``lambda_u``: the spectral radius (a real positive simple eigenvalue in
      the non-degenerate case).
    * ``rho_u``: right eigenvector as a trace-one density matrix.
    * ``m_u``: Hermitian left eigenvector, normalized so Tr(m_u rho_u) = 1.
    * ``degenerate``: another eigenvalue coincides with the radius itself
      (within 1e-9 relative).  Equal-modulus eigenvalues at a different phase
      (the periodic pattern) do *not* set this flag.
    * ``gap``: relative modulus gap to the next eigenvalue in sorted order;
      1.0 when there is no other eigenvalue.
    * ``residual``: relative eigen-residual of the returned rho_u.
    * ``separation``: distance from the root to the nearest other eigenvalue,
      relative to the radius; 1.0 when there is no other eigenvalue.  Unlike
      ``gap`` it stays large on a periodic map, whose root is still simple.
    """

    lambda_u: float
    rho_u: np.ndarray
    m_u: np.ndarray
    degenerate: bool
    gap: float
    residual: float
    separation: float = 1.0


def _hermitian_eigvec(eigensystem: EigenSystem, index: int, n: int) -> np.ndarray:
    """Extract a Hermitian representative from an eigenvector of a real-eigenvalue.

    The map preserves Hermiticity, so for a real simple eigenvalue the
    eigenvector is Hermitian up to a phase; in degenerate corners the Hermitian
    and anti-Hermitian parts are both eigenvectors and we keep the larger one.
    """
    a = unvec(eigensystem.vectors[:, index], n)
    h = (a + a.conj().T) / 2
    k = (a - a.conj().T) / 2j
    return h if frob(h) >= frob(k) else k


def spectral_radius(superoperator: Superoperator) -> float:
    """Just the spectral radius (cheapest query; used by curve scans)."""
    check_dense_side(superoperator.matrix.shape[0])
    values = np.linalg.eigvals(superoperator.matrix)
    return float(np.max(np.abs(values)))


def _left_perron_vector(adjoint: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Hermitian left Perron vector by inverse iteration on the adjoint.

    Two solves of ``(M^dag - lam (1 + 1e-13) I) w = b``, starting from
    ``b = vec(I)`` and normalising in between.  ``vec(I)`` pairs with the
    trace-one Perron state to 1, so it always has a component along the
    sought vector; each solve shrinks the others by about 1e-13 relative to
    it, and the second one leaves the vector accurate to rounding.
    """
    shifted = adjoint - lam * (1 + 1e-13) * np.eye(n * n)
    w = vec(np.eye(n, dtype=complex))
    try:
        for _ in range(2):
            w = np.linalg.solve(shifted, w)
            with np.errstate(invalid="ignore"):  # a NaN w fails the residual gate
                w = w / np.linalg.norm(w)
    except np.linalg.LinAlgError as exc:
        raise SpectralIndeterminateError(
            "adjoint spectrum misses the Perron root (shifted solve is singular)"
        ) from exc
    residual = np.linalg.norm(adjoint @ w - lam * w)
    scale = max(frob(adjoint), np.finfo(float).tiny)
    if not residual <= RESIDUAL_TOL * scale:
        raise SpectralIndeterminateError(
            f"adjoint spectrum misses the Perron root (left residual "
            f"{residual:.3e} exceeds {RESIDUAL_TOL:.1e} * ||M||)"
        )
    a = unvec(w, n)
    return (a + a.conj().T) / 2


def perron(superoperator: Superoperator) -> SpectralData:
    """Extract the Perron triple (radius, right state, left weight) of a CP map.

    One eigendecomposition of the map gives the radius, the right state and
    the spectral diagnostics; the left weight comes from two steps of inverse
    iteration on the adjoint, shifted just past the root, and is gated on its
    own eigen-residual.

    Raises :class:`SpectralIndeterminateError` when no real positive eigenvalue
    sits at the spectral radius (not a CP map, or hopeless noise), when either
    Perron vector misses its residual bound, or when the two pair to zero; and
    :class:`PositivityError` via state projection when the eigenvector has
    negative parts beyond 1e-8.
    """
    m = superoperator.matrix
    n = superoperator.dim
    es = eigendecompose(m)
    radius = float(np.max(np.abs(es.values)))
    if radius <= 0:
        raise SpectralIndeterminateError("zero spectral radius")
    # The peripheral eigenvalues may tie in modulus to rounding (e.g. a +/-
    # pair for a 2-periodic map), so the modulus sort alone cannot be trusted
    # to put the Perron root first: take the peripheral one of largest real
    # part and insist that it is the positive real point of the circle.
    tol_edge = 1e-9 * max(radius, 1.0)
    peripheral = np.flatnonzero(np.abs(es.values) >= radius - tol_edge)
    lead = int(peripheral[np.argmax(es.values[peripheral].real)])
    top = es.values[lead]
    if abs(top - radius) > tol_edge:
        raise SpectralIndeterminateError(
            f"no eigenvalue at the positive real point of the spectral "
            f"circle (closest {top}, radius {radius:.6e}); not a CP spectrum"
        )
    lam = float(top.real)
    others = np.delete(es.values, lead)
    degenerate = bool(np.any(np.abs(others - top) <= tol_edge))
    if others.size == 0:
        gap = separation = 1.0
    else:
        gap = float((radius - np.max(np.abs(others))) / radius)
        separation = float(np.min(np.abs(others - top)) / radius)

    rho = project_to_state(_hermitian_eigvec(es, lead, n), what="leading eigenvector")
    scale = max(frob(m), np.finfo(float).tiny)
    residual = frob(superoperator.apply(rho) - lam * rho) / scale
    if residual > RESIDUAL_TOL and not degenerate:
        raise SpectralIndeterminateError(
            f"leading eigenvector residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )

    w = _left_perron_vector(m.conj().T, lam, n)
    pairing = float(np.trace(w @ rho).real)
    if abs(pairing) <= 1e-12 * max(frob(w), np.finfo(float).tiny):
        raise SpectralIndeterminateError(
            "left/right Perron eigenvectors pair to zero (defective root)"
        )
    m_u = w / pairing
    return SpectralData(
        lambda_u=lam,
        rho_u=rho,
        m_u=m_u,
        degenerate=degenerate,
        gap=gap,
        residual=residual,
        separation=separation,
    )
