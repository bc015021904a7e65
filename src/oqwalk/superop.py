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
tolerance and degeneracy reporting.  A tilted curve reads only
``spectral_radius``.  The Perron triples are read only by a rate table's
Newton steps: each round builds a stack of its tilts' maps (``_shifted_maps``)
and extracts their triples with one stacked call per LAPACK stage
(``_perron_rows``), and a stack of one goes through ``perron``, the same code
on one map.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .config import RESIDUAL_TOL, UNIT_CIRCLE_TOL
from .errors import AssumptionError, OQWalkError, SpectralIndeterminateError
from .model import KrausModel, LatticeState, _kept
from .numerics import (
    _hermitian_part,
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


def _weighted_stack(model: KrausModel, weights: np.ndarray) -> np.ndarray:
    """The ``(T, n^2, n^2)`` stack of maps ``rho -> sum_s w_ts L_s rho L_s^dag``.

    Row ``t`` is the weighted sum of the model's product stack with the
    weights ``weights[t]``, accumulated term by term in step order.
    """
    products = model.product_stack
    acc = np.zeros((len(weights),) + products.shape[1:], dtype=complex)
    for w, product in zip(np.asarray(weights, dtype=float).T, products):
        acc += w[:, None, None] * product
    return acc


def weighted_superop(model: KrausModel, weights: np.ndarray) -> Superoperator:
    """Superoperator of ``rho -> sum_s w_s L_s rho L_s^dag``."""
    return Superoperator(_weighted_stack(model, np.asarray(weights, dtype=float)[None])[0],
                         model.internal_dim)


@_kept
def build_superop(model: KrausModel) -> Superoperator:
    """The untilted auxiliary map, built on first use and kept on the model.

    Its matrix is read-only: every later call returns the same object.
    """
    superop = weighted_superop(model, np.ones(model.n_steps))
    superop.matrix.setflags(write=False)
    return superop


def _shifted_maps(model: KrausModel, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tilted maps at the tilts ``us`` (rows), each rescaled so its weights lie
    in (0, 1] (overflow-free).

    Returns ``(shifts, stack)``: ``shifts[t] = max_s <us[t], s>``, and the
    tilted map at ``us[t]`` is ``exp(shifts[t])`` times ``stack[t]``.  An
    exponent that overflows is -inf, whose weight 0 is the exact limit.
    """
    phis = np.array([model.steps_array @ u for u in us]).reshape(len(us), model.n_steps)
    shifts = np.max(phis, axis=1)
    with np.errstate(over="ignore"):
        weights = np.exp(phis - shifts[:, None])
    return shifts, _weighted_stack(model, weights)


def _shifted_map(model: KrausModel, u: np.ndarray) -> tuple[float, Superoperator]:
    """:func:`_shifted_maps` at the one tilt ``u``, as ``(shift, map)``."""
    shifts, stack = _shifted_maps(model, np.asarray(u, dtype=float)[None])
    return float(shifts[0]), Superoperator(stack[0], model.internal_dim)


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
    """One step of the full lattice walk: mass at site i flows to i + s via L_s.

    All K x B sandwiches ``L_s rho_i L_s^dag`` come from one stacked product.
    Each target site takes its first term as is and adds the rest in (site,
    step) order, so blocks and their order are bit for bit those of adding
    the terms one at a time (a first term of -0.0 stays -0.0).
    """
    ops = model.operators
    terms = (ops[:, None] @ np.array(list(state.blocks.values()))[None]
             @ ops.conj().swapaxes(1, 2)[:, None])
    out: dict[tuple[int, ...], np.ndarray] = {}
    for i, pos in enumerate(state.blocks):
        for s, step in enumerate(model.displacements):
            target = tuple(map(add, pos, step))  # Python ints: exact at any size
            # In place is safe: a target's first term is its own slot of
            # ``terms``, read nowhere else.
            if target in out:
                out[target] += terms[s, i]
            else:
                out[target] = terms[s, i]
    return LatticeState(out, check=False)


@dataclass(frozen=True)
class SpectralData:
    """Leading-eigenvalue data of a completely positive superoperator.

    * ``lambda_u``: the spectral radius (a real positive simple eigenvalue in
      the non-degenerate case).
    * ``rho_u``: right eigenvector as a trace-one density matrix.
    * ``m_u``: Hermitian left eigenvector, normalized so Tr(m_u rho_u) = 1.
    * ``degenerate``: another eigenvalue ties the root (:func:`_radius_tie`:
      within 1e-9 max(r, 1), so absolute below r = 1).  Equal-modulus
      eigenvalues at a different phase (the periodic pattern) do *not* set
      this flag.
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


def spectral_radius(superoperator: Superoperator) -> float:
    """Just the spectral radius, from ``eigvals`` alone: the cheapest query,
    and all a tilted curve reads at each point."""
    check_dense_side(superoperator.matrix.shape[0])
    values = np.linalg.eigvals(superoperator.matrix)
    return float(np.max(np.abs(values)))


def _radius_tie(distance, radius):
    """Is ``distance`` from the spectral radius ``radius`` a tie, at most 1e-9
    max(radius, 1)?  Elementwise.  The one test of :func:`perron`'s root at
    the radius and of its degenerate root, and of a second block's radius on
    a tilted curve."""
    return distance <= 1e-9 * np.maximum(radius, 1.0)


def _refuse_zero_radius(*radii: float) -> None:
    """Refuse a zero spectral radius among ``radii``: no Perron root, no log."""
    if any(r <= 0 for r in radii):
        raise SpectralIndeterminateError("zero spectral radius")


def _left_perron_vectors(adjoints: np.ndarray, lams, n: int) -> np.ndarray:
    """Hermitian left Perron vectors by inverse iteration on a stack of adjoints.

    Two solves of ``(M^dag - lam (1 + 1e-13) I) w = b``, starting from
    ``b = vec(I)`` and normalising in between.  ``vec(I)`` pairs with the
    trace-one Perron state to 1, so it always has a component along the
    sought vector; each solve shrinks the others by about 1e-13 relative to
    it, and the second one leaves the vector accurate to rounding.  Each
    solve is one stacked call; the norms stay per matrix, so every row gets
    the bits it would get alone.
    """
    side = n * n
    shifted = adjoints - (np.array(lams) * (1 + 1e-13))[:, None, None] * np.eye(side)
    w = np.tile(vec(np.eye(n, dtype=complex)), (len(adjoints), 1))
    try:
        for _ in range(2):
            w = np.linalg.solve(shifted, w[:, :, None])[:, :, 0]
            norms = np.array([frob(x) for x in w])
            with np.errstate(invalid="ignore"):  # a NaN w fails the residual gate
                w = w / norms[:, None]
    except np.linalg.LinAlgError as exc:
        raise SpectralIndeterminateError(
            "adjoint spectrum misses the Perron root (shifted solve is singular)"
        ) from exc
    for adjoint, lam, x in zip(adjoints, lams, w):
        residual = frob(adjoint @ x - lam * x)
        scale = max(frob(adjoint), np.finfo(float).tiny)
        if not residual <= RESIDUAL_TOL * scale:
            raise SpectralIndeterminateError(
                f"adjoint spectrum misses the Perron root (left residual "
                f"{residual:.3e} exceeds {RESIDUAL_TOL:.1e} * ||M||)"
            )
    a = w.reshape(-1, n, n).swapaxes(1, 2)
    return (a + a.conj().swapaxes(1, 2)) / 2


#: Complex entries per stacked array in :func:`_perron_rows`: a stack is
#: solved in chunks of ``max(1, _STACK_ENTRIES // n^4)`` maps, 4 MiB per
#: array (64 maps at n = 8).  Rows are independent, so chunks move no bits.
_STACK_ENTRIES = 1 << 18

#: What a row of a chunk may raise, and what a rate table holds back per velocity.
_PERRON_ERRORS = (OQWalkError, np.linalg.LinAlgError)


def _perron_stack(stack: np.ndarray, n: int) -> list[SpectralData]:
    """Perron triples of a ``(T, n^2, n^2)`` stack of CP maps, row by row.

    Each LAPACK stage (``eig``, the projection's ``eigh``, the left solves)
    runs once on the whole stack; every reduction whose result reaches a
    triple runs per row.  The gates run in :func:`perron`'s order, each over
    all rows, and the first row to fail one raises its error.
    """
    es = eigendecompose(stack)
    rows = np.arange(len(stack))
    moduli = np.abs(es.values)
    radius = moduli.max(axis=1)
    _refuse_zero_radius(*radius.tolist())
    # The peripheral eigenvalues (``period``'s band, scaled by max(r, 1)) may
    # tie in modulus to rounding (e.g. a +/- pair for a 2-periodic map), so the
    # modulus sort alone cannot be trusted to put the Perron root first: take
    # the peripheral one of largest real part and insist that it ties r; no
    # eigenvalue the band adds beats such a root.
    peripheral = moduli >= (radius - UNIT_CIRCLE_TOL * np.maximum(radius, 1.0))[:, None]
    if not peripheral.any(axis=1).all():  # a radius of inf: inf - inf is NaN
        raise SpectralIndeterminateError(
            "spectral radius overflows; no eigenvalue lies on the spectral circle")
    lead = np.where(peripheral, es.values.real, -np.inf).argmax(axis=1)
    top = es.values[rows, lead]
    for t, r in zip(top, radius.tolist()):
        if not _radius_tie(abs(t - r), r):
            raise SpectralIndeterminateError(
                f"no eigenvalue at the positive real point of the spectral "
                f"circle (closest {t}, radius {r:.6e}); not a CP spectrum"
            )
    lams = top.real.tolist()
    distance = np.abs(es.values - top[:, None])
    distance[rows, lead] = np.inf
    degenerate = _radius_tie(distance, radius[:, None]).any(axis=1)
    if stack.shape[1] == 1:
        gap = separation = [1.0] * len(stack)
    else:
        moduli[rows, lead] = -np.inf
        gap = ((radius - moduli.max(axis=1)) / radius).tolist()
        separation = (distance.min(axis=1) / radius).tolist()

    a = es.vectors[rows, :, lead].reshape(-1, n, n).swapaxes(1, 2)
    rhos = project_to_state(_hermitian_part(a), what="leading eigenvector")
    tiny = np.finfo(float).tiny
    scales = [max(frob(m), tiny) for m in stack]
    residuals = []
    for m, rho, lam, scale, tied in zip(stack, rhos, lams, scales, degenerate.tolist()):
        residual = frob(unvec(m @ vec(rho), n) - lam * rho) / scale
        if residual > RESIDUAL_TOL and not tied:
            raise SpectralIndeterminateError(
                f"leading eigenvector residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        residuals.append(residual)

    ws = _left_perron_vectors(stack.conj().swapaxes(1, 2), lams, n)
    pairings = []
    for w, rho in zip(ws, rhos):
        pairing = float((w @ rho).trace().real)
        if abs(pairing) <= 1e-12 * max(frob(w), tiny):
            raise SpectralIndeterminateError(
                "left/right Perron eigenvectors pair to zero (defective root)"
            )
        pairings.append(pairing)
    return [SpectralData(lambda_u=lam, rho_u=rho, m_u=w / pairing, degenerate=tied, gap=g,
                         residual=r, separation=sep)
            for lam, rho, w, pairing, tied, g, r, sep in zip(
                lams, rhos, ws, pairings, degenerate.tolist(), gap, residuals, separation)]


def _perron_rows(stack: np.ndarray, n: int) -> list[SpectralData | Exception]:
    """What :func:`perron` returns or raises on each map of a stack, in order.

    The stack is solved in chunks of :data:`_STACK_ENTRIES` entries, and a
    stack of one is :func:`perron` itself.  When a chunk raises, whether at a
    gate or in a stacked LAPACK call, its rows are solved again one at a
    time, so that each row's entry is its own triple or error.
    """
    size = max(1, _STACK_ENTRIES // (stack.shape[1] * stack.shape[2]))
    if len(stack) > size:
        return [row for lo in range(0, len(stack), size)
                for row in _perron_rows(stack[lo:lo + size], n)]
    if len(stack) == 1:
        try:
            return [perron(Superoperator(stack[0], n))]
        except _PERRON_ERRORS as exc:
            return [exc]
    try:
        return _perron_stack(stack, n)
    except _PERRON_ERRORS:
        return [row for i in range(len(stack)) for row in _perron_rows(stack[i:i + 1], n)]


def perron(superoperator: Superoperator) -> SpectralData:
    """Extract the Perron triple (radius, right state, left weight) of a CP map.

    One eigendecomposition of the map gives the radius, the right state and
    the spectral diagnostics; the left weight comes from two steps of inverse
    iteration on the adjoint, shifted just past the root, and is gated on its
    own eigen-residual.  This is :func:`_perron_stack` on a stack of one, the
    same code a rate table's Newton round runs on all its tilts at once, and
    :func:`_perron_rows` answers every stack of one through it.

    Raises :class:`SpectralIndeterminateError` when no real positive eigenvalue
    sits at the spectral radius (not a CP map, or hopeless noise), when either
    Perron vector misses its residual bound, or when the two pair to zero; and
    :class:`PositivityError` via state projection when the eigenvector has
    negative parts beyond ``DERIVED_POSITIVITY_TOL``.
    """
    return _perron_stack(np.asarray(superoperator.matrix)[None], superoperator.dim)[0]
