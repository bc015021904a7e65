"""Structural analysis of the auxiliary map and of the full lattice walk.

Covers irreducibility of the auxiliary map (two independent routes that must
agree), its cyclic period with resolution projections, regularity, the
recurrent/decaying splitting of the internal space, the three-way taxonomy of
two-level models by their common invariant rays, and irreducibility and period
of the lattice walk itself via the spans of return words.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .config import FAITHFUL_TOL, PROJECTION_TOL, RESIDUAL_TOL, SPAN_TOL, UNIT_CIRCLE_TOL
from .errors import (
    AssumptionError,
    SingularRestrictionError,
    SpectralIndeterminateError,
)
from .model import KrausModel, _kept, validate_model
from .numerics import EigenSystem, _hermitian_part, _nonscalar, eigendecompose, frob, unvec, vec
from .superop import build_superop

__all__ = [
    "AlgebraClosure",
    "algebra_closure",
    "IrreducibilityReport",
    "is_irreducible_L",
    "PeriodData",
    "period",
    "RegularityReport",
    "is_regular",
    "BNDecomposition",
    "bn_decomposition",
    "C2Classification",
    "classify_c2",
    "MIrreducibility",
    "is_irreducible_M",
]


class _OperatorSpan:
    """Incrementally grown orthonormal basis of a subspace of n x n matrices.

    The vec'd basis vectors are the first ``len(self)`` rows of one
    preallocated ``(n^2, n^2)`` array, so projecting a candidate onto the
    span is a single matrix-vector product.
    """

    def __init__(self, n: int, candidates=()):
        self.n = n
        self._rows = np.empty((n * n, n * n), dtype=complex)
        self._count = 0
        for candidate in candidates:
            self.add(candidate)

    def __len__(self) -> int:
        return self._count

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal vec'd basis, one vector per row."""
        return self._rows[:self._count]

    def add(self, candidate: np.ndarray) -> bool:
        """Try to adjoin a matrix; returns True if it enlarged the span."""
        if self._count == self.n * self.n:
            return False
        v = vec(candidate)
        norm0 = np.linalg.norm(v)
        if norm0 <= SPAN_TOL:
            return False
        # Two rounds of projection: classical Gram-Schmidt done twice is
        # numerically equivalent to the modified variant.
        basis = self.basis
        for _ in range(2):
            v = v - (basis @ v.conj()).conj() @ basis
        norm1 = np.linalg.norm(v)
        if norm1 <= SPAN_TOL * norm0:
            return False
        self._rows[self._count] = v / norm1
        self._count += 1
        return True

    def matrices(self) -> np.ndarray:
        """The basis as a ``(len(self), n, n)`` array of matrices."""
        n = self.n
        return self.basis.reshape(-1, n, n).transpose(0, 2, 1)


@dataclass(frozen=True)
class AlgebraClosure:
    """Span data for the smallest algebra containing a set of generators."""

    dimension: int
    basis: np.ndarray  # (dimension, n, n)


def algebra_closure(operators) -> AlgebraClosure:
    """Smallest multiplicatively closed span containing the given operators.

    Grows the span by repeatedly adjoining generator-times-basis products until
    a full sweep adds nothing; since products of spanning words remain words,
    stabilizing under left multiplication by the generators is enough.
    """
    gens = [np.asarray(g, dtype=complex) for g in operators]
    if not gens:
        raise ValueError("algebra_closure needs at least one generator")
    n = gens[0].shape[0]
    gens = [g for g in gens if frob(g) > SPAN_TOL]
    span = _close(_OperatorSpan(n, gens), gens)
    return AlgebraClosure(dimension=len(span), basis=span.matrices().copy())


def _close(span: _OperatorSpan, gens) -> _OperatorSpan:
    """Grow ``span`` in place, and return it, until left multiplication by
    each generator adds nothing; the generators must lie in the span.  Each
    round but the last adds a dimension, so there are at most n^2 + 1."""
    n = span.n
    changed = True
    while changed and len(span) < n * n:
        changed = False
        current = span.matrices()
        for g in gens:
            for product in g @ current:
                if span.add(product):
                    changed = True
    return span


@_kept
def _operator_closure(model: KrausModel) -> AlgebraClosure:
    """The algebra generated by the model's operators, kept on the model."""
    return algebra_closure(model.operators)


@dataclass(frozen=True)
class IrreducibilityReport:
    """Agreement record for the two irreducibility routes of the auxiliary map."""

    irreducible: bool
    closure_dimension: int
    fixed_point_count: int
    min_fixed_eigenvalue: float | None


@dataclass(frozen=True)
class _FixedPoints:
    """The untilted map's one eigendecomposition, the indices of its eigenvalue-1
    columns and, if unique, the Hermitized trace-one fixed point."""

    eigensystem: EigenSystem
    fixed: np.ndarray
    min_eigenvalue: float | None
    state: np.ndarray | None


@_kept
def _fixed_point_data(model: KrausModel) -> _FixedPoints:
    """The one home of the untilted map's eigendecomposition, computed on first
    use and kept on the model; the irreducibility routes, the period, the
    recurrent split and the invariant state all read it.  The kept state is
    read-only.  The fixed pairs are read here and nowhere else certified, so
    they are gated here, on their residual against ``RESIDUAL_TOL * ||A||``."""
    a = build_superop(model).matrix
    es = eigendecompose(a)
    dist = np.abs(es.values - 1.0)
    fixed = np.flatnonzero(dist <= UNIT_CIRCLE_TOL)
    ambiguous = np.flatnonzero((dist > UNIT_CIRCLE_TOL) & (dist < 1e-7))
    if ambiguous.size:
        raise SpectralIndeterminateError(
            "eigenvalues sit inside the fixed-point decision band (1e-8, 1e-7); "
            "cannot count fixed points reliably"
        )
    if fixed.size == 0:
        raise SpectralIndeterminateError(
            "trace-preserving map shows no eigenvalue 1; spectrum unusable"
        )
    v = es.vectors[:, fixed]
    residual = np.linalg.norm(a @ v - v * es.values[fixed], axis=0).max()
    bound = RESIDUAL_TOL * max(frob(a), np.finfo(float).tiny)
    if not residual <= bound:  # a NaN residual fails too
        raise SingularRestrictionError(f"eigendecomposition residual {residual:.3e} "
                                       f"exceeds {RESIDUAL_TOL:.1e} * ||A|| = {bound:.3e}")
    if fixed.size > 1:
        return _FixedPoints(es, fixed, None, None)
    h = _hermitian_part(unvec(es.vectors[:, fixed[0]], model.internal_dim))
    h = h / np.trace(h).real if abs(np.trace(h).real) > 1e-12 else h
    if np.trace(h).real < 0:
        h = -h
    eigs = np.linalg.eigvalsh(h)
    h.setflags(write=False)
    return _FixedPoints(es, fixed, float(eigs.min()), h)


def is_irreducible_L(model: KrausModel) -> IrreducibilityReport:
    """Is the auxiliary map irreducible?  Two routes, cross-checked.

    Route one: the operators generate the full matrix algebra exactly when no
    common invariant subspace exists.  Route two: a unique fixed point whose
    representative is faithful (strictly positive).  The routes must agree;
    a mismatch raises rather than guessing.
    """
    fp = _fixed_point_data(model)
    closure = _operator_closure(model)
    n = model.internal_dim
    route_a = closure.dimension == n * n

    count, min_eig = int(fp.fixed.size), fp.min_eigenvalue
    if (count == 1 and min_eig is not None
            and abs(min_eig - FAITHFUL_TOL) < FAITHFUL_TOL / 10):
        raise SpectralIndeterminateError(
            f"fixed-point minimum eigenvalue {min_eig:.3e} sits on the "
            "faithfulness threshold"
        )
    route_b = count == 1 and min_eig is not None and min_eig > FAITHFUL_TOL

    if route_a != route_b:
        raise SpectralIndeterminateError(
            f"irreducibility routes disagree: operator-span dimension "
            f"{closure.dimension} (of {n * n}) vs fixed-point count {count} "
            f"with minimum eigenvalue {min_eig}"
        )
    return IrreducibilityReport(
        irreducible=route_a,
        closure_dimension=closure.dimension,
        fixed_point_count=count,
        min_fixed_eigenvalue=min_eig,
    )


@dataclass(frozen=True)
class PeriodData:
    """Cyclic period of an irreducible auxiliary map with its resolution.

    ``projections[j]`` are orthogonal projections summing to the identity with
    ``p_j L_s = L_s p_{j-1 mod d}`` for every Kraus operator; labels are fixed
    deterministically (see :func:`period`).
    """

    period: int
    projections: tuple[np.ndarray, ...]
    relation_residual: float


def _projection_cleanup(p_raw: np.ndarray) -> np.ndarray:
    """Snap an approximate projection to an exact orthogonal one."""
    h = (p_raw + p_raw.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
    keep = vals > 0.5
    if not keep.any():
        return np.zeros_like(h)
    v = vecs[:, keep]
    return v @ v.conj().T


def _peripheral_count(model: KrausModel) -> int:
    """The number d of peripheral eigenvalues of the untilted map, read from its
    kept eigendecomposition; they must form the full set of d-th roots of
    unity or the spectrum is rejected.  An eigenvalue beyond 1 +
    ``UNIT_CIRCLE_TOL`` is peripheral and near no root, so it is rejected too."""
    es = _fixed_point_data(model).eigensystem
    mods = np.abs(es.values)
    peripheral = np.flatnonzero(mods >= 1 - UNIT_CIRCLE_TOL)
    d = int(peripheral.size)
    for j in range(d):
        root = np.exp(2j * np.pi * j / d)
        hits = np.abs(es.values[peripheral] - root) <= UNIT_CIRCLE_TOL
        if int(hits.sum()) != 1:
            raise SpectralIndeterminateError(
                f"peripheral spectrum is not the set of {d}-th roots of unity"
            )
    return d


def period(model: KrausModel) -> PeriodData:
    """Cyclic period of the (irreducible) auxiliary map, with projections.

    The period equals the number of peripheral eigenvalues; these must form the
    full set of d-th roots of unity or the spectrum is rejected.  Projections
    are synthesized from a peripheral eigenvector of the adjoint map, cleaned
    to exact orthogonal projections (each V V^dag with V orthonormal, or
    zero), checked against the identity and the shift relation, and labeled
    so that projection 0 maximizes the diagonal lexicographically.
    """
    if not is_irreducible_L(model).irreducible:
        raise AssumptionError("period is defined for irreducible maps only")
    n = model.internal_dim
    d = _peripheral_count(model)
    if d == 1:
        return PeriodData(1, (np.eye(n, dtype=complex),), 0.0)

    # Unitary-like eigenvector of the adjoint at the primitive root.
    es_adj = eigendecompose(build_superop(model).matrix.conj().T)
    root = np.exp(2j * np.pi / d)
    idx = int(np.argmin(np.abs(es_adj.values - root)))
    if abs(es_adj.values[idx] - root) > UNIT_CIRCLE_TOL:
        raise SpectralIndeterminateError("adjoint spectrum misses the primitive root")
    z = unvec(es_adj.vectors[:, idx], n)
    zd = np.linalg.matrix_power(z, d)
    gamma = np.trace(zd) / n
    if abs(gamma) < 1e-10 or frob(zd - gamma * np.eye(n)) > 1e-6 * max(frob(zd), 1e-30):
        raise SpectralIndeterminateError(
            "peripheral eigenvector does not power up to a scalar; "
            "projection synthesis failed"
        )
    w = z / gamma ** (1.0 / d)

    powers = [np.eye(n, dtype=complex)]
    for _ in range(d - 1):
        powers.append(w @ powers[-1])
    projections = [
        _projection_cleanup(sum(np.exp(-2j * np.pi * j * m / d) * powers[m]
                                for m in range(d)) / d)
        for j in range(d)
    ]

    if frob(sum(projections) - np.eye(n)) > PROJECTION_TOL:
        raise SpectralIndeterminateError("cyclic projections do not resolve the identity")

    res = max(frob(projections[j] @ op - op @ projections[j - 1]) / max(frob(op), 1e-30)
              for op in model.operators for j in range(d))
    if res > PROJECTION_TOL:
        raise SpectralIndeterminateError(
            f"cyclic shift relation fails (residual {res:.3e})")

    # Deterministic label rotation: projection 0 has the lexicographically
    # largest rounded real diagonal.  It relabels the same (P_j, P_{j-1})
    # pairs, so the residual stands.
    keys = [tuple(np.round(np.diag(p).real, 12)) for p in projections]
    j_star = max(range(d), key=lambda j: keys[j])
    projections = [projections[(j + j_star) % d] for j in range(d)]
    return PeriodData(d, tuple(projections), res)


@dataclass(frozen=True)
class RegularityReport:
    """Regularity (irreducible and aperiodic) plus a positivity-onset probe."""

    regular: bool
    period: int | None
    onset_estimate: int | None


def is_regular(model: KrausModel) -> RegularityReport:
    """Regular means irreducible with period 1.

    For regular maps, also probes the smallest power N <= 4 n^2 at which the
    map sends 200 reproducibly-seeded random pure states to strictly positive
    matrices (minimum eigenvalue above ``FAITHFUL_TOL``).
    """
    if not is_irreducible_L(model).irreducible:
        return RegularityReport(regular=False, period=None, onset_estimate=None)
    d = _peripheral_count(model)
    if d != 1:
        return RegularityReport(regular=False, period=d, onset_estimate=None)

    n = model.internal_dim
    rng = np.random.default_rng(0xA11CE)
    probes = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    # Row k is vec(x_k x_k^dag) for probe x_k (column stacking).
    pure = (probes.conj()[:, :, None] * probes[:, None, :]).reshape(len(probes), n * n)
    matrix = build_superop(model).matrix
    power = np.eye(n * n, dtype=complex)
    onset: int | None = None
    for n_pow in range(1, 4 * n * n + 1):
        power = matrix @ power
        outs = (pure @ power.T).reshape(-1, n, n).transpose(0, 2, 1)
        outs = (outs + outs.conj().transpose(0, 2, 1)) / 2
        if np.linalg.eigvalsh(outs)[:, 0].min() > FAITHFUL_TOL:
            onset = n_pow
            break
    return RegularityReport(regular=True, period=1, onset_estimate=onset)


@dataclass(frozen=True)
class BNDecomposition:
    """Recurrent/decaying splitting of the internal space.

    ``recurrent_basis`` columns span the support of ``limit_state``, the
    Cesaro limit of the map's powers on I/n; ``decaying_basis`` columns span
    its orthocomplement.  Each basis is a function of its subspace alone.
    """

    recurrent_dimension: int
    decaying_dimension: int
    recurrent_basis: np.ndarray
    decaying_basis: np.ndarray
    limit_state: np.ndarray


def _cesaro_limit(model: KrausModel, rho: np.ndarray) -> np.ndarray:
    """E1(rho), the Cesaro limit of the map's powers on the state ``rho``.

    E1 = R (L^dag R)^-1 L^dag projects onto the eigenvalue-1 eigenvectors R
    (picked as the fixed-point count picks them) along the rest of the
    spectrum, with L a basis of the adjoint's fixed space, vec(I) when the
    fixed point r is unique (then E1(rho) = r / Tr r).
    """
    fp = _fixed_point_data(model)
    if fp.state is not None:
        return fp.state
    n = model.internal_dim
    right = fp.eigensystem.vectors[:, fp.fixed]
    # L spans the adjoint's fixed space: the left null space of M - I.
    u = np.linalg.svd(build_superop(model).matrix - np.eye(n * n))[0]
    left = u[:, -fp.fixed.size:].conj().T
    pairing = left @ right
    if np.linalg.svd(pairing, compute_uv=False)[-1] <= 1e-12:
        raise SpectralIndeterminateError(
            "fixed spaces of the map and its adjoint pair degenerately")
    limit = unvec(right @ np.linalg.solve(pairing, left @ vec(rho)), n)
    return (limit + limit.conj().T) / 2


def bn_decomposition(model: KrausModel) -> BNDecomposition:
    """Split the internal space into recurrent and decaying parts.

    The recurrent part is the support of the exact Cesaro limit E1(I/n) (see
    :func:`_cesaro_limit`).  A transient counts as decaying however slowly it
    decays.
    """
    n = model.internal_dim
    limit = _cesaro_limit(model, np.eye(n) / n)

    vals, vecs = np.linalg.eigh(limit)
    keep = vecs[:, vals > 1e-9]
    p_r = keep @ keep.conj().T
    rank = keep.shape[1]

    # The recurrent part must be invariant under every Kraus operator.
    leak = _leak(p_r, model.operators)
    if leak > PROJECTION_TOL:
        raise SpectralIndeterminateError(
            f"recurrent subspace leaks under a Kraus operator "
            f"(relative leakage {leak:.3e})"
        )
    return BNDecomposition(
        recurrent_dimension=rank,
        decaying_dimension=n - rank,
        recurrent_basis=_projector_basis(p_r, rank),
        decaying_basis=_projector_basis(np.eye(n) - p_r, n - rank),
        limit_state=limit,
    )


def _leak(p: np.ndarray, mats) -> float:
    """Largest relative leak ||(I - P) A P||_F / ||A||_F of the range of the
    projector ``p`` under the matrices ``mats`` (a zero matrix leaks nothing);
    the range counts as invariant when this is at most ``PROJECTION_TOL``."""
    q = np.eye(len(p)) - p
    return max(frob(q @ a @ p) / max(frob(a), 1e-30) for a in mats)


def _projector_basis(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of a projector, a function of ``p`` alone.

    Gram-Schmidt over the columns of ``p`` in order keeps each remainder of
    squared norm above 1/(2n), phased real positive at its column's row; the
    remainders sum to the rank left, so ``rank`` columns pass.  A zero or
    full-rank projector gives the (empty) identity exactly.
    """
    n = p.shape[0]
    if rank in (0, n):
        return np.eye(n, dtype=complex)[:, :rank]
    basis = np.zeros((n, 0), dtype=complex)
    for j in range(n):
        v = p[:, j] - basis @ (basis.conj().T @ p[:, j])
        v = v - basis @ (basis.conj().T @ v)  # reorthogonalize once
        if basis.shape[1] < rank and np.linalg.norm(v) ** 2 > 0.5 / n:
            basis = np.column_stack([basis, v * (abs(v[j]) / v[j]) / np.linalg.norm(v)])
    return basis


# --------------------------------------------------------------------------
# Two-level internal space: taxonomy by common invariant rays.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class C2Classification:
    """Taxonomy of a two-level model by common eigenvectors of its operators.

    * situation 1: no common eigenvector (auxiliary map irreducible).
    * situation 2: exactly one common ray; in a basis putting it first, every
      operator is upper triangular with diagonals ``alpha_s`` / ``beta_s`` and
      corner ``gamma_s``.
    * situation 3: two common rays (automatically orthogonal); operators are
      simultaneously diagonal with entries ``alpha_s`` / ``beta_s``.
    """

    situation: int
    rays: tuple[np.ndarray, ...]
    basis: np.ndarray | None
    alpha: np.ndarray | None
    beta: np.ndarray | None
    gamma: np.ndarray | None


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    return v / phase


def _ray_candidates(op: np.ndarray) -> list[np.ndarray]:
    _, vecs = np.linalg.eig(op)
    rays: list[np.ndarray] = []
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        v = _phase_fix(v / np.linalg.norm(v))
        if all(min(np.linalg.norm(v - r), np.linalg.norm(v + r)) > 1e-9 for r in rays):
            rays.append(v)
    return rays


def classify_c2(model: KrausModel) -> C2Classification:
    """Classify a two-level model by the common invariant rays of its operators.

    The operators are read in the basis of the common rays, a lone ray e1
    completed by its orthogonal partner e2.  The stochasticity identities of
    that normal form are not checked again: each ray leaks at most
    ``PROJECTION_TOL`` ||L_s||_F under L_s, so with delta_s = <e2, L_s e1>,
    sum |alpha|^2 = 1 and sum |beta|^2 + sum |gamma|^2 = 1 are off by squared
    leaks, and the corner identity sum conj(alpha) gamma = -sum conj(delta)
    beta holds to PROJECTION_TOL sqrt(sum ||L_s||_F^2) sqrt(sum |beta|^2) +
    residual <= sqrt(2) 1e-8 + 1e-10 on a valid model.
    """
    if model.internal_dim != 2:
        raise AssumptionError("two-level classification needs internal dimension 2")
    report = validate_model(model)
    if not report.is_valid or not report.h1_holds or not report.h2_holds:
        raise AssumptionError(
            "two-level classification assumes a valid model whose operators "
            "jointly span and are not all scalar"
        )

    candidates = _ray_candidates(next(op for op in model.operators if _nonscalar(op)))
    rays = [v for v in candidates
            if _leak(np.outer(v, v.conj()), model.operators) <= PROJECTION_TOL]

    if not rays:
        return C2Classification(1, (), None, None, None, None)
    if len(rays) > 1 and abs(np.vdot(rays[0], rays[1])) > 1e-8:
        raise AssumptionError(
            "two common rays are not orthogonal; inconsistent with a "
            "non-scalar stochastic family"
        )
    e1 = rays[0]
    e2 = rays[1] if len(rays) > 1 else np.array([-np.conj(e1[1]), np.conj(e1[0])])
    alpha, beta, gamma = (np.array([a.conj() @ op @ b for op in model.operators])
                          for a, b in ((e1, e1), (e2, e2), (e1, e2)))
    basis = np.column_stack([e1, e2])
    if len(rays) == 1:
        return C2Classification(2, (e1,), basis, alpha, beta, gamma)
    return C2Classification(3, (e1, e2), basis, alpha, beta, None)


# --------------------------------------------------------------------------
# Lattice-walk irreducibility via return-word spans.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MIrreducibility:
    """Verdict on irreducibility of the full lattice walk.

    ``verdict`` is one of ``"irreducible"``, ``"reducible"``,
    ``"inconclusive"``.  A reducible verdict from the span search carries a
    certified witness: the canonical orthonormal basis (a function of the
    subspace alone) of a proper subspace invariant under every return word.
    A walk whose steps cannot reach every site is reducible on geometry
    alone and reports ``("reducible", 0, 0, None)``.  ``period`` is the
    walk's period when it is irreducible (see :func:`is_irreducible_M`),
    else None.  ``return_span`` is the orthonormal basis of the nonzero
    closed return span behind a search that ends below full dimension, else
    None.
    """

    verdict: str
    closure_dimension: int
    max_length_used: int
    witness: np.ndarray | None
    period: int | None = None
    return_span: np.ndarray | None = None


def _det(rows) -> int:
    """Exact determinant of a square integer matrix, by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def _steps_generate_lattice(steps, d: int) -> bool:
    """Do the integer steps generate Z^d as a semigroup?  Exact arithmetic.

    They do when their cone is all of R^d, so the semigroup is a group, and
    that group has index one (:func:`_lattice_index`).  The cone is all of
    R^d when no hyperplane through d - 1 of the steps has every step on one
    side: for each set ``sub`` of d - 1 independent steps, the cofactor
    normal ``m`` has ``s . m = det([s, *sub])``, the side of ``s``.  The work
    is C(K, d - 1) normals of K products each.
    """
    for sub in combinations(steps, d - 1):
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub]) for j in range(d)]
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(s, normal)) for s in steps]
        if min(sides) >= 0 or max(sides) <= 0:
            return False
    return _lattice_index([list(s) for s in steps], d) == 1


def _minimal_invariant_subspace(seed: np.ndarray, mats: list[np.ndarray],
                                n: int) -> np.ndarray:
    """Smallest subspace containing ``seed`` invariant under all ``mats``."""
    basis = seed[:, None] / np.linalg.norm(seed)
    while basis.shape[1] < n:
        images = np.hstack([m @ basis for m in mats])
        stacked = np.hstack([basis, images])
        q, r = np.linalg.qr(stacked)
        keep = np.abs(np.diag(r)) > 1e-9 * max(1.0, np.abs(np.diag(r)).max())
        new_basis = q[:, keep]
        if new_basis.shape[1] == basis.shape[1]:
            return new_basis
        basis = new_basis
    return basis


def _lattice_index(rows: list[list[int]], d: int) -> int:
    """Index in Z^d of the lattice the integer ``rows`` (of length d) span, 0
    below full rank; the rows are reduced in place.

    Integer row reduction: Euclid down each column leaves one row with a
    nonzero entry there, the pivot; unimodular row steps keep the lattice,
    so its index is the product of the pivots.  No minor is formed.
    """
    index = 1
    for c in range(d):
        live = [r for r in rows if r[c]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not pivot:
                    q = r[c] // pivot[c]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[c]]
        if not live:
            return 0
        index *= abs(live[0][c])
        rows = [r for r in rows if r is not live[0]]
    return index


def _lattice_period(steps) -> int:
    """Index p of the lattice spanned by the differences s - s_0 of the steps,
    0 below full rank (see :func:`_lattice_index`).  A return word of length
    l taking step s n_s times has sum n_s (s - s_0) = -l s_0; steps that
    generate Z^d make s_0 generate the quotient, so p divides l."""
    return _lattice_index([[a - b for a, b in zip(s, steps[0])] for s in steps[1:]],
                          len(steps[0]))


def is_irreducible_M(model: KrausModel, max_length: int | None = None) -> MIrreducibility:
    """Probe lattice-walk irreducibility through the spans of return words.

    The walk is irreducible exactly when its steps reach every site and the
    return words (products of the ``L_s`` whose steps sum to zero) generate
    the full matrix algebra.  First, in exact integer arithmetic, the steps
    with nonzero operators must generate Z^d as a semigroup; otherwise the
    walk is confined to a sublattice or a half-space: reducible.

    Then, at each length up to ``max_length`` (default 2 n^2 + 2), one span
    per reached site x holds the span of that length's words from the origin
    to x: the span at x is the sum over s of L_s times the previous span at
    x - s.  A site that cannot return to the origin in the lengths left is
    dropped, which bounds the work without changing a verdict.  The origin's
    span joins the return span, closed multiplicatively after each length
    from the first return word on:

    * return span reaches full dimension: irreducible;
    * its dimension stalls for three consecutive lengths below full: search
      for a proper subspace invariant under it; if certified, reducible with
      the subspace's canonical basis as witness, otherwise inconclusive;
    * lengths exhausted without stall or fill: inconclusive.

    An irreducible walk's period is g, the gcd of the lengths at which the
    origin's span has an element of nonzero trace (|tr| > 1e-9 on its
    orthonormal basis).  Each such length is a multiple of the steps'
    lattice period p and of the auxiliary map's period d: a return word of
    length l maps each cyclic piece of the map to the piece l on, so its
    trace vanishes unless d divides l.  The scan goes on past the verdict until
    g = lcm(p, d), or to ``max_length``; d is read only when g differs from
    p at the verdict, and a refused peripheral spectrum leaves d unknown, so
    the scan runs to ``max_length``.  ``max_length_used`` is the length of
    the verdict.
    """
    n, d = model.internal_dim, model.lattice_dim
    if max_length is None:
        max_length = 2 * n * n + 2
    live = [(s, op) for s, op in zip(model.displacements, model.operators) if op.any()]
    steps = [s for s, _ in live]
    if not _steps_generate_lattice(steps, d):
        return MIrreducibility("reducible", 0, 0, None)
    p = _lattice_period(steps)
    lo = [min(0, *c) for c in zip(*steps)]
    hi = [max(0, *c) for c in zip(*steps)]
    zero = (0,) * d
    spans = {zero: _OperatorSpan(n, [np.eye(n)])}
    span = _OperatorSpan(n)
    dims: list[int] = []
    g, target, verdict_at = 0, None, 0
    length_used = 0
    for length_used in range(1, max_length + 1):
        left = max_length - length_used
        reached: dict[tuple[int, ...], list[np.ndarray]] = {}
        for site, words in spans.items():
            for s, op in live:
                x = tuple(a + b for a, b in zip(site, s))
                if all(l * left <= -c <= h * left for l, c, h in zip(lo, x, hi)):
                    reached.setdefault(x, []).extend(op @ words.matrices())
        spans = {x: _OperatorSpan(n, mats) for x, mats in reached.items()}
        origin = spans.get(zero)
        if origin is not None and (np.abs(origin.basis[:, ::n + 1].sum(axis=1)) > 1e-9).any():
            g = gcd(g, length_used)
        if not verdict_at:
            if origin is not None:
                for b in origin.matrices():
                    span.add(b)
            if not len(span):
                continue
            if len(_close(span, span.matrices().copy())) < n * n:
                dims.append(len(span))
                if dims[-3:] == [len(span)] * 3:
                    break
                continue
            verdict_at = length_used
        if g != p and target is None:
            try:
                target = lcm(p, _peripheral_count(model))
            except (SingularRestrictionError, SpectralIndeterminateError):
                target = -1  # d unknown: scan on to max_length
        if g in (p, target):
            break

    if verdict_at:
        return MIrreducibility("irreducible", n * n, verdict_at, None, g or None)
    if not len(span):
        return MIrreducibility("inconclusive", 0, length_used, None)
    witness = _search_common_invariant_subspace(span.matrices(), n)
    verdict = "inconclusive" if witness is None else "reducible"
    return MIrreducibility(verdict, len(span), length_used, witness,
                           return_span=span.matrices().copy())


def _two_level_reason(model: KrausModel, walk: MIrreducibility) -> str | None:
    """Why a reducible two-level walk is reducible, None for other verdicts.

    ``common-eigenvector`` when some ray invariant under every return word
    is an eigenvector of some L_s, ``swap-pair`` otherwise.  With n = 2 the
    eigenvector rays of a nonscalar L_s are its ``_ray_candidates``, and a
    scalar one has every ray, the witness among them.  Steps that miss a
    site leave one L_s zero and no return word: every ray qualifies.
    """
    if walk.verdict != "reducible":
        return None
    if walk.witness is None:
        return "common-eigenvector"
    for op in model.operators:
        for v in (walk.witness[:, 0], *_ray_candidates(op)):
            if _leak(np.outer(v, v.conj()), (op, *walk.return_span)) <= PROJECTION_TOL:
                return "common-eigenvector"
    return "swap-pair"


def _search_common_invariant_subspace(basis_mats: np.ndarray,
                                      n: int) -> np.ndarray | None:
    """Look for a proper subspace invariant under a closed span of matrices.

    Generic elements of the span have eigenvectors generating minimal
    invariant subspaces; any proper one found is validated against every
    basis matrix (invariance is linear, so that covers the whole span) and
    reported by its canonical basis.
    """
    rng = np.random.default_rng(0xBEEF)
    for _ in range(4):
        coeffs = rng.normal(size=len(basis_mats)) + 1j * rng.normal(size=len(basis_mats))
        generic = sum(c * b for c, b in zip(coeffs, basis_mats))
        _, vecs = np.linalg.eig(generic)
        for j in range(n):
            sub = _minimal_invariant_subspace(vecs[:, j], basis_mats, n)
            if 0 < sub.shape[1] < n:
                p = sub @ sub.conj().T
                if _leak(p, basis_mats) <= PROJECTION_TOL:
                    return _projector_basis(p, sub.shape[1])
    return None


@_kept
def _irreducible_blocks(model: KrausModel) -> tuple[tuple[KrausModel, np.ndarray], ...]:
    """The nonzero diagonal blocks of a composition series of the Kraus family,
    each with the isometry q onto its piece of the internal space; the model
    itself with the identity when its operators generate the full algebra.

    A subspace V invariant under every L_s, with W spanning its orthogonal
    complement, puts the family in block upper triangular form; the
    compressions V^dag L_s V and W^dag L_s W are split the same way until
    each family generates its full matrix algebra.  Each nonzero block comes
    back as the model of the operators q^dag L_s q on the original
    displacements, so a tilt weights its terms as it weights the whole
    family's.  :class:`SpectralIndeterminateError` when a search cannot
    certify a split.  Kept on the model; each block's product stack is
    read-only.
    """
    n = model.internal_dim
    whole = _operator_closure(model)
    if whole.dimension == n * n:
        return ((model, np.eye(n)),)
    blocks = []
    pending = [np.eye(n, dtype=complex)]  # isometries onto the pieces
    while pending:
        q = pending.pop()
        m = q.shape[1]
        ops = q.conj().T @ model.operators @ q
        closure = whole if m == n else algebra_closure(ops)
        if closure.dimension == 0:
            continue
        if closure.dimension < m * m:
            sub = _search_common_invariant_subspace(closure.basis, m)
            if sub is None:
                raise SpectralIndeterminateError(
                    "no composition series of the Kraus family could be certified; "
                    "the map cannot be taken block by block"
                )
            rest = _projector_basis(np.eye(m) - sub @ sub.conj().T, m - sub.shape[1])
            pending += [q @ rest, q @ sub]
            continue
        block = KrausModel(model.lattice_dim, m, model.displacements, ops)
        # P = kron(conj(q), q) maps vec(X) to vec(q X q^dag), so P^dag S_k P is
        # the block's k-th Kraus-term map: the block compresses the model's
        # cached products instead of forming its own.
        p = (q.conj()[:, None, :, None] * q[None, :, None, :]).reshape(n * n, m * m)
        stack = p.conj().T @ model.product_stack @ p
        stack.setflags(write=False)
        vars(block)["product_stack"] = stack
        blocks.append((block, q))
    return tuple(blocks)
