"""Structural analysis of the auxiliary map and of the full lattice walk.

Covers irreducibility of the auxiliary map (two independent routes that must
agree), its cyclic period with resolution projections, regularity, the
recurrent/decaying splitting of the internal space, the three-way taxonomy of
two-level models by their common invariant rays, irreducibility of the lattice
walk itself via the spans of return words, and the dedicated two-level lattice
classifier (reducible / period 2 / period 4).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

from .errors import (
    AssumptionError,
    ConvergenceError,
    SpectralIndeterminateError,
)
from .model import KrausModel, validate_model
from .numerics import EigenSystem, eigendecompose, frob, unvec, vec
from .superop import Superoperator, build_superop

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
    "C2MClassification",
    "c2_m_classifier",
]

# Relative tolerance for "this candidate adds a new direction" during
# Gram-Schmidt growth of operator spans.
_SPAN_TOL = 1e-9


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
        if norm0 <= _SPAN_TOL:
            return False
        # Two rounds of projection: classical Gram-Schmidt done twice is
        # numerically equivalent to the modified variant.
        basis = self.basis
        for _ in range(2):
            v = v - (basis @ v.conj()).conj() @ basis
        norm1 = np.linalg.norm(v)
        if norm1 <= _SPAN_TOL * norm0:
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
    gens = [g for g in gens if frob(g) > _SPAN_TOL]
    span = _OperatorSpan(n, gens)

    rounds = 0
    changed = True
    while changed:
        if rounds > n * n + 1:
            raise ConvergenceError("operator-span growth failed to stabilize")
        changed = False
        current = span.matrices()
        for g in gens:
            for product in g @ current:
                if span.add(product):
                    changed = True
        rounds += 1
        if len(span) == n * n:
            break
    return AlgebraClosure(dimension=len(span), basis=span.matrices().copy())


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

    superop: Superoperator
    eigensystem: EigenSystem
    fixed: np.ndarray
    min_eigenvalue: float | None
    state: np.ndarray | None


def _fixed_point_data(model: KrausModel) -> _FixedPoints:
    """The one home of the untilted map's eigendecomposition; the irreducibility
    routes, the period and the recurrent split all read it."""
    superop = build_superop(model)
    es = eigendecompose(superop.matrix)
    dist = np.abs(es.values - 1.0)
    fixed = np.flatnonzero(dist <= 1e-8)
    ambiguous = np.flatnonzero((dist > 1e-8) & (dist < 1e-7))
    if ambiguous.size:
        raise SpectralIndeterminateError(
            "eigenvalues sit inside the fixed-point decision band (1e-8, 1e-7); "
            "cannot count fixed points reliably"
        )
    if fixed.size == 0:
        raise SpectralIndeterminateError(
            "trace-preserving map shows no eigenvalue 1; spectrum unusable"
        )
    if fixed.size > 1:
        return _FixedPoints(superop, es, fixed, None, None)
    n = superop.dim
    a = unvec(es.vectors[:, fixed[0]], n)
    h = (a + a.conj().T) / 2
    if frob(h) <= 1e-12:
        raise SpectralIndeterminateError("fixed point has no Hermitian part")
    h = h / np.trace(h).real if abs(np.trace(h).real) > 1e-12 else h
    if np.trace(h).real < 0:
        h = -h
    eigs = np.linalg.eigvalsh(h)
    return _FixedPoints(superop, es, fixed, float(eigs.min()), h)


def is_irreducible_L(model: KrausModel) -> IrreducibilityReport:
    """Is the auxiliary map irreducible?  Two routes, cross-checked.

    Route one: the operators generate the full matrix algebra exactly when no
    common invariant subspace exists.  Route two: a unique fixed point whose
    representative is faithful (strictly positive).  The routes must agree;
    a mismatch raises rather than guessing.
    """
    return _irreducibility(model, _fixed_point_data(model))


def _irreducibility(model: KrausModel, fp: _FixedPoints) -> IrreducibilityReport:
    """:func:`is_irreducible_L` on the fixed points of the untilted map."""
    closure = algebra_closure(model.operators)
    n = model.internal_dim
    route_a = closure.dimension == n * n

    count, min_eig = int(fp.fixed.size), fp.min_eigenvalue
    if count == 1 and min_eig is not None and abs(min_eig - 1e-8) < 1e-9:
        raise SpectralIndeterminateError(
            f"fixed-point minimum eigenvalue {min_eig:.3e} sits on the "
            "faithfulness threshold"
        )
    route_b = count == 1 and min_eig is not None and min_eig > 1e-8

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


def period(model: KrausModel) -> PeriodData:
    """Cyclic period of the (irreducible) auxiliary map, with projections.

    The period equals the number of peripheral eigenvalues; these must form the
    full set of d-th roots of unity or the spectrum is rejected.  Projections
    are synthesized from a peripheral eigenvector of the adjoint map, cleaned
    to exact orthogonal projections, ordered to satisfy the shift relation, and
    labeled so that projection 0 maximizes the diagonal lexicographically.
    """
    return _checked_period(model, _fixed_point_data(model))


def _checked_period(model: KrausModel, fp: _FixedPoints) -> PeriodData:
    """:func:`period` on the fixed points of the untilted map."""
    if not _irreducibility(model, fp).irreducible:
        raise AssumptionError("period is defined for irreducible maps only")
    return _period_of_irreducible(model, fp)


def _period_of_irreducible(model: KrausModel, fp: _FixedPoints) -> PeriodData:
    """:func:`period` for a map the caller has already found irreducible."""
    n = model.internal_dim
    es = fp.eigensystem
    mods = np.abs(es.values)
    if mods[0] > 1 + 1e-8:
        raise SpectralIndeterminateError(
            f"trace-preserving map has spectral radius {mods[0]:.12f} > 1"
        )
    peripheral = np.flatnonzero(mods >= 1 - 1e-8)
    d = int(peripheral.size)
    for j in range(d):
        root = np.exp(2j * np.pi * j / d)
        hits = np.abs(es.values[peripheral] - root) <= 1e-8
        if int(hits.sum()) != 1:
            raise SpectralIndeterminateError(
                f"peripheral spectrum is not the set of {d}-th roots of unity"
            )
    if d == 1:
        return PeriodData(1, (np.eye(n, dtype=complex),), 0.0)

    # Unitary-like eigenvector of the adjoint at the primitive root.
    es_adj = eigendecompose(fp.superop.matrix.conj().T)
    root = np.exp(2j * np.pi / d)
    idx = int(np.argmin(np.abs(es_adj.values - root)))
    if abs(es_adj.values[idx] - root) > 1e-8:
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

    total = sum(projections)
    if frob(total - np.eye(n)) > 1e-8:
        raise SpectralIndeterminateError("cyclic projections do not resolve the identity")

    def relation_residual(projs: list[np.ndarray]) -> float:
        return max(frob(projs[j] @ op - op @ projs[j - 1]) / max(frob(op), 1e-30)
                   for op in model.operators for j in range(d))

    res = relation_residual(projections)
    if res > 1e-8:
        reversed_projs = [projections[(-j) % d] for j in range(d)]
        res_rev = relation_residual(reversed_projs)
        if res_rev <= 1e-8:
            projections, res = reversed_projs, res_rev
        else:
            raise SpectralIndeterminateError(
                f"cyclic shift relation fails both orientations "
                f"(residuals {res:.3e}, {res_rev:.3e})"
            )

    # Deterministic label rotation: projection 0 has the lexicographically
    # largest rounded real diagonal.
    keys = [tuple(np.round(np.diag(p).real, 12)) for p in projections]
    j_star = max(range(d), key=lambda j: keys[j])
    projections = [projections[(j + j_star) % d] for j in range(d)]
    res = relation_residual(projections)
    if res > 1e-8:
        raise SpectralIndeterminateError("label rotation broke the shift relation")
    for p in projections:
        if frob(p @ p - p) > 1e-8 or frob(p - p.conj().T) > 1e-8:
            raise SpectralIndeterminateError("synthesized projection is not orthogonal")
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
    matrices (minimum eigenvalue above 1e-8).
    """
    fp = _fixed_point_data(model)
    if not _irreducibility(model, fp).irreducible:
        return RegularityReport(regular=False, period=None, onset_estimate=None)
    return _regularity_of_irreducible(model, fp, _period_of_irreducible(model, fp))


def _regularity_of_irreducible(model: KrausModel, fp: _FixedPoints,
                               pd: PeriodData) -> RegularityReport:
    """:func:`is_regular` for an irreducible map whose period data is known."""
    if pd.period != 1:
        return RegularityReport(regular=False, period=pd.period, onset_estimate=None)

    n = model.internal_dim
    rng = np.random.default_rng(0xA11CE)
    probes = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    # Row k is vec(x_k x_k^dag) for probe x_k (column stacking).
    pure = (probes.conj()[:, :, None] * probes[:, None, :]).reshape(len(probes), n * n)
    power = np.eye(n * n, dtype=complex)
    onset: int | None = None
    for n_pow in range(1, 4 * n * n + 1):
        power = fp.superop.matrix @ power
        outs = (pure @ power.T).reshape(-1, n, n).transpose(0, 2, 1)
        outs = (outs + outs.conj().transpose(0, 2, 1)) / 2
        if np.linalg.eigvalsh(outs)[:, 0].min() > 1e-8:
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


_BN_RANK_TOL = 1e-9


def bn_decomposition(model: KrausModel) -> BNDecomposition:
    """Split the internal space into recurrent and decaying parts.

    The recurrent part is the support of E1(I/n), the exact Cesaro limit:
    E1 = R (L^dag R)^-1 L^dag projects onto the eigenvalue-1 eigenvectors R
    (picked as the fixed-point count picks them) along the rest of the
    spectrum, with L a basis of the adjoint's fixed space, vec(I) when the
    fixed point r is unique (then E1(I/n) = r / Tr r).  A transient counts
    as decaying however slowly it decays.
    """
    return _recurrent_split(model, _fixed_point_data(model))


def _recurrent_split(model: KrausModel, fp: _FixedPoints) -> BNDecomposition:
    """:func:`bn_decomposition` on the fixed points of the untilted map."""
    n = model.internal_dim
    limit = fp.state  # r / Tr r when the fixed point r is unique
    if limit is None:
        right = fp.eigensystem.vectors[:, fp.fixed]
        # L spans the adjoint's fixed space: the left null space of M - I.
        u = np.linalg.svd(fp.superop.matrix - np.eye(n * n))[0]
        left = u[:, -fp.fixed.size:].conj().T
        pairing = left @ right
        if np.linalg.svd(pairing, compute_uv=False)[-1] <= 1e-12:
            raise SpectralIndeterminateError(
                "fixed spaces of the map and its adjoint pair degenerately")
        limit = unvec(right @ np.linalg.solve(pairing, left @ vec(np.eye(n) / n)), n)
        limit = (limit + limit.conj().T) / 2

    vals, vecs = np.linalg.eigh(limit)
    keep = vecs[:, vals > _BN_RANK_TOL]
    p_r = keep @ keep.conj().T
    rank = keep.shape[1]

    # The recurrent part must be invariant under every Kraus operator.
    eye = np.eye(n)
    for op in model.operators:
        leak = frob((eye - p_r) @ op @ p_r) / max(frob(op), 1e-30)
        if leak > 1e-8:
            raise SpectralIndeterminateError(
                f"recurrent subspace leaks under a Kraus operator "
                f"(relative leakage {leak:.3e})"
            )
    return BNDecomposition(
        recurrent_dimension=rank,
        decaying_dimension=n - rank,
        recurrent_basis=_projector_basis(p_r, rank),
        decaying_basis=_projector_basis(eye - p_r, n - rank),
        limit_state=limit,
    )


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


def _is_common_ray(v: np.ndarray, operators, tol: float = 1e-9) -> bool:
    for op in operators:
        image = op @ v
        image = image - (v.conj() @ image) * v
        if np.linalg.norm(image) > tol * max(1.0, frob(op)):
            return False
    return True


def classify_c2(model: KrausModel) -> C2Classification:
    """Classify a two-level model by the common invariant rays of its operators."""
    if model.internal_dim != 2:
        raise AssumptionError("two-level classification needs internal dimension 2")
    report = validate_model(model)
    if not report.is_valid or not report.h1_holds or not report.h2_holds:
        raise AssumptionError(
            "two-level classification assumes a valid model whose operators "
            "jointly span and are not all scalar"
        )

    non_scalar = [
        op for op in model.operators
        if frob(op - (np.trace(op) / 2) * np.eye(2)) > 1e-10
    ]
    candidates = _ray_candidates(non_scalar[0])
    rays = [v for v in candidates if _is_common_ray(v, model.operators)]

    if not rays:
        return C2Classification(1, (), None, None, None, None)

    ops = model.operators
    if len(rays) == 1:
        e1 = rays[0]
        e2 = np.array([-np.conj(e1[1]), np.conj(e1[0])])
        basis = np.column_stack([e1, e2])
        alpha = np.array([e1.conj() @ op @ e1 for op in ops])
        gamma = np.array([e1.conj() @ op @ e2 for op in ops])
        beta = np.array([e2.conj() @ op @ e2 for op in ops])
        lower = max(abs(e2.conj() @ op @ e1) for op in ops)
        checks = (
            lower,
            abs(np.sum(np.abs(alpha) ** 2) - 1.0),
            abs(np.sum(np.abs(beta) ** 2) + np.sum(np.abs(gamma) ** 2) - 1.0),
            abs(np.vdot(alpha, gamma)),
        )
        if max(checks) > 1e-8:
            raise AssumptionError(
                "triangular normal form violates its stochasticity identities; "
                f"worst deviation {max(checks):.3e}"
            )
        return C2Classification(2, (e1,), basis, alpha, beta, gamma)

    e1, e2 = rays[0], rays[1]
    if abs(np.vdot(e1, e2)) > 1e-8:
        raise AssumptionError(
            "two common rays are not orthogonal; inconsistent with a "
            "non-scalar stochastic family"
        )
    basis = np.column_stack([e1, e2])
    alpha = np.array([e1.conj() @ op @ e1 for op in ops])
    beta = np.array([e2.conj() @ op @ e2 for op in ops])
    off = max(
        max(abs(e1.conj() @ op @ e2), abs(e2.conj() @ op @ e1)) for op in ops
    )
    norm_checks = (
        off,
        abs(np.sum(np.abs(alpha) ** 2) - 1.0),
        abs(np.sum(np.abs(beta) ** 2) - 1.0),
    )
    if max(norm_checks) > 1e-8:
        raise AssumptionError(
            "diagonal normal form violates its stochasticity identities; "
            f"worst deviation {max(norm_checks):.3e}"
        )
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
    alone and reports ``("reducible", 0, 0, None)``.
    """

    verdict: str
    closure_dimension: int
    max_length_used: int
    witness: np.ndarray | None


def _det(rows) -> int:
    """Exact determinant of a square integer matrix, by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def _steps_generate_lattice(steps, d: int) -> bool:
    """Do the integer steps generate Z^d as a semigroup?  Exact arithmetic.

    They do when their cone is all of R^d, so the semigroup is a group, and
    that group has index one: no hyperplane through d - 1 of the steps has
    every step on one side, and the d x d minors have gcd 1.  For each set
    ``sub`` of d - 1 independent steps, the cofactor normal ``m`` has
    ``s . m = det([s, *sub])``: one product gives both a minor and the side
    of ``s``.  The work is C(K, d - 1) normals of K products each.
    """
    g = 0
    for sub in combinations(steps, d - 1):
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub]) for j in range(d)]
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(s, normal)) for s in steps]
        if min(sides) >= 0 or max(sides) <= 0:
            return False
        g = gcd(g, *sides)
    return g == 1


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

    * return span reaches full dimension: irreducible (early exit);
    * its dimension stalls for three consecutive lengths below full: search
      for a proper subspace invariant under it; if certified, reducible with
      the subspace's canonical basis as witness, otherwise inconclusive;
    * lengths exhausted without stall or fill: inconclusive.
    """
    n, d = model.internal_dim, model.lattice_dim
    if max_length is None:
        max_length = 2 * n * n + 2
    live = [(s, op) for s, op in zip(model.displacements, model.operators) if op.any()]
    steps = [s for s, _ in live]
    if not _steps_generate_lattice(steps, d):
        return MIrreducibility("reducible", 0, 0, None)
    lo = [min(0, *c) for c in zip(*steps)]
    hi = [max(0, *c) for c in zip(*steps)]
    zero = (0,) * d
    spans = {zero: _OperatorSpan(n, [np.eye(n)])}
    span = _OperatorSpan(n)
    dims: list[int] = []
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
        if zero in spans:
            for b in spans[zero].matrices():
                span.add(b)
        if len(span):  # close the return span multiplicatively
            span = _OperatorSpan(n, algebra_closure(span.matrices()).basis)
        dims.append(len(span))
        if len(span) == n * n:
            return MIrreducibility("irreducible", n * n, length_used, None)
        if len(span) and dims[-3:] == [len(span)] * 3:
            break

    if not len(span):
        return MIrreducibility("inconclusive", 0, length_used, None)
    witness = _search_common_invariant_subspace(span.matrices(), n)
    verdict = "inconclusive" if witness is None else "reducible"
    return MIrreducibility(verdict, len(span), length_used, witness)


def _search_common_invariant_subspace(basis_mats: np.ndarray,
                                      n: int) -> np.ndarray | None:
    """Look for a proper subspace invariant under a closed span of matrices.

    Generic elements of the span have eigenvectors generating minimal
    invariant subspaces; any proper one found is validated against every
    basis matrix (invariance is linear, so that covers the whole span) and
    reported by its canonical basis.
    """
    rng = np.random.default_rng(0xBEEF)
    eye = np.eye(n)
    for _ in range(4):
        coeffs = rng.normal(size=len(basis_mats)) + 1j * rng.normal(size=len(basis_mats))
        generic = sum(c * b for c, b in zip(coeffs, basis_mats))
        _, vecs = np.linalg.eig(generic)
        for j in range(n):
            sub = _minimal_invariant_subspace(vecs[:, j], basis_mats, n)
            if 0 < sub.shape[1] < n:
                p = sub @ sub.conj().T
                if all(frob((eye - p) @ b @ p) <= 1e-9 for b in basis_mats):
                    return _projector_basis(p, sub.shape[1])
    return None


def _irreducible_blocks(model: KrausModel) -> tuple[KrausModel, ...] | None:
    """The nonzero diagonal blocks of a composition series of the Kraus family.

    A subspace V invariant under every L_s, with W spanning its orthogonal
    complement, puts the family in block upper triangular form; the
    compressions V^dag L_s V and W^dag L_s W are split the same way until
    each family generates its full matrix algebra.  Each nonzero block comes
    back as a model on the original displacements, so a tilt weights its
    terms as it weights the whole family's.  None when a search cannot
    certify a split.
    """
    n = model.internal_dim
    blocks = []
    pending = [np.eye(n, dtype=complex)]  # isometries onto the pieces
    while pending:
        q = pending.pop()
        m = q.shape[1]
        ops = q.conj().T @ model.operators @ q
        closure = algebra_closure(ops)
        if closure.dimension == 0:
            continue
        if closure.dimension < m * m:
            sub = _search_common_invariant_subspace(closure.basis, m)
            if sub is None:
                return None
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
        blocks.append(block)
    return tuple(blocks)


# --------------------------------------------------------------------------
# Two-level lattice walks on steps {+1, -1}: reducible / period 2 / period 4.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class C2MClassification:
    """Lattice-walk classification of a nearest-neighbour two-level model.

    When the walk is irreducible its period is 2 or 4; period 4 happens
    exactly when some orthonormal basis makes one operator diagonal and the
    other antidiagonal (``basis`` records it).
    """

    m_irreducible: bool
    m_period: int | None
    reducible_reason: str | None
    basis: np.ndarray | None


def _ray_member(v: np.ndarray, ray: np.ndarray, scale: float) -> bool:
    """Is v in the line spanned by unit vector ray (zero counts as inside)?"""
    residual = v - (ray.conj() @ v) * ray
    return np.linalg.norm(residual) <= 1e-9 * max(1.0, scale)


def c2_m_classifier(model: KrausModel) -> C2MClassification:
    """Classify the lattice walk of a two-level nearest-neighbour model.

    Works from the common eigenvector rays of the two round-trip products
    ``L_+ L_-`` and ``L_- L_+``:

    * the walk is reducible iff such a common ray is an eigenvector of one of
      the operators themselves, or the two rays form a swap pair (each operator
      sends one ray into the other);
    * otherwise the walk is irreducible and its period divides 4; period 4
      holds exactly when one operator is normal with an orthonormal eigenbasis
      whose rays the other operator swaps with nonzero amplitudes.
    """
    if model.internal_dim != 2:
        raise AssumptionError("this classifier needs internal dimension 2")
    if model.lattice_dim != 1 or set(model.displacements) != {(1,), (-1,)}:
        raise AssumptionError(
            "this classifier needs one-dimensional steps {+1, -1}"
        )
    ops = dict(zip(model.displacements, model.operators))
    lp, lm = ops[(1,)], ops[(-1,)]
    m1, m2 = lp @ lm, lm @ lp

    def rays_or_all(m: np.ndarray):
        if frob(m - (np.trace(m) / 2) * np.eye(2)) <= 1e-10 * max(1.0, frob(m)):
            return "all"
        return _ray_candidates(m)

    r1, r2 = rays_or_all(m1), rays_or_all(m2)
    if r1 == "all" and r2 == "all":
        # Every ray is common; in particular every eigenvector of lp is.
        return C2MClassification(False, None, "common-eigenvector", None)
    if r1 == "all":
        common = r2
    elif r2 == "all":
        common = r1
    else:
        common = [
            v for v in r1
            if any(min(np.linalg.norm(v - w), np.linalg.norm(v + w)) <= 1e-8
                   for w in r2)
        ]

    for v in common:
        for op in (lp, lm):
            if _ray_member(op @ v, v, frob(op)):
                return C2MClassification(False, None, "common-eigenvector", None)
    if len(common) == 2:
        e0, e1 = common
        swap = all(
            _ray_member(op @ e0, e1, frob(op)) and _ray_member(op @ e1, e0, frob(op))
            for op in (lp, lm)
        )
        if swap:
            return C2MClassification(False, None, "swap-pair", None)

    # Irreducible; decide period 4 vs 2.
    for a, b in ((lp, lm), (lm, lp)):
        rays = _ray_candidates(a)
        if len(rays) != 2:
            continue
        v1, v2 = rays
        if abs(np.vdot(v1, v2)) > 1e-9:
            continue
        diag_b = max(abs(v1.conj() @ b @ v1), abs(v2.conj() @ b @ v2))
        cross = min(abs(v1.conj() @ b @ v2), abs(v2.conj() @ b @ v1))
        diag_a = min(abs(v1.conj() @ a @ v1), abs(v2.conj() @ a @ v2))
        if diag_b <= 1e-9 and cross > 1e-9 and diag_a > 1e-9:
            basis = np.column_stack([v1, v2])
            return C2MClassification(True, 4, None, basis)
    return C2MClassification(True, 2, None, None)
