"""Structural analysis of the auxiliary map and of the full lattice walk.

Covers irreducibility of the auxiliary map (two independent routes that must
agree), its cyclic period with resolution projections, regularity, the
recurrent/decaying splitting of the internal space, the three-way taxonomy of
two-level models by their common invariant rays, irreducibility of the lattice
walk itself via return-path words, and the dedicated two-level lattice
classifier (reducible / period 2 / period 4).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionError,
    ConvergenceError,
    PathBudgetError,
    SpectralIndeterminateError,
)
from .model import KrausModel, validate_model
from .numerics import eigendecompose, frob, unvec, vec
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

    def __init__(self, n: int):
        self.n = n
        self._rows = np.empty((n * n, n * n), dtype=complex)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal vec'd basis, one vector per row."""
        return self._rows[:self._count]

    def add(self, candidate: np.ndarray) -> bool:
        """Try to adjoin a matrix; returns True if it enlarged the span."""
        v = vec(candidate)
        norm0 = np.linalg.norm(v)
        if norm0 <= _SPAN_TOL or self._count == self.n * self.n:
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
    rounds: int


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
    span = _OperatorSpan(n)
    for g in gens:
        span.add(g)

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
    return AlgebraClosure(dimension=len(span), basis=span.matrices().copy(), rounds=rounds)


@dataclass(frozen=True)
class IrreducibilityReport:
    """Agreement record for the two irreducibility routes of the auxiliary map."""

    irreducible: bool
    closure_dimension: int
    fixed_point_count: int
    min_fixed_eigenvalue: float | None


def _fixed_point_data(superop: Superoperator) -> tuple[int, float | None, np.ndarray | None]:
    """Count eigenvalue-1 eigenvectors and, if unique, give its Hermitized state."""
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
        return int(fixed.size), None, None
    n = superop.dim
    a = unvec(es.vectors[:, fixed[0]], n)
    h = (a + a.conj().T) / 2
    if frob(h) <= 1e-12:
        raise SpectralIndeterminateError("fixed point has no Hermitian part")
    h = h / np.trace(h).real if abs(np.trace(h).real) > 1e-12 else h
    if np.trace(h).real < 0:
        h = -h
    eigs = np.linalg.eigvalsh(h)
    return 1, float(eigs.min()), h


def is_irreducible_L(model: KrausModel) -> IrreducibilityReport:
    """Is the auxiliary map irreducible?  Two routes, cross-checked.

    Route one: the operators generate the full matrix algebra exactly when no
    common invariant subspace exists.  Route two: a unique fixed point whose
    representative is faithful (strictly positive).  The routes must agree;
    a mismatch raises rather than guessing.
    """
    closure = algebra_closure(model.operators)
    n = model.internal_dim
    route_a = closure.dimension == n * n

    count, min_eig, _ = _fixed_point_data(build_superop(model))
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
    if not is_irreducible_L(model).irreducible:
        raise AssumptionError("period is defined for irreducible maps only")
    return _period_of_irreducible(model)


def _period_of_irreducible(model: KrausModel) -> PeriodData:
    """:func:`period` for a map the caller has already found irreducible."""
    n = model.internal_dim
    superop = build_superop(model)
    es = eigendecompose(superop.matrix)
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
    es_adj = eigendecompose(superop.matrix.conj().T)
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
    raw = []
    for j in range(d):
        acc = np.zeros((n, n), dtype=complex)
        for m_idx in range(d):
            acc += np.exp(-2j * np.pi * j * m_idx / d) * powers[m_idx]
        raw.append(acc / d)
    projections = [_projection_cleanup(p) for p in raw]

    total = sum(projections)
    if frob(total - np.eye(n)) > 1e-8:
        raise SpectralIndeterminateError("cyclic projections do not resolve the identity")

    def relation_residual(projs: list[np.ndarray]) -> float:
        worst = 0.0
        for s_idx, op in enumerate(model.operators):
            opn = max(frob(op), 1e-30)
            for j in range(d):
                r = frob(projs[j] @ op - op @ projs[(j - 1) % d]) / opn
                worst = max(worst, r)
        return worst

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
    if not is_irreducible_L(model).irreducible:
        return RegularityReport(regular=False, period=None, onset_estimate=None)
    return _regularity_of_irreducible(model, _period_of_irreducible(model))


def _regularity_of_irreducible(model: KrausModel, pd: PeriodData) -> RegularityReport:
    """:func:`is_regular` for an irreducible map whose period data is known."""
    if pd.period != 1:
        return RegularityReport(regular=False, period=pd.period, onset_estimate=None)

    n = model.internal_dim
    rng = np.random.default_rng(0xA11CE)
    probes = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    superop = build_superop(model)
    power = np.eye(n * n, dtype=complex)
    onset: int | None = None
    for n_pow in range(1, 4 * n * n + 1):
        power = superop.matrix @ power
        ok = True
        for x in probes:
            out = unvec(power @ vec(np.outer(x, x.conj())), n)
            out = (out + out.conj().T) / 2
            if np.linalg.eigvalsh(out).min() <= 1e-8:
                ok = False
                break
        if ok:
            onset = n_pow
            break
    return RegularityReport(regular=True, period=1, onset_estimate=onset)


@dataclass(frozen=True)
class BNDecomposition:
    """Recurrent/decaying splitting of the internal space.

    ``recurrent_basis`` columns span the subspace that keeps mass in the long
    run; ``decaying_basis`` columns span its orthocomplement, which every
    Kraus operator maps into the recurrent part asymptotically.
    """

    recurrent_dimension: int
    decaying_dimension: int
    recurrent_basis: np.ndarray
    decaying_basis: np.ndarray
    limit_state: np.ndarray
    windows_used: int


_BN_RANK_TOL = 1e-9
_BN_ITERATION_CAP = 2**16
# A retained eigenvalue that shrinks by more than this factor between
# consecutive windows is transient mass still draining, not structure.
_BN_DRAIN_RATIO = 0.8


def bn_decomposition(model: KrausModel) -> BNDecomposition:
    """Split the internal space into recurrent and decaying parts.

    Iterates the auxiliary map on the maximally mixed state and averages over
    dyadic tail windows (iterates 2^m .. 2^{m+1}-1).  Window averaging washes
    out peripheral oscillation while the tail start kills transients
    geometrically, so the rank of the window average stabilizes at the
    recurrent dimension.  Rank stability alone is not enough: transient mass
    that has not yet dropped below the rank threshold shows up as an
    eigenvalue shrinking window over window, so we keep iterating while any
    retained eigenvalue dropped by more than 20% since the previous window.
    Transients that decay slower than that (a decaying corner with spectral
    radius very close to 1) can exhaust the iteration budget; that limitation
    is inherent to any fixed-power method.
    """
    n = model.internal_dim
    superop = build_superop(model)
    v = vec(np.eye(n, dtype=complex) / n)
    applied = 0

    ranks: list[int] = []
    prev_eigs = None
    window_avg = None
    m_used = 0
    for m_idx in range(0, 17):
        start, stop = 2**m_idx, 2**(m_idx + 1)
        if stop - 1 > _BN_ITERATION_CAP:
            raise ConvergenceError(
                "recurrent-subspace rank failed to stabilize within the "
                f"iteration budget ({_BN_ITERATION_CAP} applications)"
            )
        acc = np.zeros_like(v)
        for k in range(applied, stop):
            v = superop.matrix @ v
            applied = k + 1
            if applied >= start:
                acc += v
        window_avg = unvec(acc / (stop - start), n)
        window_avg = (window_avg + window_avg.conj().T) / 2
        eigs = np.linalg.eigvalsh(window_avg)[::-1]  # descending
        rank = int(np.sum(eigs > _BN_RANK_TOL))
        ranks.append(rank)
        draining = False
        if prev_eigs is not None:
            for j in range(rank):
                if (prev_eigs[j] > _BN_RANK_TOL
                        and eigs[j] <= _BN_DRAIN_RATIO * prev_eigs[j]):
                    draining = True
                    break
        prev_eigs = eigs
        m_used = m_idx
        if (len(ranks) >= 3 and ranks[-1] == ranks[-2] == ranks[-3]
                and not draining):
            break
    else:
        raise ConvergenceError("recurrent-subspace rank failed to stabilize")

    vals, vecs = np.linalg.eigh(window_avg)
    keep = vals > _BN_RANK_TOL
    recurrent = vecs[:, keep]
    decaying = vecs[:, ~keep]

    # The recurrent part must be invariant under every Kraus operator.
    p_r = recurrent @ recurrent.conj().T
    eye = np.eye(n)
    for op in model.operators:
        leak = frob((eye - p_r) @ op @ p_r) / max(frob(op), 1e-30)
        if leak > 1e-8:
            raise SpectralIndeterminateError(
                f"recurrent subspace leaks under a Kraus operator "
                f"(relative leakage {leak:.3e})"
            )
    return BNDecomposition(
        recurrent_dimension=int(keep.sum()),
        decaying_dimension=int(n - keep.sum()),
        recurrent_basis=recurrent,
        decaying_basis=decaying,
        limit_state=window_avg,
        windows_used=m_used,
    )


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
# Lattice-walk irreducibility via return-path words.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MIrreducibility:
    """Verdict on irreducibility of the full lattice walk.

    ``verdict`` is one of ``"irreducible"``, ``"reducible"``,
    ``"inconclusive"``.  A reducible verdict carries a certified witness: an
    orthonormal basis of a proper subspace invariant under every return word
    examined.
    """

    verdict: str
    closure_dimension: int
    max_length_used: int
    witness: np.ndarray | None


_WORD_BUDGET = 2**20


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
    """Probe lattice-walk irreducibility through return-path words.

    The walk is irreducible exactly when the operators of zero-displacement
    paths generate, over all lengths, the full matrix algebra.  We enumerate
    words up to ``max_length`` (default 2 n^2 + 2), growing the closure span as
    return words appear:

    * span reaches full dimension at some length: irreducible (early exit);
    * span dimension stalls for three consecutive lengths below full: search
      for a proper subspace invariant under every collected return word; if
      certified, reducible with witness, otherwise inconclusive;
    * budget exhausted without stall or fill: inconclusive.
    """
    n = model.internal_dim
    if max_length is None:
        max_length = 2 * n * n + 2
    span = _OperatorSpan(n)
    return_words: list[np.ndarray] = []
    dims: list[int] = []
    zero = tuple([0] * model.lattice_dim)

    frontier: list[tuple[tuple[int, ...], np.ndarray]] = [
        (zero, np.eye(n, dtype=complex))
    ]
    length_used = 0
    verdict: str | None = None
    for length in range(1, max_length + 1):
        if len(frontier) * model.n_steps > _WORD_BUDGET:
            raise PathBudgetError(
                f"word enumeration would exceed {_WORD_BUDGET} entries at "
                f"length {length}"
            )
        new_frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
        for disp, mat in frontier:
            for s, op in zip(model.displacements, model.operators):
                nd = tuple(a + b for a, b in zip(disp, s))
                nm = op @ mat
                new_frontier.append((nd, nm))
                if nd == zero and frob(nm) > 1e-14:
                    return_words.append(nm)
                    span.add(nm)
        frontier = new_frontier
        length_used = length

        # Close the span multiplicatively under the return words seen so far.
        if return_words:
            closure = algebra_closure(span.matrices() if len(span) else return_words)
            span = _OperatorSpan(n)
            for b in closure.basis:
                span.add(b)
        dims.append(len(span))
        if len(span) == n * n:
            verdict = "irreducible"
            break
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3] and dims[-1] > 0:
            break

    if verdict == "irreducible":
        return MIrreducibility("irreducible", n * n, length_used, None)
    if not return_words:
        return MIrreducibility("inconclusive", 0, length_used, None)

    witness = _search_common_invariant_subspace(return_words, span, n)
    if witness is not None:
        return MIrreducibility("reducible", len(span), length_used, witness)
    return MIrreducibility("inconclusive", len(span), length_used, None)


def _search_common_invariant_subspace(return_words: list[np.ndarray],
                                      span: _OperatorSpan,
                                      n: int) -> np.ndarray | None:
    """Look for a proper subspace invariant under all return words.

    Generic elements of the closed span have eigenvectors generating minimal
    invariant subspaces; any proper one found is validated against the full
    word list before being reported.
    """
    basis_mats = span.matrices()
    rng = np.random.default_rng(0xBEEF)
    for _ in range(4):
        coeffs = rng.normal(size=len(basis_mats)) + 1j * rng.normal(size=len(basis_mats))
        generic = sum(c * b for c, b in zip(coeffs, basis_mats))
        _, vecs = np.linalg.eig(generic)
        for j in range(n):
            sub = _minimal_invariant_subspace(vecs[:, j], basis_mats, n)
            if 0 < sub.shape[1] < n:
                p = sub @ sub.conj().T
                eye = np.eye(n)
                ok = all(
                    frob((eye - p) @ w @ p) <= 1e-9 * max(1.0, frob(w))
                    for w in return_words
                )
                if ok:
                    return sub
    return None


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
