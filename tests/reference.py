"""Hand-derived reference values for the bundled models.

Everything here was worked out from scratch (2x2 spectral problems, classical
generating functions, triangular matrix powers) and deliberately avoids
importing the package under test, so these numbers can serve as independent
oracles; the sections at the end that do import it say why.
Derivation notes are inline where the algebra is not obvious.
"""
from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def normal_cdf(x):
    """Standard normal CDF via math.erf (no scipy, to stay independent)."""
    from math import erf
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(erf)(x / SQRT2))


# ---------------------------------------------------------------------------
# std_example: L_+ = [[1,1],[0,1]]/sqrt3, L_- = [[1,0],[-1,1]]/sqrt3.
# ---------------------------------------------------------------------------

STD_MEAN = 0.0
STD_VARIANCE = 8.0 / 9.0
# Traceless corrector eta solving (Id - L) eta = L' rho_inv (the drift term
# vanishes); solved by hand on the 3-dim traceless space.
STD_ETA = np.array([[5.0, 2.0], [2.0, -5.0]]) / 12.0
STD_INVARIANT = np.eye(2) / 2.0


def std_lambda(u):
    """Leading tilted eigenvalue, cube-root closed form.

    In the matrix-unit basis the tilted map is 4x4 with a cubic factor whose
    largest root is (ch + w**(1/3) - w**(-1/3)) / 3, where ch = e^u + e^-u
    and w = ch + sqrt(e^{2u} + e^{-2u} + 3).  At u = 0, w = 2 + sqrt(5) is
    the cube of the golden ratio and the expression collapses to 1.
    """
    u = np.asarray(u, dtype=float)
    ch = np.exp(u) + np.exp(-u)
    w = ch + np.sqrt(np.exp(2 * u) + np.exp(-2 * u) + 3.0)
    cbrt = np.cbrt(w)
    return (ch + cbrt - 1.0 / cbrt) / 3.0


# ---------------------------------------------------------------------------
# periodic_example: L_+ = [[0, sqrt3/2], [1/sqrt2, 0]], L_- = [[0, 1/2],
# [1/sqrt2, 0]].  Both operators are antidiagonal, so diagonal matrices are
# preserved by the tilted map; on that block it acts as [[0, A], [B, 0]] with
# A = (3 e^u + e^-u)/4 and B = (e^u + e^-u)/2, giving lambda_u = sqrt(A B).
# The off-diagonal block's radius is strictly smaller for every u
# (A B - A'^2 = (4 - 2 sqrt3)/8 * ... > 0), so sqrt(A B) is the true radius.
# ---------------------------------------------------------------------------

PERIODIC_MEAN = 0.25
PERIODIC_VARIANCE = 7.0 / 8.0
PERIODIC_INVARIANT = np.eye(2) / 2.0
PERIODIC_LAW_A = {(1,): 0.5, (-1,): 0.5}     # transitions out of ray e1
PERIODIC_LAW_B = {(1,): 0.75, (-1,): 0.25}   # transitions out of ray e2


def periodic_log_lambda(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * (np.log(np.exp(u) + np.exp(-u))
                  + np.log(3.0 * np.exp(u) + np.exp(-u))) - 1.5 * np.log(2.0)


def periodic_maximizer(t):
    """argmax_u (t u - log lambda_u) for |t| < 1.

    Setting the derivative of t u - log lambda_u to zero in w = e^{2u} gives
    3 (1 - t) w^2 - 4 t w - (1 + t) = 0, whose positive root is
    w = (2 t + sqrt(t^2 + 3)) / (3 (1 - t)).
    """
    t = np.asarray(t, dtype=float)
    return 0.5 * np.log((2.0 * t + np.sqrt(t * t + 3.0)) / (3.0 * (1.0 - t)))


def periodic_rate(t):
    u = periodic_maximizer(t)
    return t * u - periodic_log_lambda(u)


# ---------------------------------------------------------------------------
# breakdown_example: L_+ = [[1/sqrt2, 1/(2 sqrt2)], [0, sqrt3/2]],
# L_- = [[1/sqrt2, -1/(2 sqrt2)], [0, 0]].  Upper triangular, common ray e1.
# The tilted spectrum is the union of the ray part (cosh u) and the corner
# part ((3/4) e^u); their crossing at u0 = log(2)/2 is a genuine kink.
# ---------------------------------------------------------------------------

BREAKDOWN_INVARIANT = np.diag([1.0, 0.0]).astype(float)
BREAKDOWN_MEAN = 0.0
BREAKDOWN_VARIANCE = 1.0
BREAKDOWN_LAW = {(1,): 0.5, (-1,): 0.5}      # classical law on the ray e1

BREAKDOWN_KINK_U = 0.5 * np.log(2.0)
# One-sided slopes of lambda_u at the kink: sinh(u0) = sqrt2/4 from the left,
# (3/4) e^{u0} = 3 sqrt2/4 from the right; divide by lambda(u0) = 3 sqrt2/4
# for the log-curve slopes 1/3 and 1.
BREAKDOWN_LAMBDA_SLOPES = (SQRT2 / 4.0, 3.0 * SQRT2 / 4.0)
BREAKDOWN_LOG_SLOPES = (1.0 / 3.0, 1.0)


def breakdown_lambda(u):
    u = np.asarray(u, dtype=float)
    return np.maximum(np.cosh(u), 0.75 * np.exp(u))


def breakdown_return_probability(n):
    """P(X_n = n) starting fully on the decaying ray e2.

    Equals ||L_+^n e2||^2.  For the triangular L_+ the n-th power has diagonal
    (a^n, c^n) and corner b (a^n - c^n)/(a - c) with a = 1/sqrt2, b =
    1/(2 sqrt2), c = sqrt3/2; factoring 2^-n out of the corner bracket gives
    the closed form below.
    """
    bracket = 2.0 ** (1 - n) * (SQRT3 ** n - SQRT2 ** n) / (SQRT3 - SQRT2)
    return 0.75 ** n + bracket ** 2 / 8.0


# ---------------------------------------------------------------------------
# antidiag_example: L_+ = [[0, .6], [.8, 0]], L_- = [[0, .8], [.6, 0]].
# Same antidiagonal block structure as the periodic example.
# ---------------------------------------------------------------------------

ANTIDIAG_MEAN = 0.0
ANTIDIAG_VARIANCE = 0.9216     # 1 - 0.28^2, same for both branch laws
ANTIDIAG_LAW_A = {(1,): 0.64, (-1,): 0.36}
ANTIDIAG_LAW_B = {(1,): 0.36, (-1,): 0.64}


def antidiag_log_lambda(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * (np.log(0.36 * np.exp(u) + 0.64 * np.exp(-u))
                  + np.log(0.64 * np.exp(u) + 0.36 * np.exp(-u)))


# ---------------------------------------------------------------------------
# classical_dilation(p): 1x1 operators sqrt(p), sqrt(1-p) on steps +1 / -1.
# ---------------------------------------------------------------------------

def classical_mean(p):
    return 2.0 * p - 1.0


def classical_variance(p):
    return 4.0 * p * (1.0 - p)


def classical_log_lambda(u, p):
    u = np.asarray(u, dtype=float)
    return np.log(p * np.exp(u) + (1.0 - p) * np.exp(-u))


def classical_maximizer(x, p):
    """argmax_u (x u - classical_log_lambda(u, p)) for |x| < 1.

    The slope of log lambda is (p e^u - (1-p) e^-u) / (p e^u + (1-p) e^-u);
    setting it to x and solving for w = e^{2u} gives w = (1-p)(1+x) / (p(1-x)).
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * np.log((1.0 - p) * (1.0 + x) / (p * (1.0 - x)))


def binomial_mass(p_steps, j, q):
    """P(j rightward steps out of p_steps) for the classical walk."""
    from math import comb
    return comb(p_steps, j) * q ** j * (1.0 - q) ** (p_steps - j)


# ---------------------------------------------------------------------------
# Cross-model tables (drift m, CLT variance C, and the second derivative of
# lambda_u at 0, which equals C + m^2 since lambda_0 = 1 and lambda'_0 = m).
# ---------------------------------------------------------------------------

MEANS = {
    "std_example": 0.0,
    "periodic_example": 0.25,
    "breakdown_example": 0.0,
    "antidiag_example": 0.0,
    "classical_dilation": 0.0,
}

VARIANCES = {
    "std_example": 8.0 / 9.0,
    "periodic_example": 7.0 / 8.0,
    "breakdown_example": 1.0,
    "antidiag_example": 0.9216,
    "classical_dilation": 1.0,
}

LAMBDA_PP0 = {name: VARIANCES[name] + MEANS[name] ** 2 for name in MEANS}


# ---------------------------------------------------------------------------
# Path sums: every displacement word of length p enumerated, K^p sandwiches.
# Only for small p; they take plain displacement tuples, operator arrays and
# a {site: block} mapping, so nothing of the package is involved.
# ---------------------------------------------------------------------------

def _words(displacements, operators, blocks, p):
    """Yield (start site, end site, final block) for every word of length p."""
    pairs = [(tuple(s), np.asarray(op, dtype=complex))
             for s, op in zip(displacements, operators)]
    for start, block in blocks.items():
        stack = [(0, tuple(start), np.asarray(block, dtype=complex))]
        while stack:
            depth, site, sigma = stack.pop()
            if depth == p:
                yield tuple(start), site, sigma
                continue
            for s, op in pairs:
                target = tuple(a + b for a, b in zip(site, s))
                stack.append((depth + 1, target, op @ sigma @ op.conj().T))


def path_sum_masses(displacements, operators, blocks, p):
    """Position law after p steps: the traces of the words' blocks, per end site."""
    masses = {}
    for _, site, sigma in _words(displacements, operators, blocks, p):
        masses[site] = masses.get(site, 0.0) + float(np.trace(sigma).real)
    return masses


def path_sum_mgf(displacements, operators, blocks, u, p):
    """E[exp(<u, X_p - X_0>)] as a sum over words."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    total = 0.0
    for start, site, sigma in _words(displacements, operators, blocks, p):
        shift = float(u @ np.subtract(site, start))
        total += float(np.exp(shift) * np.trace(sigma).real)
    return total


# ---------------------------------------------------------------------------
# The index of the lattice spanned by integer vectors, as the gcd of their
# d x d minors, each by Laplace expansion: C(K, d) determinants of O(d!)
# terms, so only for small step sets.  The package reduces the rows instead.
# ---------------------------------------------------------------------------

def laplace_det(rows):
    """Exact determinant of a square integer matrix, by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def lattice_period_by_minors(steps):
    """Index of the lattice spanned by the differences s - s_0 of the steps:
    the gcd of their d x d minors, 0 below full rank."""
    from itertools import combinations
    from math import gcd

    base = list(steps[0])
    diffs = [[a - b for a, b in zip(s, base)] for s in steps[1:]]
    return gcd(*(laplace_det(list(sub)) for sub in combinations(diffs, len(base))))


# ---------------------------------------------------------------------------
# Superoperator references: the auxiliary map applied term by term, the
# lattice map one sandwich at a time, the weighted map assembled one
# Kronecker product per term, and the Choi matrix
# reshuffled out of a column-stacking superoperator matrix.
# ---------------------------------------------------------------------------

def apply_L(operators, rho):
    """The auxiliary map rho -> sum_s L_s rho L_s^dag, one Kraus term at a time."""
    rho = np.asarray(rho, dtype=complex)
    return sum(op @ rho @ op.conj().T for op in np.asarray(operators, dtype=complex))


def apply_M_per_term(displacements, operators, blocks):
    """One step of the lattice walk, one sandwich L_s rho L_s^dag at a time.

    Sites are visited in the order of ``blocks`` and steps in model order; a
    target's first term is kept as is and each later one added to it, so the
    returned {site: block} mapping lists targets in first-reached order.
    """
    out = {}
    for pos, block in blocks.items():
        for s, op in zip(displacements, operators):
            target = tuple(p + c for p, c in zip(pos, s))
            contrib = op @ block @ op.conj().T
            if target in out:
                out[target] = out[target] + contrib
            else:
                out[target] = contrib
    return out


def kraus_superop(operators, weights=None):
    """Matrix of rho -> sum_k w_k L_k rho L_k^dag (column stacking), forming
    kron(conj(L_k), L_k) afresh for every term.

    The terms are accumulated into zeros in step order, one ``acc += w * P``
    per term: the order the package's sum over its cached product stack keeps,
    so the two agree bit for bit.
    """
    operators = np.asarray(operators, dtype=complex)
    if weights is None:
        weights = np.ones(len(operators))
    acc = np.zeros((operators.shape[1] ** 2,) * 2, dtype=complex)
    for w, op in zip(weights, operators):
        acc += w * np.kron(op.conj(), op)
    return acc


def choi_from_superop(matrix):
    """Reshuffle a column-stacking superoperator matrix into its Choi matrix.

    For a Kraus-presented map this is J = sum_k vec(L_k) vec(L_k)^dag, the
    matrix the package builds directly from the operators.
    """
    matrix = np.asarray(matrix)
    n2 = matrix.shape[0]
    n = int(round(np.sqrt(n2)))
    return matrix.reshape(n, n, n, n).transpose((3, 1, 2, 0)).reshape(n2, n2)


# ---------------------------------------------------------------------------
# Lattice-walk irreducibility by listing every word: the K^l words of each
# length l are formed one by one and the return words kept in a list, so the
# cost is exponential in the length.  It shares the package's operator span,
# closure and minimal-invariant-subspace helpers, so a comparison with
# ``is_irreducible_M`` isolates how the return words are collected.
# ---------------------------------------------------------------------------

def enumerated_walk_irreducibility(model, max_length=None):
    """(verdict, closure dimension, lengths used, witness) from the word list."""
    from oqwalk.structure import (
        _minimal_invariant_subspace,
        _OperatorSpan,
        algebra_closure,
    )

    n = model.internal_dim
    if max_length is None:
        max_length = 2 * n * n + 2
    span = _OperatorSpan(n)
    return_words, dims = [], []
    zero = (0,) * model.lattice_dim
    frontier = [(zero, np.eye(n, dtype=complex))]
    length_used = 0
    for length in range(1, max_length + 1):
        new_frontier = []
        for disp, mat in frontier:
            for s, op in zip(model.displacements, model.operators):
                nd = tuple(a + b for a, b in zip(disp, s))
                nm = op @ mat
                new_frontier.append((nd, nm))
                if nd == zero and np.linalg.norm(nm) > 1e-14:
                    return_words.append(nm)
                    span.add(nm)
        frontier = new_frontier
        length_used = length
        if return_words:
            closure = algebra_closure(span.matrices() if len(span) else return_words)
            span = _OperatorSpan(n)
            for b in closure.basis:
                span.add(b)
        dims.append(len(span))
        if len(span) == n * n:
            return "irreducible", n * n, length_used, None
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3] and dims[-1] > 0:
            break
    if not return_words:
        return "inconclusive", 0, length_used, None

    # A generic element of the closed span: its eigenvectors seed the minimal
    # invariant subspaces; a proper one is checked against every word.
    basis_mats = span.matrices()
    rng = np.random.default_rng(0xBEEF)
    for _ in range(4):
        coeffs = rng.normal(size=len(basis_mats)) + 1j * rng.normal(size=len(basis_mats))
        generic = sum(c * b for c, b in zip(coeffs, basis_mats))
        _, vecs = np.linalg.eig(generic)
        for j in range(n):
            sub = _minimal_invariant_subspace(vecs[:, j], basis_mats, n)
            if 0 < sub.shape[1] < n:
                leak = np.eye(n) - sub @ sub.conj().T
                if all(np.linalg.norm(leak @ w @ sub) <= 1e-9 * max(1.0, np.linalg.norm(w))
                       for w in return_words):
                    return "reducible", len(span), length_used, sub
    return "inconclusive", len(span), length_used, None


# ---------------------------------------------------------------------------
# The two-level lattice walk on steps {+1, -1} from ray geometry: reducible,
# period 2 or period 4, with the reason a reducible walk is reducible.  It
# decides from the common eigenvector rays of the round trips L_+ L_- and
# L_- L_+, never from return-word spans, so it is an independent oracle for
# ``is_irreducible_M``'s verdict and period.  It reuses ``classify_c2``'s ray
# helpers (eigenvector rays of one matrix, membership of a ray).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C2MClassification:
    """When the walk is irreducible its period is 2 or 4; period 4 happens
    exactly when some orthonormal basis makes one operator diagonal and the
    other antidiagonal (``basis`` records it)."""

    m_irreducible: bool
    m_period: int | None
    reducible_reason: str | None
    basis: np.ndarray | None


def _ray_member(v, ray, scale):
    """Is v in the line spanned by unit vector ray (zero counts as inside)?
    The oracle's own absolute bound, 1e-9 * max(1, scale), so that it does not
    read the package's invariance predicate, which it checks."""
    residual = v - (ray.conj() @ v) * ray
    return np.linalg.norm(residual) <= 1e-9 * max(1.0, scale)


def c2_m_classifier(model):
    """Classify the lattice walk of a two-level nearest-neighbour model.

    * The walk is reducible iff a common ray of the round trips is an
      eigenvector of one of the operators themselves, or the two common rays
      form a swap pair (each operator sends one ray into the other).
    * Otherwise it is irreducible and its period divides 4; period 4 holds
      exactly when one operator is normal with an orthonormal eigenbasis
      whose rays the other operator swaps with nonzero amplitudes.
    """
    from oqwalk.errors import AssumptionError
    from oqwalk.numerics import frob
    from oqwalk.structure import _ray_candidates

    if model.internal_dim != 2:
        raise AssumptionError("this classifier needs internal dimension 2")
    if model.lattice_dim != 1 or set(model.displacements) != {(1,), (-1,)}:
        raise AssumptionError("this classifier needs one-dimensional steps {+1, -1}")
    ops = dict(zip(model.displacements, model.operators))
    lp, lm = ops[(1,)], ops[(-1,)]

    def rays_or_all(m):
        if frob(m - (np.trace(m) / 2) * np.eye(2)) <= 1e-10 * max(1.0, frob(m)):
            return "all"
        return _ray_candidates(m)

    r1, r2 = rays_or_all(lp @ lm), rays_or_all(lm @ lp)
    if r1 == "all" and r2 == "all":
        # Every ray is common; in particular every eigenvector of lp is.
        return C2MClassification(False, None, "common-eigenvector", None)
    if r1 == "all":
        common = r2
    elif r2 == "all":
        common = r1
    else:
        common = [v for v in r1
                  if any(min(np.linalg.norm(v - w), np.linalg.norm(v + w)) <= 1e-8
                         for w in r2)]

    for v in common:
        if any(_ray_member(op @ v, v, frob(op)) for op in (lp, lm)):
            return C2MClassification(False, None, "common-eigenvector", None)
    if len(common) == 2:
        e0, e1 = common
        if all(_ray_member(op @ e0, e1, frob(op)) and _ray_member(op @ e1, e0, frob(op))
               for op in (lp, lm)):
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
            return C2MClassification(True, 4, None, np.column_stack([v1, v2]))
    return C2MClassification(True, 2, None, None)


# ---------------------------------------------------------------------------
# Tilted curve with kink refinement on every grid triple: the secant search
# the package used before it located kinks as block crossings.  Every
# interior triple whose secant slopes jump is refined on the whole map by
# following the sub-bracket with the largest jump down to width 1e-7, and
# the one-sided slopes are secants at offsets 1e-4 and 2e-4 outside it.  It
# shares the package's Perron extraction and shifted maps, so a comparison
# isolates how kinks are located.
# ---------------------------------------------------------------------------

KINK_BRACKET_WIDTH = 1e-7
KINK_SLOPE_OFFSET = 1e-4
# The slope jump, relative to the slopes' scale, below which
# ``asymptotics._block_crossings`` drops a crossing.
KINK_JUMP = 1e-3


def refine_kink(f, a, m, b, fa, fm, fb):
    """Shrink a slope-jump bracket; returns (location, final jump).

    A genuine kink keeps a constant slope jump as the bracket shrinks, while
    smooth curvature scales the jump down with the width, so following the
    max-jump sub-bracket separates the two cases.
    """
    while b - a > KINK_BRACKET_WIDTH:
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


def whole_map_lambda(model, direction):
    """t -> lambda along ``t * direction`` from the whole map's radius alone."""
    from oqwalk.superop import _shifted_map, spectral_radius

    def f(t):
        shift, shifted = _shifted_map(model, t * direction)
        return float(np.exp(shift + np.log(spectral_radius(shifted))))

    return f


def perron_per_matrix(matrix, n):
    """``superop.perron`` as one matrix at a time computes it: the triple
    ``(lambda_u, rho_u, m_u, degenerate, gap, residual, separation)``, or
    the same error with the same message."""
    from oqwalk import PositivityError, SpectralIndeterminateError
    from oqwalk.numerics import eigendecompose, frob, unvec, vec

    def state(a):
        h = (a + a.conj().T) / 2
        tr = float(np.trace(h).real)
        if tr < 0:
            h, tr = -h, -tr
        if tr <= 0 or not np.isfinite(tr):
            raise PositivityError(f"leading eigenvector has non-positive trace {tr:.3e}")
        w, v = np.linalg.eigh(h / tr)
        if w[0] < -1e-8:
            raise PositivityError(f"leading eigenvector has negative part "
                                  f"{w[0]:.3e} beyond 1.0e-08")
        h = (v * np.where(w < 0, 0.0, w)[None, :]) @ v.conj().T
        return h / float(np.trace(h).real)

    es = eigendecompose(matrix)
    radius = float(np.max(np.abs(es.values)))
    if radius <= 0:
        raise SpectralIndeterminateError("zero spectral radius")
    tol_edge = 1e-9 * max(radius, 1.0)
    peripheral = np.flatnonzero(np.abs(es.values) >= radius - tol_edge)
    lead = int(peripheral[np.argmax(es.values[peripheral].real)])
    top = es.values[lead]
    if abs(top - radius) > tol_edge:
        raise SpectralIndeterminateError(
            f"no eigenvalue at the positive real point of the spectral "
            f"circle (closest {top}, radius {radius:.6e}); not a CP spectrum")
    lam = float(top.real)
    others = np.delete(es.values, lead)
    degenerate = bool(np.any(np.abs(others - top) <= tol_edge))
    gap = separation = 1.0
    if others.size:
        gap = float((radius - np.max(np.abs(others))) / radius)
        separation = float(np.min(np.abs(others - top)) / radius)
    a = unvec(es.vectors[:, lead], n)
    h, k = (a + a.conj().T) / 2, (a - a.conj().T) / 2j
    rho = state(h if frob(h) >= frob(k) else k)
    scale = max(frob(matrix), np.finfo(float).tiny)
    residual = frob(unvec(matrix @ vec(rho), n) - lam * rho) / scale
    if residual > 1e-9 and not degenerate:
        raise SpectralIndeterminateError(
            f"leading eigenvector residual {residual:.3e} exceeds 1.0e-09")
    adjoint = matrix.conj().T
    shifted = adjoint - lam * (1 + 1e-13) * np.eye(n * n)
    w = vec(np.eye(n, dtype=complex))
    try:
        for _ in range(2):
            w = np.linalg.solve(shifted, w)
            with np.errstate(invalid="ignore"):
                w = w / np.linalg.norm(w)
    except np.linalg.LinAlgError:
        raise SpectralIndeterminateError(
            "adjoint spectrum misses the Perron root (shifted solve is singular)") from None
    left = np.linalg.norm(adjoint @ w - lam * w)
    if not left <= 1e-9 * max(frob(adjoint), np.finfo(float).tiny):
        raise SpectralIndeterminateError(
            f"adjoint spectrum misses the Perron root (left residual "
            f"{left:.3e} exceeds 1.0e-09 * ||M||)")
    w = unvec(w, n)
    w = (w + w.conj().T) / 2
    pairing = float(np.trace(w @ rho).real)
    if abs(pairing) <= 1e-12 * max(frob(w), np.finfo(float).tiny):
        raise SpectralIndeterminateError(
            "left/right Perron eigenvectors pair to zero (defective root)")
    return lam, rho, w / pairing, degenerate, gap, residual, separation


def per_point_curve(model, parameters, direction=None):
    """A tilted curve's values and degenerate points from one ``perron``
    call per grid point, each on its own shifted map; a reducible map's
    point whose extraction fails takes the whole map's radius and counts as
    degenerate, an irreducible one's raises."""
    from oqwalk import SpectralIndeterminateError
    from oqwalk.structure import _operator_closure
    from oqwalk.superop import _shifted_map, perron, spectral_radius

    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    n = model.internal_dim
    reducible = _operator_closure(model).dimension != n * n
    lams = np.empty(len(ts))
    logs = np.empty(len(ts))
    degenerate = []
    for i, t in enumerate(ts):
        shift, shifted = _shifted_map(model, t * direction)
        try:
            data = perron(shifted)
            radius, tied = data.lambda_u, data.degenerate
        except SpectralIndeterminateError:
            if not reducible:
                raise
            radius, tied = spectral_radius(shifted), True
        logs[i] = shift + float(np.log(radius))
        with np.errstate(over="ignore"):
            lams[i] = float(np.exp(logs[i]))
        if tied:
            degenerate.append(float(t))
    return lams, logs, tuple(degenerate)


def refine_every_triple_curve(model, parameters, direction=None):
    """``lambda_curve`` on a reducible model, refining every interior triple."""
    from oqwalk.asymptotics import KinkRecord, LambdaCurve

    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    lams, logs, degenerate = per_point_curve(model, ts, direction)

    f = whole_map_lambda(model, direction)
    kinks = []
    for i in range(1, len(ts) - 1):
        a, m, b = ts[i - 1], ts[i], ts[i + 1]
        fa, fm, fb = lams[i - 1], lams[i], lams[i + 1]
        sl = (fm - fa) / (m - a)
        sr = (fb - fm) / (b - m)
        scale = max(1.0, abs(sl), abs(sr))
        if abs(sr - sl) <= KINK_JUMP * scale:
            continue
        u0, jump = refine_kink(f, a, m, b, fa, fm, fb)
        if jump <= KINK_JUMP * scale:
            continue  # curvature masquerading as a kink
        if any(abs(u0 - k.u) < (b - a) / 2 for k in kinks):
            continue
        h = KINK_SLOPE_OFFSET
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


# ---------------------------------------------------------------------------
# The adjoint-observable covariance route on its own.  ``asymptotic_stats``
# runs both routes and reports their gap; this entry point lets a test
# compare the corrector route's ``covariance`` with the adjoint route alone.
# ---------------------------------------------------------------------------

def covariance_ags(model):
    """CLT covariance via the adjoint-observable route: one least-squares
    solve per axis."""
    from oqwalk.asymptotics import _adjoint_route, _axis_terms, drift, invariant_state

    rho = invariant_state(model)
    return _adjoint_route(model, rho, drift(model, rho), _axis_terms(model, rho))


# ---------------------------------------------------------------------------
# CLT constants from the exact position law.  Started at the invariant state
# at the origin, E[X_P] = P m exactly and Cov(X_P) = P C + B + O(gap^P), so
# two horizons past the transient give m = (E_P2 - E_P1) / (P2 - P1) and
# C = (Cov_P2 - Cov_P1) / (P2 - P1).  From another start the mean gains an
# offset too, which the same differences remove.  Only the invariant state
# (when no start is given) and the exact propagator come from the package;
# neither covariance route is used.
# ---------------------------------------------------------------------------

def exact_clt_constants(model, p1, p2, start=None):
    """(drift, covariance) from the exact position laws after p1 < p2 steps,
    started at the origin in the internal state ``start`` (default: the
    invariant state)."""
    from oqwalk.asymptotics import invariant_state
    from oqwalk.trajectories import _propagate

    if start is None:
        start = invariant_state(model)
    blocks = {(0,) * model.lattice_dim: start}
    means, covariances = [], []
    for p in (p1, p2):
        sites, masses = _propagate(model, blocks, p)
        mean = masses @ sites
        centred = sites - mean
        means.append(mean)
        covariances.append((masses[:, None] * centred).T @ centred)
    return (means[1] - means[0]) / (p2 - p1), (covariances[1] - covariances[0]) / (p2 - p1)


def clt_kolmogorov_distance(model, p, mean, variance, offset=0.5):
    """Kolmogorov distance D_p between the exact law of a 1-D walk after p
    steps, started at the invariant state at the origin, and N(p m, p C).

    The normal CDF is read at each reached site x plus ``offset``, a
    continuity correction.  The paper's CLT converges at rate 1/sqrt(p), so
    D_p sqrt(p) levels off with the true (m, C), and drifts with a wrong C.
    """
    from oqwalk.asymptotics import invariant_state
    from oqwalk.trajectories import _propagate

    sites, masses = _propagate(model, {(0,): invariant_state(model)}, p)
    gauss = normal_cdf((sites[:, 0] + offset - p * mean) / np.sqrt(p * variance))
    return float(np.max(np.abs(np.cumsum(masses) - gauss)))


# ---------------------------------------------------------------------------
# The two-level closed forms: the n = 2 instance of the block mixture, read
# from the common rays of the operators (``classify_c2``) instead of a
# composition series.  No common ray: the spectral statistics, or for period
# 2 the two alternating laws between the cyclic projections; one ray: the
# classical step law on it; two rays: two classical branch laws mixed by the
# initial mass on the first.  The package's taxonomy, period and spectral
# statistics supply the pieces.
# ---------------------------------------------------------------------------

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
    law_a: dict | None
    law_b: dict | None
    weight_first: float | None


def _law_moments(law, d):
    mean = np.zeros(d)
    second = np.zeros((d, d))
    for s, p in law.items():
        sv = np.asarray(s, dtype=float)
        mean += p * sv
        second += p * np.outer(sv, sv)
    return mean, second - np.outer(mean, mean)


def _projection_ray(p):
    """The unit vector spanning a rank-one projection."""
    return np.linalg.eigh(p)[1][:, -1]


def c2_parameters(model, initial_state=None):
    """Drift/covariance of a two-level walk through its invariant-ray form."""
    from oqwalk.asymptotics import covariance, drift, invariant_state
    from oqwalk.model import default_initial_state
    from oqwalk.structure import classify_c2, period

    cls = classify_c2(model)
    d = model.lattice_dim

    if cls.situation == 1:
        pd = period(model)
        if pd.period == 1:
            rho = invariant_state(model)
            mean = drift(model, rho)
            cov = covariance(model, rho)
            return C2Parameters(1, False, mean, cov, None, None, None)
        # Period 2, the only other on C^2: P_j L_s = L_s P_{j-1} makes the
        # projection before a zero one zero too, by sum_s L_s^dag L_s = I, so
        # all are nonzero, and nonzero projections summing to I on C^2 are
        # at most two, each of rank one.
        f1 = _projection_ray(pd.projections[0])
        f2 = _projection_ray(pd.projections[1])
        terms = list(zip(model.displacements, model.operators))
        law_a = {s: float(abs(f2.conj() @ op @ f1) ** 2) for s, op in terms}
        law_b = {s: float(abs(f1.conj() @ op @ f2) ** 2) for s, op in terms}
        ma, va = _law_moments(law_a, d)
        mb, vb = _law_moments(law_b, d)
        return C2Parameters(1, True, (ma + mb) / 2, (va + vb) / 2, law_a, law_b, None)

    if cls.situation == 2:
        law_a = {s: float(abs(a) ** 2) for s, a in zip(model.displacements, cls.alpha)}
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
    weight = sum(float((ray.conj() @ block @ ray).real)
                 for block in initial_state.blocks.values())
    mean = weight * ma + (1 - weight) * mb
    if (np.allclose(ma, mb, atol=1e-12)
            or weight <= 1e-12 or weight >= 1 - 1e-12):
        # Single Gaussian limit: branch means agree, or the initial state
        # sits (to rounding) on one invariant ray.
        cov = weight * va + (1 - weight) * vb
    else:
        cov = None
    return C2Parameters(3, False, mean, cov, law_a, law_b, weight)
