"""Hand-derived reference values for the bundled models.

Everything here was worked out from scratch (2x2 spectral problems, classical
generating functions, triangular matrix powers) and deliberately avoids
importing the package under test, so these numbers can serve as independent
oracles; the one exception, the word-list walk search at the end, says why.
Derivation notes are inline where the algebra is not obvious.
"""
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
# Superoperator references: the auxiliary map applied term by term, the
# weighted map assembled one Kronecker product per term, and the Choi matrix
# reshuffled out of a column-stacking superoperator matrix.
# ---------------------------------------------------------------------------

def apply_L(operators, rho):
    """The auxiliary map rho -> sum_s L_s rho L_s^dag, one Kraus term at a time."""
    rho = np.asarray(rho, dtype=complex)
    return sum(op @ rho @ op.conj().T for op in np.asarray(operators, dtype=complex))


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
# Tilted curve with kink refinement on every grid triple.  The package sends
# a triple to refinement only where the top block of the operators'
# invariant decomposition changes; this oracle refines all of them.  It
# shares the package's Perron extraction, shifted maps and bracket
# refinement, so a comparison isolates which triples are refined.
# ---------------------------------------------------------------------------

def refine_every_triple_curve(model, parameters, direction=None):
    """``lambda_curve`` on a reducible model, refining every interior triple."""
    from oqwalk.asymptotics import (
        _KINK_JUMP_TOL,
        _KINK_SLOPE_OFFSET,
        KinkRecord,
        LambdaCurve,
        _refine_kink,
    )
    from oqwalk.superop import _shifted_map, perron, spectral_radius

    ts = np.asarray(parameters, dtype=float)
    if direction is None:
        direction = np.zeros(model.lattice_dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)

    lams = np.empty(len(ts))
    logs = np.empty(len(ts))
    degenerate = []
    for i, t in enumerate(ts):
        shift, shifted = _shifted_map(model, t * direction)
        data = perron(shifted)
        logs[i] = shift + float(np.log(data.lambda_u))
        lams[i] = float(np.exp(logs[i]))
        if data.degenerate:
            degenerate.append(float(t))

    def f(t):
        shift, shifted = _shifted_map(model, t * direction)
        return float(np.exp(shift + np.log(spectral_radius(shifted))))

    kinks = []
    for i in range(1, len(ts) - 1):
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
