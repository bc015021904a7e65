"""Seeded generators of valid random models for the test suite.

Every construction satisfies sum_s L_s^dag L_s = Id by design: the generic
family stacks the operators into the first block column of a unitary (QR of a
complex Gaussian), and the structured two-level families parametrize their
constraint manifolds with angles and phases.  All randomness goes through
numpy's seeded Generator so samples are identical across runs.
"""
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from oqwalk import KrausModel, SpectralIndeterminateError, builtin, is_irreducible_L

NN_STEPS = ((1,), (-1,))
STEPS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))


def random_isometry_model(seed, n=2, steps=NN_STEPS):
    """Generic valid model: QR of a complex Gaussian (k n x n) block column."""
    rng = np.random.default_rng(seed)
    k = len(steps)
    g = rng.normal(size=(k * n, n)) + 1j * rng.normal(size=(k * n, n))
    q, _ = np.linalg.qr(g)
    ops = np.stack([q[i * n:(i + 1) * n, :] for i in range(k)])
    return KrausModel(len(steps[0]), n, steps, ops)


def _phases(rng, k):
    return np.exp(2j * np.pi * rng.uniform(size=k))


def antidiagonal_pair_model(seed):
    """Both operators antidiagonal [[0, b], [c, 0]]; columns have unit norm."""
    rng = np.random.default_rng(seed)
    th_b, th_c = rng.uniform(0.15, np.pi / 2 - 0.15, size=2)
    pb1, pb2, pc1, pc2 = _phases(rng, 4)
    ops = np.array([
        [[0.0, np.cos(th_b) * pb1], [np.cos(th_c) * pc1, 0.0]],
        [[0.0, np.sin(th_b) * pb2], [np.sin(th_c) * pc2, 0.0]],
    ], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def diag_antidiag_model(seed):
    """One diagonal operator and one antidiagonal one."""
    rng = np.random.default_rng(seed)
    th1, th2 = rng.uniform(0.15, np.pi / 2 - 0.15, size=2)
    p1, p2, p3, p4 = _phases(rng, 4)
    a, c = np.cos(th1) * p1, np.sin(th1) * p2   # |a|^2 + |c|^2 = 1
    d, b = np.cos(th2) * p3, np.sin(th2) * p4   # |d|^2 + |b|^2 = 1
    ops = np.array([
        [[a, 0.0], [0.0, d]],
        [[0.0, b], [c, 0.0]],
    ], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def upper_triangular_model(seed):
    """Two upper-triangular operators (they share the invariant ray e1).

    With first columns (a, 0) and (d, 0), the cross-term constraint
    a* b + d* e = 0 forces the corner pair (b, e) onto the line
    t (conj(d), -conj(a)) e^{i psi}; the remaining diagonal budget is
    |c|^2 + |f|^2 = 1 - t^2.
    """
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.15, np.pi / 2 - 0.15)
    p1, p2 = _phases(rng, 2)
    a, d = np.cos(th) * p1, np.sin(th) * p2
    t = rng.uniform(0.1, 0.9)
    psi = _phases(rng, 1)[0]
    b = t * np.conj(d) * psi
    e = -t * np.conj(a) * psi
    gam = rng.uniform(0.15, np.pi / 2 - 0.15)
    p3, p4 = _phases(rng, 2)
    root = np.sqrt(1.0 - t * t)
    c, f = root * np.cos(gam) * p3, root * np.sin(gam) * p4
    ops = np.array([
        [[a, b], [0.0, c]],
        [[d, e], [0.0, f]],
    ], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def diagonal_pair_model(seed):
    """Both operators diagonal: two invariant rays, auxiliary map reducible."""
    rng = np.random.default_rng(seed)
    th1, th2 = rng.uniform(0.15, np.pi / 2 - 0.15, size=2)
    p = _phases(rng, 4)
    ops = np.array([
        [[np.cos(th1) * p[0], 0.0], [0.0, np.cos(th2) * p[1]]],
        [[np.sin(th1) * p[2], 0.0], [0.0, np.sin(th2) * p[3]]],
    ], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def leaky_ray_model(leak):
    """Two-level walk whose ray e0 is invariant under L_+ and leaks under L_-
    by ``leak`` relative: |<e1, L_- e0>| = leak * ||L_-||_F.

    The operators stack into the first two columns of an isometry (Gram-Schmidt
    in C^4), so sum_s L_s^dag L_s = Id to rounding; the leak is linear in the
    seeded entry delta, so one rescaling of delta hits it.
    """
    def build(delta):
        c0 = np.array([0.6, 0.0, 0.8j, delta])
        c0 /= np.linalg.norm(c0)
        c1 = np.array([0.3 + 0.2j, 0.5, -0.4j, 0.6])
        c1 -= np.vdot(c0, c1) * c0
        v = np.column_stack([c0, c1 / np.linalg.norm(c1)])
        return np.stack([v[:2], v[2:]])

    ops = build(leak)
    ops = build(leak * leak * np.linalg.norm(ops[1]) / abs(ops[1][1, 0]))
    return KrausModel(1, 2, NN_STEPS, ops)


def nearly_periodic_model(gap, seed=3):
    """(1 - eta) Phi + eta id for the period-2 ``antidiagonal_pair_model`` map
    Phi, eta = gap / 2: the identity term is a lazy step of operator
    sqrt(eta) I.  The mixture keeps Phi's eigenvectors and moves its
    eigenvalue -1 to -(1 - gap), so the map is aperiodic for every gap > 0.
    """
    eta = gap / 2
    ops = np.concatenate([np.sqrt(1 - eta) * antidiagonal_pair_model(seed).operators,
                          [np.sqrt(eta) * np.eye(2)]])
    return KrausModel(1, 2, NN_STEPS + ((0,),), ops)


def c2_sample(count=100, base_seed=0xC2):
    """Stratified sample of valid two-level nearest-neighbour models.

    70 generic isometries, 10 antidiagonal pairs, 10 diagonal+antidiagonal,
    5 common-upper-triangular, 5 diagonal pairs.  Seeds are offsets of
    ``base_seed`` so the sample never changes between runs.
    """
    models = [random_isometry_model(base_seed + i) for i in range(70)]
    models += [antidiagonal_pair_model(base_seed + 1000 + i) for i in range(10)]
    models += [diag_antidiag_model(base_seed + 2000 + i) for i in range(10)]
    models += [upper_triangular_model(base_seed + 3000 + i) for i in range(5)]
    models += [diagonal_pair_model(base_seed + 4000 + i) for i in range(5)]
    return models[:count]


def irreducible_sample(count=20, base_seed=0x1717):
    """Random irreducible models: n in {2, 3} on one axis plus two 2-D walks.

    Draws whose auxiliary map is not irreducible (or lands in the indeterminate
    band) are resampled by advancing the seed, deterministically, so the
    returned list is stable run to run.
    """
    specs = [(2, NN_STEPS)] * 9 + [(3, NN_STEPS)] * 9 + [(2, STEPS_2D)] * 2
    models = []
    seed = base_seed
    for n, steps in specs[:count]:
        while True:
            m = random_isometry_model(seed, n=n, steps=steps)
            seed += 1
            try:
                ok = is_irreducible_L(m).irreducible
            except SpectralIndeterminateError:
                ok = False
            if ok:
                models.append(m)
                break
    return models


def broken_scaled_model(factor=1.001):
    """std_example with the first operator inflated: stochasticity defect."""
    m = builtin("std_example")
    ops = np.array(m.operators, copy=True)
    ops[0] = ops[0] * factor
    return KrausModel(1, 2, NN_STEPS, ops)


def three_level_two_block_model():
    """Block-diagonal direct sum: a 1-dim walk piece plus a 2-dim std piece.

    Has (at least) two invariant states, one per block, so the spectral route
    must refuse with a multiplicity error and there is no two-level fallback.
    """
    std = builtin("std_example")
    ops = []
    for scalar, block in zip((np.sqrt(0.3), np.sqrt(0.7)), std.operators):
        op = np.zeros((3, 3), dtype=complex)
        op[0, 0] = scalar
        op[1:, 1:] = block
        ops.append(op)
    return KrausModel(1, 3, NN_STEPS, np.array(ops))


def transient_fed_rays_model(stay=0.36):
    """Two rays fed by a transient level, on steps +1, -1 and 0.

    On the ray e0 the walk steps +1 with probability 0.7, on e1 with 0.2;
    from e2 it takes step 0 and stays with probability t^2 = ``stay``, or
    falls to e0 with u^2 = 3/4 (1 - t^2) and to e1 with v^2 = 1/4 (1 - t^2).
    At the default (t^2, u^2, v^2) = (0.36, 0.48, 0.16): from I/3 the walk
    is absorbed in e0 with weight 1/3 + (1/3)(3/4) = 7/12 and in e1 with
    5/12, so its drift is (7/12) 0.4 - (5/12) 0.6 = -1/60.
    """
    ops = np.zeros((3, 3, 3), dtype=complex)
    ops[0, 0, 0], ops[0, 1, 1] = np.sqrt(0.7), np.sqrt(0.2)
    ops[1, 0, 0], ops[1, 1, 1] = np.sqrt(0.3), np.sqrt(0.8)
    ops[2, :, 2] = np.sqrt(0.75 * (1 - stay)), np.sqrt(0.25 * (1 - stay)), np.sqrt(stay)
    return KrausModel(1, 3, ((1,), (-1,), (0,)), ops)


def mirrored_breakdown_model():
    """``breakdown_example`` with a mirrored third level: three 1 x 1 blocks.

    Upper triangular on steps +1, -1 and 0, so every tilted map is triangular
    and lambda_u is the largest of the diagonal radii ``3/4 e^-u``, ``cosh u``
    and ``3/4 e^u``: the top block goes mirrored -> ray -> corner, with kinks
    at -ln 2 / 2 and ln 2 / 2.  The step-0 operator carries the third
    column's corner entry, which keeps the columns orthonormal.
    """
    s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
    ops = np.array([
        [[1 / s2, 1 / (2 * s2), 0], [0, s3 / 2, 0], [0, 0, 0]],
        [[1 / s2, -1 / (2 * s2), 0], [0, 0, 0], [0, 0, s3 / 2]],
        [[0, 0, 1 / 2], [0, 0, 0], [0, 0, 0]],
    ], dtype=complex)
    return KrausModel(1, 3, ((1,), (-1,), (0,)), ops)


def equal_modulus_diagonal_model():
    """Diagonal pair whose two branch laws coincide (entries differ by phase).

    Situation 3 with equal branch means: a single Gaussian limit exists even
    though the auxiliary map is reducible.
    """
    a = 0.6
    b = 0.6 * np.exp(0.7j)
    c = 0.8
    d = 0.8 * np.exp(-0.3j)
    ops = np.array([
        [[a, 0.0], [0.0, b]],
        [[c, 0.0], [0.0, d]],
    ], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def rotated(model, seed):
    """``model`` in another internal basis: each L_s becomes U L_s U^dag, for
    a Haar-random unitary U drawn from ``seed``.  It is the same walk."""
    rng = np.random.default_rng(seed)
    n = model.internal_dim
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return KrausModel(model.lattice_dim, n, model.displacements,
                      u @ model.operators @ u.conj().T)


def bench_document(seed, name):
    """Text of one seeded benchmark document (``perfbench/docs.py``)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import docs
    finally:
        sys.path.remove(str(bench))
    return docs.generate(seed)[name]


def moved_step_document(step, seed=31):
    """The seeded n = 4 benchmark document with its +1 step moved to ``step``.

    Return words then need ``step`` steps of -1, so listing every word of
    every length up to the first return grows as 2^step.
    """
    doc = json.loads(bench_document(seed, "n4.json"))
    assert doc["steps"][0]["displacement"] == [1]
    doc["steps"][0]["displacement"] = [step]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def huge_entry_document(seed=31, entry=1e308):
    """The seeded n = 4 benchmark document with its first entry's real part
    set to ``entry``: finite, but from 1e100 its stochasticity residual
    overflows, to inf and from 1e200 to NaN."""
    doc = json.loads(bench_document(seed, "n4.json"))
    doc["steps"][0]["matrix"][0][0]["re"] = entry
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def block_cyclic_model(seed, sizes, steps=NN_STEPS):
    """Valid model whose operators all map block j - 1 into block j (mod d).

    The internal space splits into d = len(sizes) coordinate blocks; for each
    source block the operators' blocks stack into an isometry (QR of a
    complex Gaussian), so sum_s L_s^dag L_s = Id and the map has period d.
    """
    rng = np.random.default_rng(seed)
    k, n = len(steps), sum(sizes)
    starts = np.cumsum((0,) + tuple(sizes))
    ops = np.zeros((k, n, n), dtype=complex)
    for j in range(len(sizes)):
        src, dst = (j - 1) % len(sizes), j
        rows, cols = sizes[dst], sizes[src]
        g = rng.normal(size=(k * rows, cols)) + 1j * rng.normal(size=(k * rows, cols))
        q, _ = np.linalg.qr(g)
        for i in range(k):
            ops[i, starts[dst]:starts[dst] + rows,
                starts[src]:starts[src] + cols] = q[i * rows:(i + 1) * rows]
    return KrausModel(len(steps[0]), n, steps, ops)


#: The 45 size tuples of the valid ``block_cyclic_model`` walks on the steps
#: +-1 with 2-4 blocks of sizes 1-3, not all equal, and n <= 8: each block is
#: the image of the one before it, so it is at least half that block's size.
UNEQUAL_BLOCK_SIZES = tuple(
    sizes for d in (2, 3, 4) for sizes in itertools.product((1, 2, 3), repeat=d)
    if len(set(sizes)) > 1 and sum(sizes) <= 8
    and all(2 * sizes[j] >= sizes[j - 1] for j in range(d)))


def block_sum_model(*models):
    """Direct sum of models on the same steps: block-diagonal operators.

    Each summand's subspace is invariant, so the sum is reducible and its
    tilted radius is the largest of the summands' radii.
    """
    steps = models[0].displacements
    assert all(m.displacements == steps for m in models)
    n = sum(m.internal_dim for m in models)
    ops = np.zeros((len(steps), n, n), dtype=complex)
    at = 0
    for m in models:
        k = m.internal_dim
        ops[:, at:at + k, at:at + k] = m.operators
        at += k
    return KrausModel(models[0].lattice_dim, n, steps, ops)


def chain_walk(q, p10=0.5):
    """Two-state classical chain as a two-level walk: L_+ = diag(sqrt(1 - p01),
    sqrt(1 - p10)) stays, L_- = [[0, sqrt(p10)], [sqrt(p01), 0]] jumps.

    p01 is chosen so that the stationary weight of state 1 is ``q``: the
    unique fixed point is diag(1 - q, q), with minimum eigenvalue q, and the
    untilted map has the eigenvalue 1 - p01 - p10 next to 1.
    """
    p01 = q * p10 / (1 - q)
    ops = np.array([np.diag([np.sqrt(1 - p01), np.sqrt(1 - p10)]),
                    [[0, np.sqrt(p10)], [np.sqrt(p01), 0]]], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def nilpotent_step_model():
    """Irreducible two-level walk whose +1 operator is nilpotent.

    At a tilt u of a few hundred the -1 term's weight exp(-2u) underflows,
    and the shifted map is the nilpotent +1 term alone: spectral radius 0.
    """
    ops = np.array([[[0, 0.6], [0, 0]], [[0, 0.8], [1, 0]]], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def imaginary_ray_breakdown_model():
    """``breakdown_example`` in a basis that takes its invariant ray e0 to
    (1, i) / sqrt 2 and e1 to e^{i pi/4} (i, 1) / sqrt 2.

    The unique fixed point is the pure state on that ray; its entries tie in
    modulus, and rounding makes the imaginary coherence the largest entry
    of the computed eigenvector.
    """
    m = builtin("breakdown_example")
    u = np.column_stack([np.array([1, 1j]) / np.sqrt(2),
                         np.array([1j, 1]) / np.sqrt(2) * np.exp(1j * np.pi / 4)])
    return KrausModel(1, 2, m.displacements, u @ m.operators @ u.conj().T)


def near_scalar_model(delta):
    """Valid two-level walk (I / sqrt 2 +- delta N) with N = [[0, 1], [0, 1]].

    Both operators have the rays of N, e0 and (1, 1) / sqrt 2, which are not
    orthogonal; the stochasticity residual is 4 delta^2, about 4e-12 at
    delta = 1e-6.
    """
    n = np.array([[0, 1], [0, 1]])
    ops = np.array([np.eye(2) / np.sqrt(2) + delta * n,
                    np.eye(2) / np.sqrt(2) - delta * n], dtype=complex)
    return KrausModel(1, 2, NN_STEPS, ops)


def leaning_ray_model(eps):
    """Valid two-level walk on steps 0, +1, -1 whose ray e0 leaks by ``eps``
    relative under the +1 and -1 operators, aligned with their entry beta.

    L_s = [[alpha_s, gamma_s], [delta_s, beta_s]] with alpha = (a, c, c),
    beta = (-a, c, -c), delta = (0, eps, -eps) and gamma chosen so that
    sum_s L_s^dag L_s = I: then sum_s conj(alpha_s) gamma_s = -2 c eps,
    which is the triangular normal form's third identity, about 1.41 eps.
    The ray stays common for eps up to ``PROJECTION_TOL``.
    """
    a = 1e-3
    c = np.sqrt((1 - a * a) / 2)
    alpha, beta = np.array([a, c, c]), np.array([-a, c, -c])
    delta = np.array([0.0, eps, -eps])
    gamma = np.array([0.0, -np.sum(delta * beta) / c, 0.0])
    ops = np.array([[[x, g], [d, b]] for x, b, g, d in zip(alpha, beta, gamma, delta)],
                   dtype=complex)
    return KrausModel(1, 2, ((0,), (1,), (-1,)), ops)
