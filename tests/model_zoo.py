"""Seeded generators of valid random models for the test suite.

Every construction satisfies sum_s L_s^dag L_s = Id by design: the generic
family stacks the operators into the first block column of a unitary (QR of a
complex Gaussian), and the structured two-level families parametrize their
constraint manifolds with angles and phases.  All randomness goes through
numpy's seeded Generator so samples are identical across runs.
"""
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
