"""Dense linear-algebra primitives shared by the rest of the package.

Conventions
-----------
* Matrices are vectorized by **column stacking**: ``vec(A) = A.flatten(order="F")``,
  so a sandwich map ``rho -> A rho B`` has superoperator ``kron(B.T, A)`` and a
  Kraus term ``rho -> L rho L^dag`` has superoperator ``kron(conj(L), L)``.
  :func:`kraus_products` forms these products; each model keeps its stack
  (``KrausModel.product_stack``), and every map the superoperator layer
  builds is a weighted sum over it.
* Eigenvalues are always reported sorted by decreasing modulus, ties broken by
  decreasing real part and then increasing imaginary part.
* Norms are Frobenius unless stated otherwise.
* :func:`eigendecompose` and :func:`project_to_state` also take a
  ``(T, N, N)`` stack of matrices, as the tilt grids of the superoperator
  layer need.  Each LAPACK stage is one stacked call, and every reduction
  whose result is returned runs matrix by matrix, so each row of a stack
  gets exactly the bits its matrix would get alone, whatever the stack
  around it.

Everything here wraps LAPACK (via numpy); no iterative or randomized solvers.
Eigenpairs carry no residual contract: each caller certifies the pairs it reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DERIVED_POSITIVITY_TOL
from .errors import (
    AssumptionError,
    HermiticityError,
    PositivityError,
    SingularRestrictionError,
    TraceGaugeError,
)

__all__ = [
    "vec",
    "unvec",
    "frob",
    "kraus_products",
    "choi_matrix",
    "EigenSystem",
    "eigendecompose",
    "traceless_basis",
    "solve_on_traceless",
    "PsdReport",
    "psd_check",
    "project_to_state",
]

#: Maximum matrix side length the dense eigensolver path is meant for (n^2 <= 64).
DENSE_DIM_LIMIT = 64


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).flatten(order="F")


def unvec(vector: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; ``n`` defaults to the square root of the length."""
    vector = np.asarray(vector)
    if n is None:
        n = int(round(np.sqrt(vector.size)))
    return vector.reshape((n, n), order="F")


def frob(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def _nonscalar(op: np.ndarray) -> bool:
    """Is ``op`` farther than 1e-10 from (tr op / n) I?  NaN counts as scalar."""
    n = op.shape[0]
    return frob(op - (np.trace(op) / n) * np.eye(n)) > 1e-10


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """The larger in norm of (a + a^dag) / 2 and (a - a^dag) / 2i, both
    Hermitian, for a matrix or each matrix of a stack (a tie keeps the first).
    An eigenvector of a Hermiticity-preserving map at a real eigenvalue is a
    phase times a Hermitian matrix, whose first part the phase fix may zero;
    at a degenerate eigenvalue both parts are eigenvectors."""
    adjoint = a.conj().swapaxes(-1, -2)
    h, k = (a + adjoint) / 2, (a - adjoint) / 2j
    side = a.shape[-2:]
    keep = [frob(x) >= frob(y) for x, y in zip(h.reshape(-1, *side), k.reshape(-1, *side))]
    return np.where(np.reshape(keep, a.shape[:-2] + (1, 1)), h, k)


def kraus_products(operators: np.ndarray) -> np.ndarray:
    """Stack of the Kraus-term superoperators ``kron(conj(L_k), L_k)``.

    Entry ``k`` is the column-stacking matrix of ``rho -> L_k rho L_k^dag``;
    any weighted map ``sum_k w_k L_k rho L_k^dag`` is a weighted sum of the
    stack's entries.
    """
    operators = np.asarray(operators, dtype=complex)
    return np.array([np.kron(op.conj(), op) for op in operators])


def choi_matrix(operators: np.ndarray) -> np.ndarray:
    """Choi matrix ``sum_k vec(L_k) vec(L_k)^dag`` of a Kraus-presented map.

    The map is completely positive iff this matrix is PSD.
    """
    vs = [vec(op) for op in np.asarray(operators, dtype=complex)]
    return sum(np.outer(v, v.conj()) for v in vs)


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum of a (small) dense matrix.

    ``values`` are sorted by decreasing modulus (ties: decreasing real part,
    then increasing imaginary part); ``vectors[:, k]`` is the unit right
    eigenvector for ``values[k]``.

    For a stack both arrays gain a leading axis: ``values[t]`` and
    ``vectors[t]`` are the spectrum of matrix ``t``.
    """

    values: np.ndarray
    vectors: np.ndarray


def check_dense_side(side: int) -> None:
    """Raise :class:`AssumptionError` beyond the dense eigensolver's cap."""
    if side > DENSE_DIM_LIMIT:
        raise AssumptionError(
            f"dense eigensolver limited to side {DENSE_DIM_LIMIT}, got {side}"
        )


def _sort_order(values: np.ndarray) -> np.ndarray:
    # lexsort uses the last key as primary, and sorts along the last axis,
    # so a stack of spectra sorts row by row.
    return np.lexsort((values.imag, -values.real, -np.abs(values)))


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Dense eigendecomposition with the package's ordering and phases.

    Raises :class:`AssumptionError` for non-square input or a side beyond
    ``DENSE_DIM_LIMIT``.  No pair is certified here: each caller gates the
    pairs it reads, where it reads them.  A ``(T, N, N)`` stack gives
    ``(T, N)`` values and ``(T, N, N)`` vectors, each row what its matrix
    alone would give, from one stacked ``eig``.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise AssumptionError(f"expected a square matrix, got shape {a.shape}")
    check_dense_side(a.shape[-1])
    # One matrix is a stack of one, returned without the stack axis.
    stack = a if a.ndim == 3 else a[None]
    values, vectors = np.linalg.eig(stack)
    rows = np.arange(len(stack))[:, None]
    order = _sort_order(values)
    values = values[rows, order]
    # Gathered as rows of the transpose, so each matrix of eigenvectors is
    # column-major, as a column gather of one matrix leaves it.
    vectors = vectors.swapaxes(1, 2)[rows, order].swapaxes(1, 2)
    # Fix each eigenvector's phase: largest-modulus component made real positive.
    pivots = vectors[rows, np.abs(vectors).argmax(axis=1), np.arange(stack.shape[2])]
    moduli = np.abs(pivots)
    phases = np.ones_like(pivots)
    nonzero = moduli > 0
    phases[nonzero] = moduli[nonzero] / pivots[nonzero]
    vectors = vectors * phases[:, None, :]
    if a.ndim == 2:
        values, vectors = values[0], vectors[0]
    return EigenSystem(values=values, vectors=vectors)


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis (as columns of an ``n^2 x (n^2-1)`` array) of the
    traceless subspace of ``n x n`` matrices, in vectorized form."""
    row = vec(np.eye(n, dtype=complex)).conj()[None, :]
    # The right singular vectors after the first span the row's null space;
    # the basis is returned row-major.
    return np.ascontiguousarray(np.linalg.svd(row)[2][1:].conj().T)


def solve_on_traceless(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a(x) = b`` for the unique traceless matrix ``x``.

    ``a`` is a superoperator matrix whose restriction to the traceless subspace
    must be invertible (smallest restricted singular value > 1e-12 ||a||); ``b``
    must be traceless up to 1e-10 max(1, ||b||), a gate that scales with ``b``
    as its rounding does.  The returned ``x`` has residual ||a(x) - b_0|| <=
    1e-10 ||b||, where b_0 = b - (tr b / n) I is the traceless part of ``b``,
    the part a traceless ``x`` can reach.  It is traceless by construction:
    ``x`` is the traceless basis times a vector, so |tr x| is rounding, under
    3e-16 ||x|| for n <= 8.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if a.shape != (n * n, n * n):
        raise AssumptionError(
            f"superoperator shape {a.shape} does not match matrix side {n}")
    tr_b = abs(complex(np.trace(b)))
    norm_b = frob(b)
    trace_gate = 1e-10 * max(1.0, norm_b)
    if tr_b > trace_gate:
        raise TraceGaugeError(
            f"right-hand side has |trace| = {tr_b:.3e} > 1e-10 * max(1, ||b||) "
            f"= {trace_gate:.3e}")
    if n == 1:
        # The traceless subspace of 1x1 matrices is {0}.
        return np.zeros((1, 1), dtype=complex)
    basis = traceless_basis(n)
    restricted = basis.conj().T @ a @ basis
    smin = np.linalg.svd(restricted, compute_uv=False)[-1]
    scale = max(frob(a), np.finfo(float).tiny)
    if smin <= 1e-12 * scale:
        raise SingularRestrictionError(
            f"restriction to the traceless subspace is singular "
            f"(sigma_min = {smin:.3e} <= 1e-12 * ||a|| = {1e-12 * scale:.3e})"
        )
    y = np.linalg.solve(restricted, basis.conj().T @ vec(b))
    x = unvec(basis @ y, n)
    # A traceless x reaches only b's traceless part; the trace the gate
    # above let through is no residual of the solve.
    residual = frob(unvec(a @ vec(x), n) - (b - np.trace(b) / n * np.eye(n)))
    if norm_b > 0 and residual > 1e-10 * norm_b:
        raise SingularRestrictionError(
            f"traceless solve residual {residual:.3e} exceeds 1e-10 * ||b||"
        )
    return x


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float


def psd_check(matrix: np.ndarray, tol: float) -> PsdReport:
    """Check positive semidefiniteness of a Hermitian matrix.

    The matrix must be Hermitian within ``tol`` (a ``config`` name) relative
    to its norm (raises :class:`HermiticityError` otherwise); ``is_psd``
    holds iff the minimum eigenvalue is >= ``-tol``.
    """
    m = np.asarray(matrix, dtype=complex)
    defect = frob(m - m.conj().T)
    scale = max(frob(m), np.finfo(float).tiny)
    if defect > tol * scale:
        raise HermiticityError(
            f"matrix deviates from Hermitian by {defect:.3e} (> {tol:.1e} * ||m||)"
        )
    eigenvalues = np.linalg.eigvalsh((m + m.conj().T) / 2)
    min_eig = float(eigenvalues[0])
    return PsdReport(is_psd=min_eig >= -tol, min_eigenvalue=min_eig)


def project_to_state(matrix: np.ndarray, what: str = "state") -> np.ndarray:
    """Turn an approximately-PSD eigenvector matrix into a bona fide density matrix.

    Hermitizes, flips the overall sign so the trace is positive, clips
    eigenvalues in ``[-DERIVED_POSITIVITY_TOL, 0)`` to zero (raising
    :class:`PositivityError` below it), and renormalizes to unit trace.  A
    ``(T, n, n)`` stack is projected matrix by matrix with one stacked
    ``eigh``; the error raised is that of the first matrix to fail the
    earliest check.
    """
    m = np.asarray(matrix, dtype=complex)
    stack = m.reshape((-1,) + m.shape[-2:])
    h = (stack + stack.conj().swapaxes(1, 2)) / 2
    tr = np.array([x.trace().real for x in h])
    flip = tr < 0
    if flip.any():
        h[flip] = -h[flip]
        tr[flip] = -tr[flip]
    for t in tr.tolist():
        if t <= 0 or not np.isfinite(t):
            raise PositivityError(f"{what} has non-positive trace {t:.3e}")
    h = h / tr[:, None, None]
    w, v = np.linalg.eigh(h)
    for low in w[:, 0].tolist():
        if low < -DERIVED_POSITIVITY_TOL:
            raise PositivityError(f"{what} has negative part {low:.3e} "
                                  f"beyond {DERIVED_POSITIVITY_TOL:.1e}")
    w = np.where(w < 0, 0.0, w)
    h = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
    tr = np.array([x.trace().real for x in h])
    return (h / tr[:, None, None]).reshape(m.shape)

