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

Everything here wraps LAPACK (via numpy) and adds the residual / tolerance
contracts the higher layers rely on; no iterative or randomized solvers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import POSITIVITY_TOL, RESIDUAL_TOL
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
    # lexsort uses the last key as primary.
    return np.lexsort((values.imag, -values.real, -np.abs(values)))


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Dense eigendecomposition with the package's ordering and residual contract.

    Raises :class:`AssumptionError` for non-square input or a side beyond
    ``DENSE_DIM_LIMIT``, and :class:`SingularRestrictionError` if residuals
    exceed ``RESIDUAL_TOL * ||A||_F`` (which would indicate a defective solve).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AssumptionError(f"expected a square matrix, got shape {a.shape}")
    check_dense_side(a.shape[0])
    values, vectors = np.linalg.eig(a)
    order = _sort_order(values)
    values = values[order]
    vectors = vectors[:, order]
    # Fix each eigenvector's phase: largest-modulus component made real positive.
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    moduli = np.abs(pivots)
    phases = np.ones_like(pivots)
    nonzero = moduli > 0
    phases[nonzero] = moduli[nonzero] / pivots[nonzero]
    vectors = vectors * phases[None, :]
    residuals = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    scale = max(frob(a), np.finfo(float).tiny)
    if np.any(residuals > RESIDUAL_TOL * scale):
        raise SingularRestrictionError(
            f"eigendecomposition residual {residuals.max():.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * ||A|| = {RESIDUAL_TOL * scale:.3e}"
        )
    return EigenSystem(values=values, vectors=vectors)


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis (as columns of an ``n^2 x (n^2-1)`` array) of the
    traceless subspace of ``n x n`` matrices, in vectorized form."""
    row = vec(np.eye(n, dtype=complex)).conj()[None, :]
    return scipy.linalg.null_space(row)


def solve_on_traceless(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a(x) = b`` for the unique traceless matrix ``x``.

    ``a`` is a superoperator matrix whose restriction to the traceless subspace
    must be invertible (smallest restricted singular value > 1e-12 ||a||); ``b``
    must be traceless up to 1e-10.  The returned ``x`` has |trace| <= 1e-12 and
    relative residual ||a(x) - b|| <= 1e-10 ||b||.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if a.shape != (n * n, n * n):
        raise AssumptionError(
            f"superoperator shape {a.shape} does not match matrix side {n}")
    tr_b = abs(complex(np.trace(b)))
    if tr_b > 1e-10:
        raise TraceGaugeError(f"right-hand side has |trace| = {tr_b:.3e} > 1e-10")
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
    norm_b = frob(b)
    residual = frob(unvec(a @ vec(x), n) - b)
    if norm_b > 0 and residual > 1e-10 * norm_b:
        raise SingularRestrictionError(
            f"traceless solve residual {residual:.3e} exceeds 1e-10 * ||b||"
        )
    if abs(complex(np.trace(x))) > max(1e-12, 1e-12 * frob(x)):
        raise TraceGaugeError("solution drifted off the traceless gauge")
    return x


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float


def psd_check(matrix: np.ndarray, tol: float = POSITIVITY_TOL) -> PsdReport:
    """Check positive semidefiniteness of a Hermitian matrix.

    The matrix must be Hermitian within ``tol`` relative to its norm (raises
    :class:`HermiticityError` otherwise); ``is_psd`` holds iff the minimum
    eigenvalue is >= ``-tol``.
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
    eigenvalues in ``[-1e-8, 0)`` to zero (raising :class:`PositivityError`
    below ``-1e-8``), and renormalizes to unit trace.
    """
    m = np.asarray(matrix, dtype=complex)
    h = (m + m.conj().T) / 2
    tr = float(np.trace(h).real)
    if tr < 0:
        h = -h
        tr = -tr
    if tr <= 0 or not np.isfinite(tr):
        raise PositivityError(f"{what} has non-positive trace {tr:.3e}")
    h = h / tr
    w, v = np.linalg.eigh(h)
    if w[0] < -1e-8:
        raise PositivityError(
            f"{what} eigenvector has negative part {w[0]:.3e} beyond 1.0e-08"
        )
    w = np.where(w < 0, 0.0, w)
    h = (v * w[None, :]) @ v.conj().T
    return h / float(np.trace(h).real)
