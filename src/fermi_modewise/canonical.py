"""Canonical forms of real antisymmetric matrices under orthogonal conjugation.

Every real antisymmetric matrix M of even dimension 2N can be brought to the
block-diagonal form

    O M O^T = diag(l_1 J2, ..., l_N J2),   J2 = [[0, -1], [1, 0]],

with O orthogonal and l_1 >= ... >= l_N >= 0.  The l_i are the Williamson
eigenvalues of M; they coincide with the singular values of M, each taken once
per doubly degenerate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .errors import InvalidInputError

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def j_blocks(n_blocks: int) -> np.ndarray:
    """Direct sum of ``n_blocks`` copies of J2."""
    return np.kron(np.eye(n_blocks), J2)


def lambda_blocks(lambdas: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix diag(l_1 J2, ..., l_N J2)."""
    lambdas = np.asarray(lambdas, dtype=float)
    return np.kron(np.diag(lambdas), J2)


def antisymmetrize(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate and return the antisymmetric part of a square matrix.

    Entries must be finite, and the deviation ``max|mat + mat^T|`` must not
    exceed ``tol``; larger violations indicate the caller did not pass an
    antisymmetric matrix.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix has non-finite entries")
    deviation = np.max(np.abs(mat + mat.T)) if mat.size else 0.0
    if deviation > tol:
        raise InvalidInputError(
            f"matrix is not antisymmetric: max|M + M^T| = {deviation:.3e} > {tol:.3e}"
        )
    return 0.5 * (mat - mat.T)


@dataclass
class WilliamsonForm:
    """Orthogonal transform and eigenvalues of the antisymmetric normal form.

    Attributes
    ----------
    orthogonal : np.ndarray
        Real orthogonal matrix O with O M O^T = diag(l_i J2).
    lambdas : np.ndarray
        Nonnegative eigenvalues l_i in descending order.
    """

    orthogonal: np.ndarray
    lambdas: np.ndarray

    @property
    def canonical(self) -> np.ndarray:
        return lambda_blocks(self.lambdas)


def williamson_form(mat: np.ndarray, sym_tol: float = 1e-12) -> WilliamsonForm:
    """Compute the antisymmetric canonical form via the real Schur decomposition.

    For antisymmetric input the real Schur form is block diagonal with 2x2
    antisymmetric blocks (plus 1x1 zeros for null directions).  Each block is
    normalized to +l J2 with l >= 0 by swapping its two rows where needed, and
    blocks are sorted by descending l (ties keep Schur output order).

    Deterministic for fixed input.
    """
    m = antisymmetrize(mat, sym_tol)
    dim = m.shape[0]
    if dim % 2:
        raise InvalidInputError(f"dimension must be even, got {dim}")
    if dim == 0:
        return WilliamsonForm(np.zeros((0, 0)), np.zeros(0))

    t, z = schur(m, output="real")

    # Collect 2x2 blocks (nonzero subdiagonal entry) and leftover null columns.
    blocks: list[tuple[float, np.ndarray, np.ndarray]] = []
    null_columns: list[np.ndarray] = []
    i = 0
    while i < dim:
        if i + 1 < dim and t[i + 1, i] != 0.0:
            b = t[i, i + 1]
            if b <= 0.0:
                blocks.append((-b, z[:, i], z[:, i + 1]))
            else:
                blocks.append((b, z[:, i + 1], z[:, i]))
            i += 2
        else:
            null_columns.append(z[:, i])
            i += 1
    for j in range(0, len(null_columns), 2):
        blocks.append((0.0, null_columns[j], null_columns[j + 1]))

    order = sorted(range(len(blocks)), key=lambda k: (-blocks[k][0], k))
    orthogonal = np.empty((dim, dim))
    lambdas = np.empty(dim // 2)
    for slot, k in enumerate(order):
        lam, row_a, row_b = blocks[k]
        lambdas[slot] = lam
        orthogonal[2 * slot] = row_a
        orthogonal[2 * slot + 1] = row_b
    return WilliamsonForm(orthogonal, lambdas)


def is_orthogonal(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ``max|Q Q^T - 1| <= tol``.  Non-square input returns False."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    if mat.size == 0:
        return True
    return np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0]))) <= tol


def is_orthogonal_symplectic(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the matrix is orthogonal and commutes with diag(J2, ..., J2)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2:
        raise InvalidInputError(f"dimension must be even, got {mat.shape[0]}")
    if not is_orthogonal(mat, tol):
        return False
    j = j_blocks(mat.shape[0] // 2)
    return np.max(np.abs(mat @ j - j @ mat)) <= tol
