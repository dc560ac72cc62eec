"""Canonical forms of real antisymmetric matrices under orthogonal conjugation.

Every real antisymmetric matrix M of even dimension 2N can be brought to the
block-diagonal form

    O M O^T = diag(l_1 J2, ..., l_N J2),   J2 = [[0, -1], [1, 0]],

with O orthogonal and l_1 >= ... >= l_N >= 0.  The l_i are the Williamson
eigenvalues of M; they coincide with the singular values of M, each taken once
per doubly degenerate pair.

A matrix is chiral when every (even, even) and (odd, odd) entry is exactly
zero, as are the states and couplings of real Hamiltonians.  The routes that
find one by ``_chiral_block`` work on its N x N off-diagonal blocks alone:
``antisymmetrize`` checks them, ``CovarianceMatrix`` squares them,
``williamson_form`` takes one SVD of the even-odd block, and
``pair_spectrum`` takes the singular values of blocks of them;
``ground_state_fcm`` knows the coupling of a real Hamiltonian to be chiral.
Any other M first takes a Hessenberg reduction by LAPACK's dgehrd and dorghr,
which numpy does not expose.  ``_lapack`` takes them, and the dense oracle's
zheevr, from SciPy's compiled LAPACK module on first use, loaded from its file
alone: the chiral route runs on numpy alone, and no route imports scipy.linalg.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import InvalidInputError

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# Largest max|M + M^T| that antisymmetrize accepts.
_ANTISYMMETRY_TOL = 1e-12
# Largest max|Q Q^T - 1| of an orthogonal matrix.
_ORTHOGONALITY_TOL = 1e-12


def _scipy_linalg_dir() -> str:
    """SciPy's linalg directory, found without importing SciPy; '' when SciPy is not installed."""
    scipy = importlib.util.find_spec("scipy")
    return os.path.join(scipy.submodule_search_locations[0], "linalg") if scipy else ""


@lru_cache(maxsize=None)
def _flapack():
    """SciPy's compiled LAPACK module ``scipy.linalg._flapack``, or None when its file is absent.

    The f2py extension is loaded from its file in ``_scipy_linalg_dir()`` by
    importlib's extension loader, which imports numpy alone, not the hundreds
    of modules of scipy.linalg.  It is then taken out of ``sys.modules``, so
    a later ``import scipy.linalg`` sets up its package as usual, and gets the
    same routine objects.  Once scipy.linalg is imported, its module is used.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg_dir = _scipy_linalg_dir()
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    return None


@lru_cache(maxsize=None)
def _lapack(names: tuple[str, ...], dtype) -> tuple:
    """SciPy's LAPACK routines ``names`` for ``dtype`` (float64 or complex128).

    The one place in the package that loads SciPy.  Each routine is the
    attribute d<name> or z<name> of ``_flapack()``, the object that
    scipy.linalg.get_lapack_funcs returns, which is the fallback when the
    module's file is absent.  The routines are called directly because on the
    small blocks of the dense oracle the argument checks of
    scipy.linalg.hessenberg or eigh take longer than the work.
    """
    flapack = _flapack()
    if flapack is None:
        from scipy.linalg import get_lapack_funcs

        return tuple(get_lapack_funcs(names, dtype=dtype))
    prefix = "z" if np.dtype(dtype).kind == "c" else "d"
    return tuple(getattr(flapack, prefix + name) for name in names)


def j_blocks(n_blocks: int) -> np.ndarray:
    """Direct sum of ``n_blocks`` copies of J2."""
    return lambda_blocks(np.ones(n_blocks))


def lambda_blocks(lambdas: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix diag(l_1 J2, ..., l_N J2), for l >= 0 the bits of kron(diag(l), J2)."""
    diagonal = np.diag(np.asarray(lambdas, dtype=float))
    out = np.zeros((2 * len(diagonal),) * 2)
    out[0::2, 1::2] = -diagonal  # -0.0 off the diagonal, as kron's 0.0 * -1.0
    out[1::2, 0::2] = diagonal
    return out


def antisymmetrize(mat: np.ndarray) -> np.ndarray:
    """Validate and return the antisymmetric part of a square matrix.

    Entries must be finite, and the deviation ``max|mat + mat^T|`` must not
    exceed 1e-12; larger violations indicate the caller did not pass an
    antisymmetric matrix.  One fused check forms the sums once and takes
    their max and -min as the deviation: a NaN or inf entry always leaves it
    non-finite, and only then are the entries tested, to word the error.  A
    chiral input (see ``_chiral_block``) is checked on its off-diagonal
    blocks alone: its mat + mat^T holds zeros and, twice, the sums B + C^T
    with B = mat[0::2, 1::2] and C = mat[1::2, 0::2], so the deviation and
    every message are the same.  The result is a new array with the bits of
    ``0.5 * (mat - mat^T)``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {mat.shape}")
    block = _chiral_block(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = mat + mat.T if block is None else block + mat[1::2, 0::2].T
    deviation = max(sums.max(initial=0.0), -sums.min(initial=0.0))
    if not deviation <= _ANTISYMMETRY_TOL:
        if not np.isfinite(mat).all():
            raise InvalidInputError("matrix has non-finite entries")
        raise InvalidInputError(
            f"matrix is not antisymmetric: max|M + M^T| = {deviation:.3e} > "
            f"{_ANTISYMMETRY_TOL:.3e}"
        )
    with np.errstate(over="ignore"):
        out = np.subtract(mat, mat.T, out=sums if block is None else None)
    out *= 0.5
    return out


def _chiral_block(mat: np.ndarray):
    """The even-odd block ``mat[0::2, 1::2]`` of a chiral matrix, else None.

    A matrix is chiral when every (even, even) and (odd, odd) entry is exactly
    zero, as in the covariance and coupling matrices of real Hamiltonians;
    the module docstring lists the routes that take the N x N blocks of one.
    """
    if mat[0::2, 0::2].any() or mat[1::2, 1::2].any():
        return None
    return mat[0::2, 1::2]


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


def williamson_form(mat: np.ndarray) -> WilliamsonForm:
    """Compute the antisymmetric canonical form by the skew route of Ward & Gray.

    A chiral matrix is [[0, B], [-B^T, 0]] in even-odd order, with the
    N x N block B = M[0::2, 1::2].  The SVD B = U S V^T gives the l_i = S_ii
    and the rows O[0::2] = V^T on the odd columns, O[1::2] = U^T on the even
    columns.  The covariance and coupling matrices of real Hamiltonians (real
    C and A) are chiral, so they need only this one N x N SVD.

    Any other input is first brought to chiral form by an orthogonal
    Hessenberg reduction Q^T M Q, which for an antisymmetric matrix is
    tridiagonal with subdiagonal e; its B is the lower bidiagonal
    B[k, k] = -e[2k], B[k+1, k] = e[2k+1], and the rows become
    O[0::2] = (Q[:, 1::2] V)^T, O[1::2] = (Q[:, 0::2] U)^T.  See R. C. Ward
    and L. J. Gray, "Eigensystem computation for skew-symmetric matrices and a
    class of symmetric matrices", ACM TOMS 4 (1978) 278.

    Deterministic for fixed input; the l_i come in descending order.
    """
    return _williamson_core(antisymmetrize(mat))


@lru_cache(maxsize=256)
def _hessenberg_lwork(dim: int) -> int:
    gehrd_lwork, orghr_lwork = _lapack(("gehrd_lwork", "orghr_lwork"), np.float64)
    return int(max(gehrd_lwork(dim, lo=0, hi=dim - 1)[0], orghr_lwork(dim, lo=0, hi=dim - 1)[0]))


def _williamson_core(m: np.ndarray) -> WilliamsonForm:
    """``williamson_form`` of an m that ``antisymmetrize`` returns bit for bit; may overwrite m."""
    dim = m.shape[0]
    if dim % 2:
        raise InvalidInputError(f"dimension must be even, got {dim}")
    if dim == 0:
        return WilliamsonForm(np.zeros((0, 0)), np.zeros(0))

    block = _chiral_block(m)
    chiral = block is not None
    if not chiral:
        gehrd, orghr = _lapack(("gehrd", "orghr"), np.float64)
        n, hi, lwork = dim // 2, dim - 1, _hessenberg_lwork(dim)
        h, tau, _ = gehrd(m, lo=0, hi=hi, lwork=lwork, overwrite_a=True)
        e = np.diagonal(h, -1).copy()
        q, _ = orghr(h, tau, lo=0, hi=hi, lwork=lwork, overwrite_a=True)
        block = np.diag(-e[0::2])
        block.reshape(-1)[n::n + 1] = e[1::2]  # the subdiagonal
    u, sigma, vt = np.linalg.svd(block)
    orthogonal = np.zeros((dim, dim))
    if chiral:
        orthogonal[0::2, 1::2] = vt
        orthogonal[1::2, 0::2] = u.T
    else:
        orthogonal[0::2] = vt @ q[:, 1::2].T
        orthogonal[1::2] = u.T @ q[:, 0::2].T
    return WilliamsonForm(orthogonal, np.abs(sigma))


def is_orthogonal(mat: np.ndarray) -> bool:
    """True iff ``max|Q Q^T - 1| <= 1e-12``.  Non-square input returns False."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    if mat.size == 0:
        return True
    return np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0]))) <= _ORTHOGONALITY_TOL
