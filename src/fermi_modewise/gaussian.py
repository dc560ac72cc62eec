"""Covariance-matrix representation of fermionic Gaussian states.

A state of N fermion modes is represented by the real antisymmetric 2N x 2N
matrix M with M_ab = Im<g_a g_b>, where the quadratures of mode i occupy
rows/columns 2i and 2i+1 (0-based): g_{2i} = b_i + b_i^dag and
g_{2i+1} = i(b_i - b_i^dag).  Physical states have all Williamson eigenvalues
in [0, 1]; pure states satisfy M^2 = -1 and isotropic states M^2 = -l0^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .canonical import antisymmetrize, j_blocks, lambda_blocks, williamson_form
from .errors import InvalidInputError

_POTRF = get_lapack_funcs(("potrf",), dtype=np.float64)[0]

PHYSICALITY_TOL = 1e-9
# Largest max|M^2 + l0^2| of an isotropic state; absolute, not relative to l0^2.
ISOTROPY_TOL = 1e-8
# Largest |l0 - 1| of an isotropic state that counts as pure.
PURITY_TOL = 1e-9
# Largest single-particle energy that flags a degenerate ground state.
_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class CovarianceMatrix:
    """Fermion covariance matrix of ``n_modes`` modes, frozen and read-only.

    The constructor antisymmetrizes the input (rejecting deviations beyond
    1e-12) and forms M^2 once.  It rejects unphysical matrices, whose
    Williamson eigenvalues exceed 1 + 1e-9, and keeps the isotropy fit
    ``lambda0_sq`` = -tr(M^2) / 2N and ``isotropy_deviation`` = max|M^2 + lambda0_sq|.
    """

    matrix: np.ndarray
    lambda0_sq: float = field(init=False, repr=False, compare=False)
    isotropy_deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = antisymmetrize(self.matrix)
        dim = m.shape[0]
        if dim % 2:
            raise InvalidInputError(f"covariance matrix dimension must be even, got {dim}")
        m.flags.writeable = False
        # M^2 has eigenvalues -l_k^2; its diagonal is shifted in place.
        with np.errstate(over="ignore", invalid="ignore"):
            msq = m @ m
            diagonal = msq.reshape(-1)[:: dim + 1]
            lam0_sq = -float(np.trace(msq)) / max(dim, 1)
            diagonal += lam0_sq
            deviation = float(max(msq.max(initial=0.0), -msq.min(initial=0.0)))
            # Every l_k <= 1 + tol iff (1 + tol)^2 + M^2 is positive semidefinite;
            # entries that overflow M^2 leave the deviation non-finite.
            diagonal += (1.0 + PHYSICALITY_TOL) ** 2 - lam0_sq
        if not np.isfinite(deviation) or _POTRF(msq.T, overwrite_a=True, clean=False)[1]:
            # The singular values, the Williamson eigenvalues twice, word the error.
            sigma = np.linalg.svd(m, compute_uv=False)
            bad = sigma[sigma > 1.0 + PHYSICALITY_TOL]
            if bad.size:
                raise InvalidInputError(
                    "unphysical covariance matrix: Williamson eigenvalues "
                    f"{np.unique(np.round(bad, 12)).tolist()} exceed 1 + {PHYSICALITY_TOL}"
                )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "lambda0_sq", lam0_sq)
        object.__setattr__(self, "isotropy_deviation", deviation)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass
class QuadraticHamiltonian:
    """Quadratic fermion Hamiltonian sum_ij C_ij b_i^dag b_j + (A_ij b_i^dag b_j^dag + h.c.).

    ``hopping`` is the hermitian matrix C, ``pairing`` the antisymmetric
    matrix A, both N x N complex.
    """

    hopping: np.ndarray
    pairing: np.ndarray

    def __post_init__(self):
        self.hopping = np.asarray(self.hopping, dtype=complex)
        self.pairing = np.asarray(self.pairing, dtype=complex)
        for name, mat in (("hopping", self.hopping), ("pairing", self.pairing)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InvalidInputError(f"{name} matrix must be square, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise InvalidInputError(f"{name} matrix has non-finite entries")
        if self.hopping.shape != self.pairing.shape:
            raise InvalidInputError(
                f"hopping {self.hopping.shape} and pairing {self.pairing.shape} differ"
            )
        herm = np.max(np.abs(self.hopping - self.hopping.conj().T)) if self.hopping.size else 0.0
        if herm > 1e-12:
            raise InvalidInputError(f"hopping matrix is not hermitian: max|C - C^dag| = {herm:.3e}")
        anti = np.max(np.abs(self.pairing + self.pairing.T)) if self.pairing.size else 0.0
        if anti > 1e-12:
            raise InvalidInputError(f"pairing matrix is not antisymmetric: max|A + A^T| = {anti:.3e}")

    @property
    def n_modes(self) -> int:
        return self.hopping.shape[0]


@dataclass
class MajoranaHamiltonian:
    """Quadrature form (i/4) g^T h g + offset of a quadratic Hamiltonian."""

    coupling: np.ndarray
    offset: float

    def __post_init__(self):
        self.coupling = antisymmetrize(self.coupling)


@dataclass
class Bipartition:
    """Split of modes {0..N-1} into two disjoint ordered groups."""

    a_modes: tuple[int, ...]
    b_modes: tuple[int, ...]

    def __post_init__(self):
        self.a_modes = tuple(int(i) for i in self.a_modes)
        self.b_modes = tuple(int(i) for i in self.b_modes)
        n = len(self.a_modes) + len(self.b_modes)
        seen = set(self.a_modes) | set(self.b_modes)
        if len(seen) != n:
            raise InvalidInputError("bipartition contains repeated mode indices")
        if seen and (min(seen) < 0 or max(seen) >= n):
            raise InvalidInputError(
                f"bipartition indices must cover 0..{n - 1}, got {sorted(seen)}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.a_modes) + len(self.b_modes)


def quadrature_indices(modes) -> np.ndarray:
    """Row/column indices of the quadratures of the given modes, in order."""
    modes = np.asarray(list(modes), dtype=int)
    return np.column_stack((2 * modes, 2 * modes + 1)).reshape(-1)


# Twice the coefficients of b_i^dag and b_i on the quadratures (g_2i, g_2i+1).
_CRE = np.array([1.0, 1.0j])
_ANN = _CRE.conj()


def hamiltonian_to_majorana(ham: QuadraticHamiltonian) -> MajoranaHamiltonian:
    """Rewrite a quadratic Hamiltonian as (i/4) g^T h g + offset.

    Uses b_i = (g_{2i} - i g_{2i+1}) / 2; ``h`` is real antisymmetric and the
    offset collects the normal-ordering constant.
    """
    # Each term C_ij b_i^dag b_j, A_ij b_i^dag b_j^dag and -A*_ij b_i b_j adds
    # its coefficient times the outer product of the two operators' quadrature
    # coefficients to the 2x2 mode block (i, j) of the quadrature form.
    quad = 0.25 * (
        np.kron(ham.hopping, np.outer(_CRE, _ANN))
        + np.kron(ham.pairing, np.outer(_CRE, _CRE))
        - np.kron(ham.pairing.conj(), np.outer(_ANN, _ANN))
    )
    offset = float(np.trace(quad).real)
    anti = 0.5 * (quad - quad.T)
    residual = np.max(np.abs(anti.real)) if anti.size else 0.0
    if residual > 1e-10:
        raise InvalidInputError(
            f"hamiltonian does not reduce to a real quadrature form (residual {residual:.3e})"
        )
    return MajoranaHamiltonian(4.0 * anti.imag, offset)


@dataclass
class GroundStateFCM:
    """Ground-state covariance matrix with its energy and degeneracy flag."""

    fcm: CovarianceMatrix
    energy: float
    degenerate: bool = field(default=False)


def ground_state_fcm(ham: QuadraticHamiltonian) -> GroundStateFCM:
    """Ground-state covariance matrix of a quadratic Hamiltonian.

    With O h O^T = diag(e_k J2), e_k >= 0, the minimizing pure state is the
    vacuum of the transformed modes: M = O^T diag(J2) O, with ground energy
    offset - sum(e_k) / 2.  Any e_k <= 1e-8 flags a (nearly) degenerate
    ground manifold; the returned M is still deterministic.
    """
    maj = hamiltonian_to_majorana(ham)
    form = williamson_form(maj.coupling)
    # O^T diag(J2) O = X^T - X with X = sum_k O[2k]^T O[2k+1]
    x = form.orthogonal[0::2].T @ form.orthogonal[1::2]
    fcm = CovarianceMatrix(x.T - x)
    energy = maj.offset - 0.5 * float(np.sum(form.lambdas))
    degenerate = bool(np.any(form.lambdas <= _DEGENERACY_TOL))
    return GroundStateFCM(fcm, energy, degenerate)


def isotropy_parameter(state: CovarianceMatrix):
    """Return l0 >= 0 with M^2 = -l0^2 within 1e-8, or None; reads the state's fit."""
    if state.isotropy_deviation > ISOTROPY_TOL:
        return None
    return abs(float(np.sqrt(max(state.lambda0_sq, 0.0))))


def is_pure(state: CovarianceMatrix) -> bool:
    """True iff the state is isotropic with |l0 - 1| <= 1e-9, as ``ModewiseDecomposition.pure``."""
    lambda0 = isotropy_parameter(state)
    return lambda0 is not None and abs(lambda0 - 1.0) <= PURITY_TOL


def restrict(state: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Reduced covariance matrix on a subset of modes, in the given order."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise InvalidInputError(f"repeated mode index in {modes}")
    for i in modes:
        if not 0 <= int(i) < state.n_modes:
            raise InvalidInputError(f"mode index {i} out of range for {state.n_modes} modes")
    q = quadrature_indices(modes)
    return CovarianceMatrix(state.matrix[np.ix_(q, q)])


def haar_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix, sign-fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_pure_fcm(n_modes: int, seed) -> CovarianceMatrix:
    """Random pure-state covariance matrix R diag(J2) R^T, R Haar orthogonal."""
    if n_modes < 1:
        raise InvalidInputError(f"n_modes must be >= 1, got {n_modes}")
    r = haar_orthogonal(2 * n_modes, seed)
    return CovarianceMatrix(r @ j_blocks(n_modes) @ r.T)


def isotropic_fcm(n_modes: int, lambda0: float, seed) -> CovarianceMatrix:
    """Random isotropic covariance matrix with M^2 = -lambda0^2."""
    if not 0.0 <= lambda0 <= 1.0:
        raise InvalidInputError(f"lambda0 must lie in [0, 1], got {lambda0}")
    return CovarianceMatrix(lambda0 * random_pure_fcm(n_modes, seed).matrix)


def diagonal_fcm(lambdas) -> CovarianceMatrix:
    """Covariance matrix diag(l_1 J2, ..., l_N J2) from per-mode eigenvalues.

    Covers product mixed states, e.g. thermal occupations l_i = tanh(beta e_i / 2).
    """
    lambdas = np.asarray(list(lambdas), dtype=float)
    if lambdas.size == 0:
        raise InvalidInputError("lambdas must contain at least one eigenvalue")
    if np.any(lambdas < 0.0) or np.any(lambdas > 1.0 + PHYSICALITY_TOL):
        raise InvalidInputError(f"per-mode eigenvalues must lie in [0, 1], got {lambdas.tolist()}")
    return CovarianceMatrix(lambda_blocks(lambdas))
