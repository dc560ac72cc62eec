"""Covariance-matrix representation of fermionic Gaussian states.

A state of N fermion modes is represented by the real antisymmetric 2N x 2N
matrix M with M_ab = Im<g_a g_b>, where the quadratures of mode i occupy
rows/columns 2i and 2i+1 (0-based): g_{2i} = b_i + b_i^dag and
g_{2i+1} = i(b_i - b_i^dag).  Physical states have all Williamson eigenvalues
in [0, 1]; pure states satisfy M^2 = -1 and isotropic states M^2 = -l0^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .canonical import _chiral_block, antisymmetrize, lambda_blocks, williamson_form
from .errors import InvalidInputError

if TYPE_CHECKING:
    from .fock import FockState

PHYSICALITY_TOL = 1e-9
# Largest max|M^2 + l0^2| of an isotropic state; absolute, not relative to l0^2.
ISOTROPY_TOL = 1e-8
# Largest |l0 - 1| of an isotropic state that counts as pure.
PURITY_TOL = 1e-9
# Largest single-particle energy that flags a degenerate ground state.
_DEGENERACY_TOL = 1e-8


def _positive_definite(sq: np.ndarray) -> bool:
    """Whether the Cholesky factorization of the lower triangle of ``sq`` succeeds."""
    try:
        np.linalg.cholesky(sq)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Fermion covariance matrix of ``n_modes`` modes, frozen and read-only.

    The constructor takes M from ``antisymmetrize`` (rejecting deviations
    beyond 1e-12) and forms M^2 once.  It rejects unphysical matrices, whose
    Williamson eigenvalues exceed 1 + 1e-9, and matrices whose entries
    overflow M to non-finite values, and keeps the isotropy fit
    ``lambda0_sq`` = -tr(M^2) / 2N and ``isotropy_deviation`` = max|M^2 + lambda0_sq|.
    A chiral M (see ``canonical._chiral_block``) squares to
    diag(-B B^T, -B^T B) in even-odd order with B = M[0::2, 1::2]: two N x N
    products replace the 2N x 2N one.  Physicality needs no factorization
    when the isotropy fit proves it: with dim the size of each squared block
    (N for a chiral M, 2N otherwise), dim * ``isotropy_deviation`` <=
    ((1 + 1e-9)^2 - ``lambda0_sq``) / 2 bounds every Williamson eigenvalue by
    1 + 1e-9 (Gershgorin).  Any other input takes a Cholesky factorization
    of each (1 + 1e-9)^2 + M^2 block.
    Two states are equal iff their matrices are equal entrywise.
    """

    matrix: np.ndarray
    lambda0_sq: float = field(init=False, repr=False)
    isotropy_deviation: float = field(init=False, repr=False)

    def __post_init__(self):
        m = antisymmetrize(self.matrix)
        block = _chiral_block(m)
        dim = m.shape[0]
        if dim % 2:
            raise InvalidInputError(f"covariance matrix dimension must be even, got {dim}")
        m.flags.writeable = False
        # M^2 has eigenvalues -l_k^2; a chiral M squares blockwise, with
        # M[1::2, 0::2] = -B^T, each copied once rather than once per product.
        with np.errstate(over="ignore", invalid="ignore"):
            if block is None:
                squares = [m @ m]
            else:
                b, minus_bt = (np.ascontiguousarray(m[p::2, 1 - p::2]) for p in (0, 1))
                squares = [b @ minus_bt, minus_bt @ b]
            lam0_sq = -sum(float(np.trace(sq)) for sq in squares) / max(dim, 1)
            deviations = []
            for sq in squares:
                # Each diagonal is shifted in place.
                diagonal = sq.reshape(-1)[:: sq.shape[0] + 1]
                diagonal += lam0_sq
                deviations.append(max(sq.max(initial=0.0), -sq.min(initial=0.0)))
                # Every l_k <= 1 + tol iff (1 + tol)^2 + M^2 is positive semidefinite.
                diagonal += (1.0 + PHYSICALITY_TOL) ** 2 - lam0_sq
            # np.max keeps a NaN, so entries that overflow M^2 leave it non-finite.
            deviation = float(np.max(deviations))
        # Gershgorin: every eigenvalue of a size x size block M^2 + lam0_sq lies
        # within size * deviation of zero, so every l_k^2 <= lam0_sq + size * deviation.
        # Within half the headroom below (1 + tol)^2, the other half covering
        # the rounding of M^2, that proves every l_k <= 1 + tol; a NaN proves nothing.
        proven = squares[0].shape[0] * deviation <= 0.5 * ((1.0 + PHYSICALITY_TOL) ** 2 - lam0_sq)
        if not proven and (not np.isfinite(deviation) or not all(map(_positive_definite, squares))):
            # The singular values, the Williamson eigenvalues twice, word the
            # error; entries near the float limit can overflow M itself.
            sigma = np.linalg.svd(m, compute_uv=False) if np.isfinite(m).all() else [np.nan]
            if np.isnan(sigma).any():
                raise InvalidInputError("covariance matrix entries overflow to non-finite values")
            bad = sigma[sigma > 1.0 + PHYSICALITY_TOL]
            if bad.size:
                raise InvalidInputError(
                    "unphysical covariance matrix: Williamson eigenvalues "
                    f"{np.unique(np.round(bad, 12)).tolist()} exceed 1 + {PHYSICALITY_TOL}"
                )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "lambda0_sq", lam0_sq)
        object.__setattr__(self, "isotropy_deviation", deviation)

    def __eq__(self, other):
        if not isinstance(other, CovarianceMatrix):
            return False
        return bool(np.array_equal(self.matrix, other.matrix))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic fermion Hamiltonian sum_ij C_ij b_i^dag b_j + (A_ij b_i^dag b_j^dag + h.c.).

    ``hopping`` is the hermitian matrix C, ``pairing`` the antisymmetric
    matrix A, both N x N.  The constructor rejects non-finite entries and
    deviations max|C - C^dag| or max|A + A^T| beyond 1e-12, and keeps
    read-only copies of both matrices: a validated Hamiltonian is frozen and
    cannot change.  The copies are float64, with the bits of the real parts,
    when neither matrix has a nonzero imaginary part (real input, or complex
    input whose imaginary parts are all zero); otherwise both are complex128.
    """

    hopping: np.ndarray
    pairing: np.ndarray

    def __post_init__(self):
        hopping, pairing = (np.asarray(mat) for mat in (self.hopping, self.pairing))
        for name, mat in (("hopping", hopping), ("pairing", pairing)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InvalidInputError(f"{name} matrix must be square, got {mat.shape}")
        if hopping.shape != pairing.shape:
            raise InvalidInputError(f"hopping {hopping.shape} and pairing {pairing.shape} differ")
        # New copies: float64 for real numbers, complex128 for anything else.
        hopping, pairing = (np.array(mat, dtype=float if mat.dtype.kind in "biuf" else complex)
                            for mat in (hopping, pairing))
        if any(np.iscomplexobj(mat) and mat.imag.any() for mat in (hopping, pairing)):
            hopping, pairing = (mat.astype(complex, copy=False) for mat in (hopping, pairing))
        else:
            hopping, pairing = (np.ascontiguousarray(mat.real) for mat in (hopping, pairing))
        # A NaN or inf entry always leaves its deviation non-finite, so the
        # entries are tested only after a deviation fails, to word the error.
        # A real C is its own conjugate, so the check allocates no copy of it.
        with np.errstate(invalid="ignore", over="ignore"):
            herm = np.max(np.abs(hopping - hopping.conj().T), initial=0.0)
            anti = np.max(np.abs(pairing + pairing.T), initial=0.0)
        for name, mat, deviation, failure in (
                ("hopping", hopping, herm, "is not hermitian: max|C - C^dag|"),
                ("pairing", pairing, anti, "is not antisymmetric: max|A + A^T|")):
            if not deviation <= 1e-12:
                if not np.isfinite(mat).all():
                    raise InvalidInputError(f"{name} matrix has non-finite entries")
                raise InvalidInputError(f"{name} matrix {failure} = {deviation:.3e}")
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)

    @property
    def n_modes(self) -> int:
        return self.hopping.shape[0]


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
    return (2 * modes[:, None] + np.arange(2)).reshape(-1)


def _majorana_blocks(ham: QuadraticHamiltonian, even_odd_only: bool = False) -> tuple[dict, float]:
    """The nonzero blocks ``{(p, q): h[p::2, q::2]}`` of ``hamiltonian_to_majorana``, and its offset.

    The diagonal blocks are formed only for a complex Hamiltonian, as a real
    one's are zero, and with ``even_odd_only`` only h[0::2, 1::2] is formed.
    """
    # Each term C_ij b_i^dag b_j, A_ij b_i^dag b_j^dag and -A*_ij b_i b_j adds
    # its coefficient times the outer product of the two operators' quadrature
    # coefficients, [[1, -i], [i, 1]], [[1, i], [i, -1]] and [[1, -i], [-i, -1]],
    # to the 2x2 mode block (i, j) of the quadrature form.  With C = c + ic'
    # and A = a + ia', the imaginary parts of four times the form's N x N
    # blocks quad[p::2, q::2], summed term by term, are x at [0][1] and y at
    # [1][0], from the real parts, and z at [p][p], from the imaginary parts.
    # The real part is symmetric, as the frozen Hamiltonian's C is hermitian
    # and its A antisymmetric, so only its diagonal is formed, for the offset.
    # Contiguous copies of the parts: the views of the complex arrays are strided.
    c, a = (np.ascontiguousarray(part) for part in (ham.hopping.real, ham.pairing.real))
    # Sums that overflow leave h non-finite, which its users refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = (a - c) + a, (c + a) + a
        blocks = {(0, 1): x - y.T}
        if not even_odd_only:
            blocks[1, 0] = y - x.T  # not -h[0::2, 1::2].T: zeros would change sign
            if np.iscomplexobj(ham.hopping):
                c_im, a_im = (np.ascontiguousarray(part) for part in (ham.hopping.imag, ham.pairing.imag))
                for p, z in enumerate(((c_im + a_im) + a_im, (c_im - a_im) - a_im)):
                    blocks[p, p] = z - z.T
        for block in blocks.values():
            block *= 0.5  # h = 2 Im(quad - quad^T)
        # Re tr(quad) / 4, summed as the complex trace sums it.
        dc, da = np.diagonal(c), np.diagonal(a)
        diagonal = np.zeros(2 * len(dc), dtype=complex)
        diagonal.real[0::2], diagonal.real[1::2] = (dc + da) - da, (dc - da) + da
        return blocks, 0.25 * float(diagonal.sum().real)


def hamiltonian_to_majorana(ham: QuadraticHamiltonian) -> tuple[np.ndarray, float]:
    """Rewrite a quadratic Hamiltonian as (i/4) g^T h g + offset; returns ``(h, offset)``.

    Uses b_i = (g_{2i} - i g_{2i+1}) / 2; ``h`` is real and exactly
    antisymmetric, and the offset collects the normal-ordering constant.
    Each N x N block h[p::2, q::2] is formed on its own from the parts of C
    and A; a real Hamiltonian's h is chiral (see ``canonical._chiral_block``).
    Sums that overflow leave h non-finite without a numpy warning.
    """
    blocks, offset = _majorana_blocks(ham)
    h = np.zeros((2 * ham.n_modes,) * 2)
    for (p, q), block in blocks.items():
        h[p::2, q::2] = block
    return h, offset


class GroundState(NamedTuple):
    """Ground state of a quadratic Hamiltonian, its energy and degeneracy flag.

    ``state`` is a ``CovarianceMatrix`` from ``ground_state_fcm`` and a
    ``FockState`` from ``fock.dense_ground_state``; each route sets
    ``degenerate`` by its own threshold.  Unpacks as ``state, energy, degenerate``.
    """

    state: CovarianceMatrix | FockState
    energy: float
    degenerate: bool


def ground_state_fcm(ham: QuadraticHamiltonian) -> GroundState:
    """Ground-state covariance matrix of a quadratic Hamiltonian.

    With O h O^T = diag(e_k J2), e_k >= 0, the minimizing pure state is the
    vacuum of the transformed modes: M = O^T diag(J2) O = X^T - X with
    X = O[0::2]^T O[1::2], and the ground energy is offset - sum(e_k) / 2.
    Any e_k <= 1e-8 flags a (nearly) degenerate ground manifold; the returned
    M is still deterministic.

    A real Hamiltonian, one whose C and A are stored as float64, has a chiral
    h (see ``canonical._chiral_block``), of which only the block
    h[0::2, 1::2] is formed: its SVD h[0::2, 1::2] = U diag(e) V^T, as in
    ``williamson_form``, gives O[0::2, 1::2] = V^T and O[1::2, 0::2] = U^T,
    so X has one nonzero block, X[1::2, 0::2] = V U^T, and M is chiral too.
    A complex Hamiltonian's h is assembled and passed to ``williamson_form``.
    A non-finite h raises InvalidInputError.
    """
    if np.iscomplexobj(ham.hopping):
        h, offset = hamiltonian_to_majorana(ham)
        form = williamson_form(h)
        o, lambdas = form.orthogonal, form.lambdas
        x = o[0::2].T @ o[1::2]
        matrix = x.T - x
    else:
        blocks, offset = _majorana_blocks(ham, even_odd_only=True)
        block = blocks[0, 1]
        # h is exactly antisymmetric, so williamson_form would check its
        # entries and pass this block to the same SVD bit for bit.
        if not np.isfinite(block).all():
            raise InvalidInputError("matrix has non-finite entries")
        u, sigma, vt = np.linalg.svd(block)
        lambdas = np.abs(sigma)
        x = vt.T @ u.T
        matrix = np.zeros((2 * ham.n_modes,) * 2)
        # X^T - X entry by entry; 0.0 - x keeps the sign of X^T - X at exact zeros.
        matrix[0::2, 1::2] = x.T
        matrix[1::2, 0::2] = 0.0 - x
    energy = offset - 0.5 * float(np.sum(lambdas))
    degenerate = bool(np.any(lambdas <= _DEGENERACY_TOL))
    return GroundState(CovarianceMatrix(matrix), energy, degenerate)


def isotropy_parameter(state: CovarianceMatrix):
    """Return l0 >= 0 with M^2 = -l0^2 within 1e-8, or None; reads the state's fit."""
    if state.isotropy_deviation > ISOTROPY_TOL:
        return None
    return abs(float(np.sqrt(max(state.lambda0_sq, 0.0))))


def is_pure(state: CovarianceMatrix) -> bool:
    """True iff the state is isotropic with |l0 - 1| <= 1e-9, as ``PairSpectrum.pure``."""
    lambda0 = isotropy_parameter(state)
    return lambda0 is not None and abs(lambda0 - 1.0) <= PURITY_TOL


def _check_partition(partition: Bipartition, n_modes: int):
    """Refuse a partition that does not cover every mode of an n_modes state."""
    if partition.n_modes != n_modes:
        raise InvalidInputError(
            f"partition covers {partition.n_modes} modes but the state has {n_modes}"
        )


def _check_mode_subset(modes: list, n_modes: int):
    """Refuse a repeated index, or one outside 0..n_modes-1, in a list of modes."""
    if len(set(modes)) != len(modes):
        raise InvalidInputError(f"repeated mode index in {modes}")
    for i in modes:
        if not 0 <= int(i) < n_modes:
            raise InvalidInputError(f"mode index {i} out of range for {n_modes} modes")


def restrict(state: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Reduced covariance matrix on a subset of modes, in the given order."""
    modes = list(modes)
    _check_mode_subset(modes, state.n_modes)
    q = quadrature_indices(modes)
    return CovarianceMatrix(state.matrix[q[:, None], q])


def haar_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix, sign-fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_pure_fcm(n_modes: int, seed) -> CovarianceMatrix:
    """Random pure-state covariance matrix R diag(J2) R^T, R Haar orthogonal."""
    return isotropic_fcm(n_modes, 1.0, seed)


def isotropic_fcm(n_modes: int, lambda0: float, seed) -> CovarianceMatrix:
    """Random isotropic covariance matrix lambda0 R diag(J2) R^T, R Haar orthogonal.

    M^2 = -lambda0^2, and the same seed gives lambda0 times the matrix of
    ``random_pure_fcm``.
    """
    if not 0.0 <= lambda0 <= 1.0:
        raise InvalidInputError(f"lambda0 must lie in [0, 1], got {lambda0}")
    if n_modes < 1:
        raise InvalidInputError(f"n_modes must be >= 1, got {n_modes}")
    r = haar_orthogonal(2 * n_modes, seed)
    # R diag(J2) moves column 2k + 1 of R to 2k and -(column 2k) to 2k + 1:
    # the bits of the product r @ j_blocks(n_modes), whose other terms are zeros.
    rj = np.empty_like(r)
    rj[:, 0::2] = r[:, 1::2]
    np.negative(r[:, 0::2], out=rj[:, 1::2])
    # The constructor's antisymmetrize returns an exactly antisymmetric matrix
    # unchanged, so scaling after it gives the bits of a scaled pure state.
    scaled = lambda0 * antisymmetrize(rj @ r.T)
    # Freed before the constructor forms M^2: a live R raised the peak RSS of
    # a set of states at N = 400 by about 3 MiB.
    del r, rj
    return CovarianceMatrix(scaled)


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
