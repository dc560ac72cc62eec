"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``fermi_modewise``.  Each quantity is computed by a
route that shares no code with the package:

* pair couplings kappa from the singular values of the cross block M_AB,
  and Schmidt weights sin^2(theta) = kappa^2 / (2 (1 + sqrt(1 - kappa^2))),
  which has no cancellation for small kappa;
* the Williamson spectrum from sqrt(eig(-M^2));
* ground states of quadratic Hamiltonians from an ``eigh`` of the
  Bogoliubov-de Gennes matrix (energy) and of the Majorana coupling
  matrix (covariance), built from the hopping and pairing matrices
  through the change of basis g = Omega (b, b^dag);
* the block form of a decomposition rebuilt from its reported pairs and
  compared with the transformed input.

Conventions follow the package's documented formats: mode i owns
quadratures 2i and 2i+1, M_ab = Im<g_a g_b>, and
H = sum C_ij b_i^dag b_j + (A_ij b_i^dag b_j^dag + h.c.).
"""

from __future__ import annotations

import numpy as np

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
BETA2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def quadratures(modes) -> np.ndarray:
    """Quadrature indices 2i, 2i+1 of the given modes, in order."""
    modes = np.asarray(list(modes), dtype=int)
    return np.stack((2 * modes, 2 * modes + 1), axis=1).reshape(-1)


def cross_block(matrix: np.ndarray, a_modes, b_modes) -> np.ndarray:
    return matrix[np.ix_(quadratures(a_modes), quadratures(b_modes))]


def cross_kappas(matrix: np.ndarray, a_modes, b_modes) -> np.ndarray:
    """Pair couplings kappa, descending, one per pair slot (min(|A|, |B|) values).

    Each entangled pair contributes a doubly degenerate singular value of
    M_AB; adjacent singular values are averaged into one kappa.
    """
    k = min(len(a_modes), len(b_modes))
    if k == 0:
        return np.zeros(0)
    sigma = np.linalg.svd(cross_block(matrix, a_modes, b_modes), compute_uv=False)[: 2 * k]
    return 0.5 * (sigma[0::2] + sigma[1::2])


def schmidt_weights(kappas) -> np.ndarray:
    """sin^2(theta) of pure-state pairs, with sin(2 theta) = kappa."""
    kappas = np.clip(np.asarray(kappas, dtype=float), 0.0, 1.0)
    return kappas**2 / (2.0 * (1.0 + np.sqrt(1.0 - kappas**2)))


def binary_entropy_bits(p) -> np.ndarray:
    """-p log2 p - (1-p) log2 (1-p), accurate for tiny p."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -(q * np.log(q) + (1.0 - q) * np.log1p(-q)) / np.log(2.0)
    return out


def pure_entropy(matrix: np.ndarray, a_modes, b_modes) -> float:
    """Entanglement of modes (bits) of a pure state, from the cross block alone."""
    return float(np.sum(binary_entropy_bits(schmidt_weights(cross_kappas(matrix, a_modes, b_modes)))))


def lambda0(matrix: np.ndarray) -> float:
    """Isotropy parameter sqrt(-tr(M^2) / dim)."""
    return float(np.sqrt(max(-np.trace(matrix @ matrix) / matrix.shape[0], 0.0)))


def ppt_threshold(l0: float) -> float:
    """A pair of an isotropic state is entangled iff kappa > (1 - l0^2) / 2."""
    return 0.5 * (1.0 - l0**2)


def williamson_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues, descending, from sqrt(eig(-M^2))."""
    evals = np.linalg.eigvalsh(-(matrix @ matrix))[::-1]
    roots = np.sqrt(np.clip(evals, 0.0, None))
    return 0.5 * (roots[0::2] + roots[1::2])


def block_form_error(matrix, a_modes, b_modes, transform_a, transform_b, pairs, residual_a, residual_b):
    """Check a decomposition against the block form built from its own report.

    ``pairs`` holds (a_mode, b_mode, lam, kappa) with 0-based transformed
    local modes; ``residual_a``/``residual_b`` hold (mode, lam).  Returns
    (max |T M T^T - block form|, max |T T^T - 1|); every transformed mode
    must be used exactly once, otherwise the error is infinite.
    """
    n_a, n_b = len(a_modes), len(b_modes)
    used = [m for m, *_ in pairs] + [m for m, _ in residual_a]
    used_b = [m for _, m, *_ in pairs] + [m for m, _ in residual_b]
    if sorted(used) != list(range(n_a)) or sorted(used_b) != list(range(n_b)):
        return float("inf"), float("inf")
    perm = quadratures(list(a_modes) + list(b_modes))
    joint = np.zeros((2 * (n_a + n_b), 2 * (n_a + n_b)))
    joint[: 2 * n_a, : 2 * n_a] = transform_a
    joint[2 * n_a :, 2 * n_a :] = transform_b
    rotated = joint @ matrix[np.ix_(perm, perm)] @ joint.T
    expected = np.zeros_like(rotated)

    def put(i, j, block):
        expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block

    for a, b, lam, kappa in pairs:
        put(a, a, lam * J2)
        put(n_a + b, n_a + b, lam * J2)
        put(a, n_a + b, kappa * BETA2)
        put(n_a + b, a, -kappa * BETA2)
    for mode, lam in residual_a:
        put(mode, mode, lam * J2)
    for mode, lam in residual_b:
        put(n_a + mode, n_a + mode, lam * J2)
    error = float(np.max(np.abs(rotated - expected)))
    orthogonality = float(np.max(np.abs(joint @ joint.T - np.eye(joint.shape[0]))))
    return error, orthogonality


def bdg_matrix(hopping: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """H = (1/2) Psi^dag H_BdG Psi + tr(C)/2 with Psi = (b, b^dag)."""
    c = np.asarray(hopping, dtype=complex)
    a = np.asarray(pairing, dtype=complex)
    return np.block([[c, 2.0 * a], [-2.0 * a.conj(), -c.conj()]])


def ground_energy(hopping, pairing) -> float:
    """Ground energy tr(C)/2 - (1/2) sum of the positive BdG eigenvalues."""
    eps = np.linalg.eigvalsh(bdg_matrix(hopping, pairing))
    return float(0.5 * np.trace(np.asarray(hopping)).real - 0.5 * np.sum(eps[eps > 0.0]))


def majorana_coupling(hopping, pairing) -> np.ndarray:
    """Real antisymmetric h with H = (i/4) g^T h g + const.

    With g = Omega Psi, H = (1/8) g^T (Omega H_BdG Omega^dag) g + const and
    only the imaginary (antisymmetric) part of that matrix survives.
    """
    n = np.asarray(hopping).shape[0]
    omega = np.zeros((2 * n, 2 * n), dtype=complex)
    idx = np.arange(n)
    omega[2 * idx, idx] = 1.0
    omega[2 * idx, n + idx] = 1.0
    omega[2 * idx + 1, idx] = 1.0j
    omega[2 * idx + 1, n + idx] = -1.0j
    k = omega @ bdg_matrix(hopping, pairing) @ omega.conj().T
    return 0.5 * k.imag


ZERO_MODE_TOL = 1e-8


def ground_covariances(hopping, pairing) -> list:
    """Covariance matrices of the Gaussian ground states, M = -i sign(i h).

    Without a zero mode the ground state is unique and one matrix is
    returned.  With one zero mode (an eigenvalue pair of i h within
    ZERO_MODE_TOL of 0, such as the Majorana edge modes of a long
    topological chain) the Gaussian ground states are
    M_gap +- (u v^T - v u^T), where u, v span the real null space of h;
    both are returned.  More zero modes give a continuous family and raise.
    """
    h = majorana_coupling(hopping, pairing)
    evals, vecs = np.linalg.eigh(1.0j * h)
    gapped = np.abs(evals) > ZERO_MODE_TOL
    v = vecs[:, gapped]
    m_gap = (-1.0j * (v * np.sign(evals[gapped])) @ v.conj().T).real
    zero = int(np.sum(~gapped))
    if zero == 0:
        return [m_gap]
    if zero != 2:
        raise ValueError(f"{zero // 2} zero modes: the ground states form a continuous family")
    null = np.linalg.svd(h)[2][-2:]
    flip = np.outer(null[0], null[1]) - np.outer(null[1], null[0])
    return [m_gap + flip, m_gap - flip]


def kitaev_matrices(n: int, mu: float, t: float, delta: float):
    """Hopping and pairing matrices of the open Kitaev chain."""
    hopping = -mu * np.eye(n)
    pairing = np.zeros((n, n))
    i = np.arange(n - 1)
    hopping[i, i + 1] = hopping[i + 1, i] = -t
    pairing[i, i + 1] = delta
    pairing[i + 1, i] = -delta
    return hopping, pairing
