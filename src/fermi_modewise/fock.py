"""Exact dense Fock-space reference for small mode counts.

Operators follow the Jordan-Wigner mapping in mode order: the basis index
encodes occupations with mode 0 as the most significant bit, and

    g_{2i}   = Z^(i) (x) X (x) 1...          (= b_i + b_i^dag)
    g_{2i+1} = Z^(i) (x) [[0, i], [-i, 0]] (x) 1...   (= i(b_i - b_i^dag))

so that |0...0> is the vacuum.  Each Majorana is a signed permutation of the
basis, and every operator here acts through that one representation.  The
dense Hamiltonian costs O(N^2 2^N) to build and O(4^N) memory, its
eigensolve O(8^N) time; everything is capped at FERMI_MODEWISE_MAX_MODES
(default 12) modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import xlogy

from .decompose import ModewiseDecomposition
from .errors import InvalidInputError, NumericalConsistencyError, ResourceLimitError
from .gaussian import (
    Bipartition,
    CovarianceMatrix,
    QuadraticHamiltonian,
    quadrature_indices,
)

DEFAULT_MODE_CAP = 12
MODE_CAP_ENV = "FERMI_MODEWISE_MAX_MODES"
# Smallest spectral gap of a dense ground state that counts as nondegenerate.
_GAP_TOL = 1e-10


def mode_cap() -> int:
    """Current mode cap; the environment variable overrides the default."""
    raw = os.environ.get(MODE_CAP_ENV)
    if raw is None:
        return DEFAULT_MODE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{MODE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidInputError(f"{MODE_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _check_cap(n_modes: int):
    limit = mode_cap()
    if n_modes > limit:
        raise ResourceLimitError(
            f"{n_modes} modes exceed the dense Fock-space cap of {limit}; "
            f"set {MODE_CAP_ENV} to raise it"
        )
    if n_modes < 1:
        raise InvalidInputError(f"n_modes must be >= 1, got {n_modes}")


@dataclass
class FockState:
    """Dense state vector over the occupation basis |n_0 ... n_{N-1}>."""

    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != 2**self.n_modes:
            raise InvalidInputError(
                f"amplitude vector of length {self.amplitudes.size} does not match "
                f"{self.n_modes} modes"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidInputError(f"state is not normalized: |psi| = {norm!r}")

    @classmethod
    def from_occupations(cls, occupations) -> "FockState":
        occupations = [int(b) for b in occupations]
        n = len(occupations)
        index = 0
        for bit in occupations:
            index = (index << 1) | bit
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)


@lru_cache(maxsize=4)
def _majorana_action(n_modes: int):
    """Sparse action of every Majorana: g_a u = phase[a] * u[perm[a]].

    Each operator is a signed permutation in the occupation basis: it flips
    one bit, with a sign from the parity of the occupied modes before it
    (and a factor +-i for the second quadrature).
    """
    dim = 2**n_modes
    idx = np.arange(dim)
    perm = np.empty((2 * n_modes, dim), dtype=np.intp)
    phase = np.empty((2 * n_modes, dim), dtype=complex)
    string_sign = np.ones(dim)
    for i in range(n_modes):
        mask = 1 << (n_modes - 1 - i)
        bit = (idx & mask) != 0
        flipped = idx ^ mask
        perm[2 * i] = flipped
        perm[2 * i + 1] = flipped
        phase[2 * i] = string_sign
        phase[2 * i + 1] = string_sign * np.where(bit, -1.0j, 1.0j)
        string_sign = string_sign * np.where(bit, -1.0, 1.0)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def build_majoranas(n_modes: int) -> np.ndarray:
    """Stack of the 2N dense Majorana matrices, indexed as in the FCM."""
    _check_cap(n_modes)
    perm, phase = _majorana_action(n_modes)
    dim = 2**n_modes
    g = np.zeros((2 * n_modes, dim, dim), dtype=complex)
    g[np.arange(2 * n_modes)[:, None], np.arange(dim), perm] = phase
    return g


def dense_hamiltonian(ham: QuadraticHamiltonian) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a quadratic Hamiltonian.

    With b_i u = low[i] * u[flip[i]], each term b_i^dag b_j or b_i^dag b_j^dag
    sends basis row k to the single column flip[j][flip[i][k]], so each part
    of H is one scatter of N^2 2^N entries.
    """
    n = ham.n_modes
    _check_cap(n)
    perm, phase = _majorana_action(n)
    flip = perm[0::2]
    low = 0.5 * (phase[0::2] - 1.0j * phase[1::2])
    dim = 2**n
    modes = np.arange(n)[:, None]
    up = low.conj()[modes, flip]  # b_i^dag u = up[i] * u[flip[i]]
    rows = flip[:, None, :]  # row flip[i][k] that b_j or b_j^dag acts on; axes [i, j, k]
    flat = (np.arange(dim) * dim + flip[modes, rows]).reshape(-1)

    def scatter(weights):
        part = np.zeros(dim * dim, dtype=complex)
        np.add.at(part, flat, weights.reshape(-1))
        return part.reshape(dim, dim)

    hopping_part = scatter(ham.hopping[:, :, None] * up[:, None, :] * low[modes, rows])
    pairing_part = scatter(ham.pairing[:, :, None] * up[:, None, :] * up[modes, rows])
    h = hopping_part + pairing_part + pairing_part.conj().T
    residual = np.max(np.abs(h - h.conj().T))
    if residual > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
        raise NumericalConsistencyError(f"dense Hamiltonian not hermitian: {residual:.3e}")
    return 0.5 * (h + h.conj().T)


def dense_ground_state(ham: QuadraticHamiltonian):
    """Lowest eigenvector of the dense Hamiltonian.

    Returns ``(state, energy, degenerate)``.  The global phase is fixed by
    making the largest-magnitude amplitude (first such index on ties) real
    and positive; ``degenerate`` is set when the spectral gap is below 1e-10.
    """
    h = dense_hamiltonian(ham)
    energies, vectors = np.linalg.eigh(h)
    vec = vectors[:, 0].copy()
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    vec = vec / np.linalg.norm(vec)
    degenerate = bool(energies.size > 1 and energies[1] - energies[0] < _GAP_TOL)
    return FockState(ham.n_modes, vec), float(energies[0]), degenerate


def _hamiltonian_from_majorana_form(coupling: np.ndarray, offset: float) -> np.ndarray:
    """Dense matrix of (i/4) g^T h g + offset; used in tests as a cross-check."""
    n = coupling.shape[0] // 2
    g = build_majoranas(n)
    partial = np.tensordot(coupling, g, axes=(1, 0))
    quad = np.einsum("aij,ajk->ik", g, partial)
    return 0.25j * quad + offset * np.eye(2**n)


def fcm_from_state(state: FockState) -> CovarianceMatrix:
    """Covariance matrix M_ab = Im <psi| g_a g_b |psi> of any Fock state."""
    _check_cap(state.n_modes)
    perm, phase = _majorana_action(state.n_modes)
    moved = phase * state.amplitudes[perm]
    gram = moved.conj() @ moved.T
    return CovarianceMatrix(gram.imag)


def _reorder_signs(n_modes: int, permutation) -> np.ndarray:
    """Amplitude signs for reordering fermion modes into ``permutation`` order.

    Entry k is the parity of transpositions needed to sort the occupied
    creation operators of basis state k from chain order into the permuted
    order: a factor -1 for every occupied pair that the permutation inverts.
    """
    idx = np.arange(2**n_modes)
    bits = [(idx >> (n_modes - 1 - m)) & 1 for m in range(n_modes)]
    position = {mode: pos for pos, mode in enumerate(permutation)}
    signs = np.ones(2**n_modes)
    for a in range(n_modes):
        for b in range(a + 1, n_modes):
            if position[a] > position[b]:
                signs *= 1.0 - 2.0 * (bits[a] & bits[b])
    return signs


def _permute_modes(state: FockState, permutation) -> np.ndarray:
    """Amplitudes re-expressed with modes in ``permutation`` order, signs included."""
    n = state.n_modes
    idx = np.arange(2**n)
    new_idx = np.zeros_like(idx)
    for pos, mode in enumerate(permutation):
        bit = (idx >> (n - 1 - mode)) & 1
        new_idx |= bit << (n - 1 - pos)
    out = np.zeros_like(state.amplitudes)
    out[new_idx] = _reorder_signs(n, permutation) * state.amplitudes
    return out


def reduced_density(state: FockState, modes) -> np.ndarray:
    """Reduced density matrix on a mode subset (kept modes in chain order).

    Modes are reordered (kept ascending, then traced ascending) with fermionic
    reordering signs before tracing, so non-contiguous subsets reduce exactly
    like fermion modes rather than Jordan-Wigner qubits.
    """
    modes = sorted(int(m) for m in modes)
    if len(set(modes)) != len(modes):
        raise InvalidInputError(f"repeated mode index in {modes}")
    n = state.n_modes
    for m in modes:
        if not 0 <= m < n:
            raise InvalidInputError(f"mode index {m} out of range for {n} modes")
    traced = [m for m in range(n) if m not in set(modes)]
    amps = _permute_modes(state, modes + traced)
    block = amps.reshape(2 ** len(modes), 2 ** len(traced))
    return block @ block.conj().T


def schmidt_entropy(state: FockState, partition: Bipartition) -> float:
    """Base-2 von Neumann entropy of the reduced state on the A modes."""
    rho = reduced_density(state, partition.a_modes)
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(-np.sum(xlogy(evals, evals)) / np.log(2.0))


class _TransformedModes:
    """Matrix-free application of transformed-mode ladder operators.

    ``rotation`` maps original quadratures to transformed ones; every ladder
    operator acts through the signed-permutation action of the Majoranas, so
    one application costs O(N 2^N).
    """

    def __init__(self, n_modes: int, rotation: np.ndarray):
        self._perm, self._phase = _majorana_action(n_modes)
        self._lower = 0.5 * (rotation[0::2] - 1.0j * rotation[1::2])
        self._raise = self._lower.conj()

    def _gammas(self, vec: np.ndarray) -> np.ndarray:
        return self._phase * vec[self._perm]

    def lower(self, k: int, vec: np.ndarray) -> np.ndarray:
        return self._lower[k] @ self._gammas(vec)

    def raise_(self, k: int, vec: np.ndarray) -> np.ndarray:
        return self._raise[k] @ self._gammas(vec)

    def pair_rotation(self, vec, mode_a, mode_b, theta):
        """Apply exp[-theta (b_a^dag b_b^dag + b_a b_b)] using X^3 = -X."""

        def generator(u):
            return self.raise_(mode_a, self.raise_(mode_b, u)) + self.lower(
                mode_a, self.lower(mode_b, u)
            )

        first = generator(vec)
        second = generator(first)
        return vec - np.sin(theta) * first + (1.0 - np.cos(theta)) * second

    def project_vacuum(self, vec: np.ndarray) -> np.ndarray:
        """Apply the rank-one vacuum projector prod_k b_k b_k^dag."""
        for k in range(self._lower.shape[0]):
            vec = self.lower(k, self.raise_(k, vec))
        return vec


def reconstruct_state(decomp: ModewiseDecomposition, reference: FockState):
    """Rebuild a pure Gaussian state from its modewise decomposition.

    Constructs the transformed-mode operators from the local orthogonal
    transforms, builds their joint vacuum, applies the two-mode squeezing
    rotation of every entangled pair, and returns the rebuilt state together
    with |<reference|rebuilt>| (global phase is not observable).

    The vacuum is obtained by applying the exact projector prod_k b_k b_k^dag
    of the transformed modes, which also yields the fidelity directly:
    |<ref|T vac>| = |P_vac T^dag ref|.
    """
    if not decomp.pure:
        raise InvalidInputError(
            f"state reconstruction requires a pure decomposition, lambda0 = {decomp.lambda0!r}"
        )
    n = decomp.n_modes
    _check_cap(n)
    if reference.n_modes != n:
        raise InvalidInputError(
            f"reference state has {reference.n_modes} modes, decomposition has {n}"
        )

    part = decomp.partition
    m = len(part.a_modes)
    # rows: transformed quadratures, A then B; columns: original quadratures
    rotation = np.zeros((2 * n, 2 * n))
    rotation[: 2 * m, quadrature_indices(part.a_modes)] = decomp.transform_a
    rotation[2 * m :, quadrature_indices(part.b_modes)] = decomp.transform_b
    modes = _TransformedModes(n, rotation)

    def apply_pairs(vec, sign):
        for pair in decomp.pairs:
            vec = modes.pair_rotation(vec, pair.a_mode, m + pair.b_mode, sign * pair.theta)
        return vec

    projected = modes.project_vacuum(apply_pairs(reference.amplitudes.astype(complex), -1.0))
    fidelity = float(np.linalg.norm(projected))

    if fidelity > 1e-6:
        vacuum = projected / fidelity
    else:
        # Reference has (almost) no weight on the predicted state; build the
        # vacuum from seeded probes instead so the return value stays valid.
        rng = np.random.default_rng(0)
        for _ in range(8):
            probe = rng.standard_normal(2**n) + 1.0j * rng.standard_normal(2**n)
            candidate = modes.project_vacuum(probe / np.linalg.norm(probe))
            weight = np.linalg.norm(candidate)
            if weight > 1e-3:
                vacuum = candidate / weight
                break
        else:
            raise NumericalConsistencyError(
                "could not isolate the transformed-mode vacuum; the decomposition "
                "transforms are inconsistent"
            )

    rebuilt = apply_pairs(vacuum, 1.0)
    rebuilt = rebuilt / np.linalg.norm(rebuilt)
    return FockState(n, rebuilt), fidelity
