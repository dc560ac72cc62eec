"""Exact dense Fock-space reference for small mode counts.

A state of N modes is the row-major flattening of its (2,)*N amplitude
tensor, axis i holding the occupation of mode i (so mode 0 is the leading
bit of the basis index).  Operators follow the Jordan-Wigner mapping in mode
order,

    g_{2i}   = Z^(i) (x) X (x) 1...          (= b_i + b_i^dag)
    g_{2i+1} = Z^(i) (x) [[0, i], [-i, 0]] (x) 1...   (= i(b_i - b_i^dag))

so that |0...0> is the vacuum.  Each Majorana is a signed permutation of the
basis, and every operator here acts through that one representation.  The
dense Hamiltonian costs O(N^2 2^N) to build and O(4^N) memory.  A quadratic
Hamiltonian conserves fermion parity, so the ground state comes from its even
and odd blocks of size 2^(N-1), two lowest eigenpairs of each: O(8^N) time
still, but the two half-size reductions cost a quarter of a full one and only
four eigenvectors are formed.  Everything is capped at MODE_CAP = 12 modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import xlogy

from .decompose import ModewiseDecomposition
from .errors import InvalidInputError, NumericalConsistencyError, ResourceLimitError
from .gaussian import (
    Bipartition,
    CovarianceMatrix,
    GroundState,
    QuadraticHamiltonian,
    _check_mode_subset,
    quadrature_indices,
)

# Most modes of any dense route; at 12 building the Hamiltonian peaks at 1.26 GiB.
MODE_CAP = 12
# Smallest spectral gap of a dense ground state that counts as nondegenerate,
# and the width within which the even sector wins a tie of the sector minima.
_GAP_TOL = 1e-10

_HEEVR, _HEEVR_LWORK = get_lapack_funcs(("heevr", "heevr_lwork"), dtype=np.complex128)


def _check_cap(n_modes: int):
    if n_modes > MODE_CAP:
        raise ResourceLimitError(f"{n_modes} modes exceed the dense Fock-space cap of {MODE_CAP}")
    if n_modes < 1:
        raise InvalidInputError(f"n_modes must be >= 1, got {n_modes}")


@dataclass
class FockState:
    """Dense state vector over the occupation basis |n_0 ... n_{N-1}>."""

    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_cap(self.n_modes)
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
        occupations = tuple(int(b) for b in occupations)
        if not set(occupations) <= {0, 1}:
            raise InvalidInputError(f"occupations must be 0 or 1, got {list(occupations)}")
        _check_cap(len(occupations))
        amps = np.zeros((2,) * len(occupations), dtype=complex)
        amps[occupations] = 1.0
        return cls(len(occupations), amps)


@lru_cache(maxsize=4)
def _occupations(n_modes: int) -> np.ndarray:
    """Occupation table: entry [i, k] is the occupation of mode i in basis state k."""
    occ = np.indices((2,) * n_modes).reshape(n_modes, -1)
    occ.setflags(write=False)
    return occ


@lru_cache(maxsize=4)
def _majorana_action(n_modes: int):
    """Sparse action of every Majorana: g_a u = phase[a] * u[perm[a]].

    Each operator is a signed permutation in the occupation basis: it flips
    the occupation of one mode, with a sign from the parity of the occupied
    modes before it (and a factor +-i for the second quadrature).
    """
    occ = _occupations(n_modes)
    index = np.arange(2**n_modes).reshape((2,) * n_modes)
    flips = np.array([np.flip(index, axis=i).reshape(-1) for i in range(n_modes)])
    perm = np.repeat(flips, 2, axis=0)
    string_sign = (-1.0) ** (np.cumsum(occ, axis=0) - occ)
    phase = np.empty(perm.shape, dtype=complex)
    phase[0::2] = string_sign
    phase[1::2] = string_sign * np.where(occ == 1, -1.0j, 1.0j)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


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


def _lowest_eigenpairs(block: np.ndarray):
    """The two lowest eigenpairs (one for a 1 x 1 block) of a Hermitian block, by ``zheevr``."""
    dim = block.shape[0]
    work, rwork, iwork, _ = _HEEVR_LWORK(dim)
    energies, vectors, found, _, info = _HEEVR(
        block, range="I", iu=min(2, dim), lwork=int(work.real), lrwork=int(rwork),
        liwork=int(iwork), overwrite_a=True,
    )
    if info != 0:
        raise NumericalConsistencyError(f"LAPACK zheevr failed on a parity block: info = {info}")
    return energies[:found], vectors[:, :found]


def dense_ground_state(ham: QuadraticHamiltonian) -> GroundState:
    """Lowest eigenvector of the dense Hamiltonian, of definite fermion parity.

    Returns ``GroundState(state, energy, degenerate)``.  Every term of a quadratic H flips
    two occupations, so H has no entry between the even- and odd-parity
    sectors; the two lowest eigenpairs of each sector block give the energy
    (the lowest of them) and the gap to the next.  The state is the lowest
    vector of the sector with the lower minimum, the even sector when the two
    minima lie within 1e-10, with exact zeros on the other sector.  The global
    phase is fixed by making the largest-magnitude amplitude (first such index
    on ties) real and positive; ``degenerate`` is set when the spectral gap is
    below 1e-10.
    """
    h = dense_hamiltonian(ham)
    parity = _occupations(ham.n_modes).sum(axis=0) % 2
    sectors = [np.flatnonzero(parity == p) for p in (0, 1)]
    blocks = [h[np.ix_(sector, sector)] for sector in sectors]
    del h
    (even_e, even_v), (odd_e, odd_v) = (_lowest_eigenpairs(block) for block in blocks)
    vec = np.zeros(2**ham.n_modes, dtype=complex)
    if odd_e[0] < even_e[0] - _GAP_TOL:
        vec[sectors[1]] = odd_v[:, 0]
    else:
        vec[sectors[0]] = even_v[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    vec = vec / np.linalg.norm(vec)
    energies = np.sort(np.concatenate([even_e, odd_e]))
    degenerate = bool(energies[1] - energies[0] < _GAP_TOL)
    return GroundState(FockState(ham.n_modes, vec), float(energies[0]), degenerate)


def fcm_from_state(state: FockState) -> CovarianceMatrix:
    """Covariance matrix M_ab = Im <psi| g_a g_b |psi> of any Fock state."""
    _check_cap(state.n_modes)
    perm, phase = _majorana_action(state.n_modes)
    moved = phase * state.amplitudes[perm]
    gram = moved.conj() @ moved.T
    return CovarianceMatrix(gram.imag)


def reduced_density(state: FockState, modes) -> np.ndarray:
    """Reduced density matrix on a mode subset (kept modes in chain order).

    The amplitude tensor is transposed to the kept modes, then the traced
    ones, each ascending, and the traced axes are summed out.  Moving the
    modes costs one fermionic sign pass first: each occupied kept mode gets
    -1 for every occupied traced mode before it.  So non-contiguous subsets
    reduce exactly like fermion modes rather than Jordan-Wigner qubits.
    """
    modes = sorted(int(m) for m in modes)
    n = state.n_modes
    _check_mode_subset(modes, n)
    traced = [m for m in range(n) if m not in set(modes)]
    occ = _occupations(n)
    traced_before = np.cumsum(occ * np.isin(range(n), traced)[:, None], axis=0)
    signs = (-1.0) ** np.sum(occ[modes] * traced_before[modes], axis=0)
    tensor = (signs * state.amplitudes).reshape((2,) * n).transpose(modes + traced)
    block = tensor.reshape(2 ** len(modes), 2 ** len(traced))
    return block @ block.conj().T


def schmidt_entropy(state: FockState, partition: Bipartition) -> float:
    """Base-2 von Neumann entropy of the reduced state on the A modes."""
    rho = reduced_density(state, partition.a_modes)
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(-np.sum(xlogy(evals, evals)) / np.log(2.0))


def reconstruct_state(decomp: ModewiseDecomposition, reference: FockState):
    """Rebuild a pure Gaussian state from its modewise decomposition.

    The local orthogonal transforms give the transformed-mode annihilators
    b_k.  The predicted state is the vacuum of d_k = R b_k R^dag, with R the
    product of the pair rotations exp[-theta (b_a^dag b_b^dag + b_a b_b)]: for
    each pair d_a = cos(theta) b_a + sin(theta) b_b^dag and d_b = cos(theta) b_b
    - sin(theta) b_a^dag, and d_k = b_k for the unpaired modes.  The rank-one
    projector prod_k d_k d_k^dag onto that vacuum, applied once to the
    reference, gives the rebuilt state and the fidelity |<reference|rebuilt>|
    (global phase is not observable).  Returns ``(state, fidelity)``.
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
    lower = 0.5 * (rotation[0::2] - 1.0j * rotation[1::2])  # b_k = lower[k] . g
    annihilators = lower.copy()
    for pair in decomp.pairs:
        a, b = pair.a_mode, m + pair.b_mode
        cos, sin = np.cos(pair.theta), np.sin(pair.theta)
        annihilators[a] = cos * lower[a] + sin * lower[b].conj()
        annihilators[b] = cos * lower[b] - sin * lower[a].conj()
    perm, phase = _majorana_action(n)

    def project(vec):
        for d in annihilators:
            vec = d @ (phase * (d.conj() @ (phase * vec[perm]))[perm])
        return vec

    projected = project(reference.amplitudes)
    fidelity = float(np.linalg.norm(projected))
    if fidelity > 1e-6:
        return FockState(n, projected / fidelity), fidelity
    # Reference has (almost) no weight on the predicted state; project seeded
    # probes instead so the return value stays valid.
    rng = np.random.default_rng(0)
    for _ in range(8):
        probe = rng.standard_normal(2**n) + 1.0j * rng.standard_normal(2**n)
        candidate = project(probe / np.linalg.norm(probe))
        weight = np.linalg.norm(candidate)
        if weight > 1e-3:
            return FockState(n, candidate / weight), fidelity
    raise NumericalConsistencyError(
        "could not isolate the vacuum of the decomposition's modes; the decomposition "
        "transforms are inconsistent"
    )
