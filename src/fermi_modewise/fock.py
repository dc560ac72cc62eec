"""Exact dense Fock-space reference for small mode counts.

A state of N modes is the row-major flattening of its (2,)*N amplitude
tensor, axis i holding the occupation of mode i (so mode 0 is the leading
bit of the basis index).  Operators follow the Jordan-Wigner mapping in mode
order,

    g_{2i}   = Z^(i) (x) X (x) 1...          (= b_i + b_i^dag)
    g_{2i+1} = Z^(i) (x) [[0, i], [-i, 0]] (x) 1...   (= i(b_i - b_i^dag))

so that |0...0> is the vacuum.  Each Majorana is a signed permutation of the
basis, and every operator here acts through that one representation.  A
quadratic Hamiltonian conserves fermion parity, so it is built one parity
block of size 2^(N-1) at a time, each in O(N^2 2^N) time and 4^N * 4 bytes.
The ground state comes from the two lowest eigenpairs of each block, solved
as soon as it is built, so one block is alive at a time: O(8^N) time still,
but the two half-size reductions cost a quarter of a full one and only four
eigenvectors are formed.  The eigensolver, LAPACK's zheevr, is taken from
SciPy's compiled LAPACK module on first use (``canonical._lapack``), without
importing scipy.linalg.  Everything is capped at MODE_CAP = 12 modes.

Index tables are cached read-only on first use and kept for the life of the
process, for every N <= MODE_CAP: per N the occupation table and the Majorana
action, per (N, parity) the scatter places, gather index and ladder factors
of ``_sector_block``.  At N = 12 they hold 19.9 MiB, mostly three int64
arrays of N^2 2^(N-1) entries per parity; with every N <= 12, 34.8 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import canonical
from .decompose import ModewiseDecomposition
from .entanglement import _xlogx
from .errors import InvalidInputError, NumericalConsistencyError, ResourceLimitError
from .gaussian import (
    Bipartition,
    CovarianceMatrix,
    GroundState,
    QuadraticHamiltonian,
    _check_mode_subset,
    _check_partition,
    quadrature_indices,
)

# Most modes of any dense route; at 12 one parity block takes 4^12 * 4 B = 64 MiB.
MODE_CAP = 12
# Smallest spectral gap of a dense ground state that counts as nondegenerate,
# and the width within which the even sector wins a tie of the sector minima.
_GAP_TOL = 1e-10


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


@lru_cache(maxsize=MODE_CAP)
def _occupations(n_modes: int) -> np.ndarray:
    """Occupation table: entry [i, k] is the occupation of mode i in basis state k."""
    occ = np.indices((2,) * n_modes).reshape(n_modes, -1)
    occ.setflags(write=False)
    return occ


@lru_cache(maxsize=MODE_CAP)
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


def _sector(n_modes: int, parity: int) -> np.ndarray:
    """Basis indices of one fermion-parity sector (0 even, 1 odd), ascending.

    Basis states 2m and 2m + 1 differ only in the last mode's occupation, so
    each such pair holds one state of each parity: state k sits at place
    k // 2 of its sector.
    """
    return np.flatnonzero(_occupations(n_modes).sum(axis=0) % 2 == parity)


@lru_cache(maxsize=2 * MODE_CAP)
def _sector_terms(n_modes: int, parity: int):
    """Read-only ``(flat, flat_adjoint, gather, up_sector, up, low)`` of ``_sector_block``.

    ``up.take(gather)`` and ``low.take(gather)`` are the factors of b_i^dag
    and b_i at the rows that b_j or b_j^dag reached.
    """
    perm, phase = _majorana_action(n_modes)
    flip = perm[0::2]
    low = 0.5 * (phase[0::2] - 1.0j * phase[1::2])
    sector = _sector(n_modes, parity)
    dim = sector.size
    modes = np.arange(n_modes)[:, None]
    up = low.conj()[modes, flip]  # b_i^dag u = up[i] * u[flip[i]]
    rows = flip[:, None, sector]  # row flip[i][k] that b_j or b_j^dag acts on; axes [i, j, k]
    cols = flip[modes, rows] // 2
    places = np.arange(dim)
    terms = ((places * dim + cols).reshape(-1), (cols * dim + places).reshape(-1),
             modes * 2**n_modes + rows, up[:, None, sector], up, low)
    for term in terms:
        term.setflags(write=False)
    return terms


def _sector_block(ham: QuadraticHamiltonian, parity: int) -> np.ndarray:
    """Hermitian 2^(N-1) x 2^(N-1) block of the dense Hamiltonian on one parity sector.

    With b_i u = low[i] * u[flip[i]], each term b_i^dag b_j, b_i^dag b_j^dag
    or its adjoint sends basis row k to the single column flip[j][flip[i][k]],
    which has the parity of k.  So the block is one buffer that the hopping,
    pairing and adjoint pairing terms scatter their N^2 2^(N-1) entries into
    at sector-local places k // 2.  A hopping entry conserves the particle
    number and a pairing entry changes it by 2, so no two kinds of term add a
    nonzero value to the same entry.  The hermiticity check is against the
    block's own scale, both maxima taken over row chunks of about 2^16
    entries, so no temporary is block-sized; a max is exact.  The block
    0.5 (h + h^dag) is returned in Fortran order, as LAPACK takes it.
    """
    flat, flat_adjoint, gather, up_sector, up, low = _sector_terms(ham.n_modes, parity)
    dim = 2 ** (ham.n_modes - 1)
    h = np.zeros(dim * dim, dtype=complex)
    np.add.at(h, flat, (ham.hopping[:, :, None] * up_sector * low.take(gather)).reshape(-1))
    pairing = (ham.pairing[:, :, None] * up_sector * up.take(gather)).reshape(-1)
    np.add.at(h, flat, pairing)
    np.add.at(h, flat_adjoint, pairing.conj())
    del pairing  # the weights are gone before the check's temporaries
    h = h.reshape(dim, dim)
    step = max(1, 2**16 // dim)
    chunks = [slice(start, start + step) for start in range(0, dim, step)]
    residual = np.max([np.max(np.abs(h[rows] - h[:, rows].conj().T)) for rows in chunks])
    if residual > 1e-12 * max(1.0, float(np.max([np.max(np.abs(h[rows])) for rows in chunks]))):
        raise NumericalConsistencyError(f"dense Hamiltonian not hermitian: {residual:.3e}")
    adjoint = h.conj().T
    adjoint += h
    adjoint *= 0.5
    return adjoint


def dense_hamiltonian(ham: QuadraticHamiltonian) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a quadratic Hamiltonian.

    Every term flips two occupations, so H is the direct sum of its even and
    odd parity blocks, and every entry between the two sectors is exactly 0.
    """
    _check_cap(ham.n_modes)
    h = np.zeros((2**ham.n_modes,) * 2, dtype=complex)
    for parity in (0, 1):
        sector = _sector(ham.n_modes, parity)
        h[np.ix_(sector, sector)] = _sector_block(ham, parity)
    return h


def _lowest_eigenpairs(block: np.ndarray):
    """The two lowest eigenpairs (one for a 1 x 1 block) of a Hermitian block, by ``zheevr``."""
    heevr, heevr_lwork = canonical._lapack(("heevr", "heevr_lwork"), np.complex128)
    dim = block.shape[0]
    work, rwork, iwork, _ = heevr_lwork(dim)
    energies, vectors, found, _, info = heevr(
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
    (the lowest of them) and the gap to the next.  Each block is built and
    solved in turn, so one block is alive at a time.  The state is the lowest
    vector of the sector with the lower minimum, the even sector when the two
    minima lie within 1e-10, with exact zeros on the other sector.  The global
    phase is fixed by making the largest-magnitude amplitude (first such index
    on ties) real and positive; ``degenerate`` is set when the spectral gap is
    below 1e-10.
    """
    _check_cap(ham.n_modes)
    (even_e, even_v), (odd_e, odd_v) = (
        _lowest_eigenpairs(_sector_block(ham, parity)) for parity in (0, 1)
    )
    vec = np.zeros(2**ham.n_modes, dtype=complex)
    if odd_e[0] < even_e[0] - _GAP_TOL:
        vec[_sector(ham.n_modes, 1)] = odd_v[:, 0]
    else:
        vec[_sector(ham.n_modes, 0)] = even_v[:, 0]
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
    traced = [m for m in range(n) if m not in modes]
    occ = _occupations(n)
    # bincount is 1 at each traced mode and 0 at each kept one
    traced_before = np.cumsum(occ * np.bincount(traced, minlength=n)[:, None], axis=0)
    signs = (-1.0) ** np.sum(occ[modes] * traced_before[modes], axis=0)
    tensor = (signs * state.amplitudes).reshape((2,) * n).transpose(modes + traced)
    block = tensor.reshape(2 ** len(modes), 2 ** len(traced))
    return block @ block.conj().T


def schmidt_entropy(state: FockState, partition: Bipartition) -> float:
    """Base-2 von Neumann entropy of the reduced state on the A modes."""
    _check_partition(partition, state.n_modes)
    rho = reduced_density(state, partition.a_modes)
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(-np.sum([_xlogx(x) for x in evals.tolist()]) / np.log(2.0))


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
        a, b = pair.mode, m + pair.mode
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
