import dataclasses
import inspect
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from fermi_modewise import (
    Bipartition,
    FockState,
    InvalidInputError,
    QuadraticHamiltonian,
    ResourceLimitError,
    dense_ground_state,
    dense_hamiltonian,
    fcm_from_state,
    ground_state_fcm,
    hamiltonian_to_majorana,
    is_pure,
    j_blocks,
    modewise_decompose,
    pair_block,
    reconstruct_state,
    reduced_density,
    schmidt_entropy,
)
from fermi_modewise import fock
from fermi_modewise.fock import _GAP_TOL, _majorana_action, _occupations, _sector, _sector_block
from fermi_modewise.models import kitaev_hamiltonian
from fermi_modewise.verify import random_gaussian_state, random_quadratic_hamiltonian, run_all

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
QUAD_Y = np.array([[0, 1j], [-1j, 0]])  # i(b - b^dag) on a single mode


def jordan_wigner_majoranas(n):
    """Kron-product Majorana matrices Z^(i) (x) {X, QUAD_Y} (x) 1..., as in the FCM order."""
    ops = []
    for i in range(n):
        for local in (X, QUAD_Y):
            ops.append(reduce(np.kron, [Z] * i + [local] + [np.eye(2)] * (n - 1 - i)))
    return np.array(ops)


def dense_action(n):
    """The package's Majorana action written out as 2N dense matrices."""
    perm, phase = _majorana_action(n)
    g = np.zeros((2 * n, 2**n, 2**n), dtype=complex)
    g[np.arange(2 * n)[:, None], np.arange(2**n), perm] = phase
    return g


def squeezed_pair(theta):
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = np.cos(theta)
    amps[0b11] = -np.sin(theta)
    return FockState(2, amps)


def test_single_mode_matrices():
    g = dense_action(1)
    assert np.array_equal(g[0], X)
    assert np.array_equal(g[1], QUAD_Y)
    g = dense_action(2)
    assert np.array_equal(g[2], np.kron(Z, X))
    assert np.array_equal(g[3], np.kron(Z, QUAD_Y))


def test_sparse_action_matches_dense_matrices():
    for n in (1, 2, 3):
        g = jordan_wigner_majoranas(n)
        assert np.array_equal(dense_action(n), g)
        perm, phase = _majorana_action(n)
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        dense = g @ vec
        sparse = phase * vec[perm]
        assert np.max(np.abs(dense - sparse)) < 1e-14


def test_clifford_algebra_exhaustive():
    n = 4
    g = dense_action(n)
    eye = np.eye(2**n)
    for a in range(2 * n):
        assert np.max(np.abs(g[a] - g[a].conj().T)) < 1e-13
        for b in range(2 * n):
            anti = g[a] @ g[b] + g[b] @ g[a]
            target = 2.0 * eye if a == b else np.zeros_like(eye)
            assert np.max(np.abs(anti - target)) < 1e-13


def test_mode_cap():
    with pytest.raises(ResourceLimitError):
        fcm_from_state(FockState.from_occupations([0] * 13))
    too_big = QuadraticHamiltonian(np.eye(13), np.zeros((13, 13)))
    with pytest.raises(ResourceLimitError):
        dense_hamiltonian(too_big)
    with pytest.raises(ResourceLimitError):
        dense_ground_state(too_big)


def test_dense_hamiltonian_number_operator():
    ham = QuadraticHamiltonian([[1.3]], [[0.0]])
    assert np.allclose(dense_hamiltonian(ham), np.diag([0.0, 1.3]))


def test_dense_hamiltonian_pairing_couples_00_and_11():
    delta = 0.7
    ham = QuadraticHamiltonian(np.zeros((2, 2)), [[0.0, delta], [-delta, 0.0]])
    dense = dense_hamiltonian(ham)
    coupled = np.zeros((4, 4), dtype=bool)
    coupled[0, 3] = coupled[3, 0] = True
    assert np.all(np.abs(dense[~coupled]) < 1e-14)
    assert abs(dense[0, 3]) > 0.1


def _sector_block_cases():
    rng = np.random.default_rng(19)
    for n in range(1, 7):
        yield pytest.param(random_quadratic_hamiltonian(n, rng), id=f"random-{n}")
        for name, mu in (("topological", 0.5), ("critical", 2.0), ("zero-mode", 0.0)):
            yield pytest.param(kitaev_hamiltonian(n, mu, 1.0, 0.7), id=f"{name}-{n}")


@pytest.mark.parametrize("ham", _sector_block_cases())
def test_sector_blocks_match_the_kron_route(ham):
    # 0.25i sum_ab h_ab g_a g_b + offset, with g the kron-product Majoranas:
    # a route that shares neither the action nor the scatter
    n = ham.n_modes
    coupling, offset = hamiltonian_to_majorana(ham)
    g = jordan_wigner_majoranas(n)
    kron = 0.25j * np.matmul(g, np.tensordot(coupling, g, axes=(1, 0))).sum(axis=0)
    kron += offset * np.eye(2**n)
    scale = max(1.0, float(np.max(np.abs(kron))))
    dense = dense_hamiltonian(ham)
    for parity in (0, 1):
        sector = _sector(n, parity)
        block = _sector_block(ham, parity)
        assert np.max(np.abs(block - kron[np.ix_(sector, sector)])) <= 1e-12 * scale
        assert np.array_equal(dense[np.ix_(sector, sector)], block)
    odd = _occupations(n).sum(axis=0) % 2 == 1
    assert np.all(dense[np.ix_(odd, ~odd)] == 0.0)
    assert np.all(dense[np.ix_(~odd, odd)] == 0.0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_dense_hamiltonian_peak_memory_at_nine_modes():
    # the 2^9 x 2^9 complex matrix takes 4 MiB; each sector block is built in turn
    ham = random_quadratic_hamiltonian(9, np.random.default_rng(9))
    assert _traced_peak(dense_hamiltonian, ham) < 12 * 2**20


def test_dense_ground_state_never_forms_the_full_matrix():
    # 16 MiB is the 2^10 x 2^10 complex matrix; one 2^9 x 2^9 block takes 4 MiB
    ham = random_quadratic_hamiltonian(10, np.random.default_rng(10))
    assert _traced_peak(dense_ground_state, ham) < 16 * 2**20


def _clear_fock_caches():
    caches = [f for f in vars(fock).values() if hasattr(f, "cache_clear")]
    for cached in caches:
        cached.cache_clear()
    return caches


def test_dense_ground_state_cold_peak_at_ten_modes():
    # a cold call also builds the index arrays it keeps for N = 10 (about 3.7 MiB)
    _clear_fock_caches()
    ham = random_quadratic_hamiltonian(10, np.random.default_rng(10))
    assert _traced_peak(dense_ground_state, ham) < 13 * 2**20


def test_every_cached_fock_array_is_read_only():
    caches = _clear_fock_caches()
    assert {f.__name__ for f in caches} >= {"_occupations", "_majorana_action", "_sector_terms"}
    for cached in caches:
        names = inspect.signature(cached).parameters
        for n_modes, parity in ((1, 0), (4, 1), (5, 0)):
            values = {"n_modes": n_modes, "parity": parity}
            result = cached(*(values[name] for name in names))
            for array in result if isinstance(result, tuple) else (result,):
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = array


def test_verify_lines_do_not_depend_on_the_cache_state():
    _clear_fock_caches()
    cold = [result.line() for result in run_all(max_modes=4, trials=4)]
    assert [result.line() for result in run_all(max_modes=4, trials=4)] == cold


def test_dense_ground_state_bits_do_not_depend_on_the_cache_history():
    hams = {n: random_quadratic_hamiltonian(n, np.random.default_rng(n)) for n in (3, 9, 10)}
    _clear_fock_caches()
    first = {}
    for n in (3, 9, 3, 10, 3):
        state, energy, degenerate = dense_ground_state(hams[n])
        bits = (state.amplitudes.tobytes(), energy, degenerate)
        assert first.setdefault(n, bits) == bits


def test_dense_ground_energy_matches_covariance_route_on_kitaev_chain():
    ham = kitaev_hamiltonian(9, 0.5, 1.0, 1.0)
    _, energy, _ = dense_ground_state(ham)
    assert abs(energy - ground_state_fcm(ham).energy) <= 1e-8


def test_dense_ground_state_trivial_cases():
    n = 3
    up = QuadraticHamiltonian(np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    state, energy, degenerate = dense_ground_state(up)
    assert energy == pytest.approx(0.0, abs=1e-12)
    assert not degenerate
    assert abs(state.amplitudes[0]) == pytest.approx(1.0)

    down = QuadraticHamiltonian(-np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    state, energy, _ = dense_ground_state(down)
    assert energy == pytest.approx(-6.0)
    assert abs(state.amplitudes[-1]) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_dense_ground_state_takes_the_even_state_of_an_exact_zero_mode_manifold(n):
    # mu = 0 leaves one exact Majorana zero mode pair: the even and odd ground
    # states tie, and the rule picks the even one, the vacuum of the
    # covariance route's modes
    ham = kitaev_hamiltonian(n, 0.0, 1.0, 0.5)
    state, _, degenerate = dense_ground_state(ham)
    assert degenerate
    odd = _occupations(n).sum(axis=0) % 2 == 1
    assert np.all(state.amplitudes[odd] == 0.0)
    fcm = fcm_from_state(state)
    m = fcm.matrix
    assert np.max(np.abs(m @ m + np.eye(2 * n))) <= 1e-12
    assert np.max(np.abs(m - ground_state_fcm(ham).state.matrix)) <= 1e-10
    half = Bipartition(tuple(range(n // 2)), tuple(range(n // 2, n)))
    _, fidelity = reconstruct_state(modewise_decompose(fcm, half), state)
    assert fidelity >= 1.0 - 1e-7


def _full_solve_cases():
    rng = np.random.default_rng(15)
    cases = [pytest.param(random_quadratic_hamiltonian(n, rng), id=f"random-{n}") for n in range(1, 9)]
    cases.append(pytest.param(QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2))), id="flat-2"))
    cases.append(pytest.param(kitaev_hamiltonian(7, 0.5, 1.0, 1.0), id="topological-7"))
    cases.append(pytest.param(kitaev_hamiltonian(7, 2.0, 1.0, 1.0), id="critical-7"))
    return cases


@pytest.mark.parametrize("ham", _full_solve_cases())
def test_dense_ground_state_matches_the_full_eigensolve(ham):
    energies, vectors = np.linalg.eigh(dense_hamiltonian(ham))
    state, energy, degenerate = dense_ground_state(ham)
    assert abs(energy - energies[0]) <= 1e-12 * max(1.0, abs(energies[0]))
    assert degenerate == bool(energies[1] - energies[0] < _GAP_TOL)
    if not degenerate:
        assert abs(np.vdot(vectors[:, 0], state.amplitudes)) >= 1.0 - 1e-12


def test_fcm_of_basis_states():
    vacuum = FockState.from_occupations([0, 0, 0])
    assert np.allclose(fcm_from_state(vacuum).matrix, j_blocks(3), atol=1e-14)
    filled = FockState.from_occupations([1, 1, 1])
    assert np.allclose(fcm_from_state(filled).matrix, -j_blocks(3), atol=1e-14)


def test_fcm_of_squeezed_pair_reproduces_pair_block():
    theta = 0.6
    state = squeezed_pair(theta)
    expected = pair_block(np.cos(2 * theta), np.sin(2 * theta))
    assert np.max(np.abs(fcm_from_state(state).matrix - expected)) < 1e-12


def test_reduced_density_full_and_single_mode():
    theta = 0.4
    state = squeezed_pair(theta)
    rho_full = reduced_density(state, [0, 1])
    assert np.allclose(rho_full, np.outer(state.amplitudes, state.amplitudes.conj()))
    rho_one = reduced_density(state, [0])
    assert np.allclose(rho_one, np.diag([np.cos(theta) ** 2, np.sin(theta) ** 2]), atol=1e-14)


def test_reduced_density_matches_majorana_moments_of_non_gaussian_states():
    # Tr(rho_A G_S) = <psi|G_S|psi> for every Majorana monomial G_S on the kept
    # modes, odd ones included, with G_S taken from the kron matrices on the
    # kept modes alone: a reference that needs no reordering signs.
    n = 4
    g = jordan_wigner_majoranas(n)
    rng = np.random.default_rng(4)
    for _ in range(3):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = FockState(n, amps / np.linalg.norm(amps))
        for size in range(1, n + 1):
            for modes in combinations(range(n), size):
                rho = reduced_density(state, modes)
                local = jordan_wigner_majoranas(size)
                quads = [2 * m + q for m in modes for q in (0, 1)]
                for count in range(1, 2 * size + 1):
                    for subset in combinations(range(2 * size), count):
                        local_op = reduce(np.matmul, [local[c] for c in subset])
                        global_op = reduce(np.matmul, [g[quads[c]] for c in subset])
                        expected = np.vdot(state.amplitudes, global_op @ state.amplitudes)
                        assert abs(np.trace(rho @ local_op) - expected) <= 1e-13


def test_reduced_density_validation():
    state = squeezed_pair(0.2)
    with pytest.raises(InvalidInputError):
        reduced_density(state, [0, 0])
    with pytest.raises(InvalidInputError):
        reduced_density(state, [4])


def test_schmidt_entropy_known_values():
    product = FockState.from_occupations([1, 0])
    assert schmidt_entropy(product, Bipartition((0,), (1,))) == pytest.approx(0.0, abs=1e-12)
    bell = squeezed_pair(np.pi / 4)
    assert schmidt_entropy(bell, Bipartition((0,), (1,))) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_entropy_matches_its_xlogy_form():
    from scipy.special import xlogy

    rng = np.random.default_rng(12)
    states = [FockState.from_occupations([1, 0, 1, 1])]
    states += [random_gaussian_state(n, rng)[0] for n in (2, 5, 8)]
    for state in states:
        n = state.n_modes
        for a_modes in ((0,), tuple(range(n // 2)), tuple(range(0, n, 2))):
            part = Bipartition(a_modes, tuple(m for m in range(n) if m not in a_modes))
            evals = np.clip(np.linalg.eigvalsh(reduced_density(state, a_modes)), 0.0, None)
            expected = -np.sum(xlogy(evals, evals)) / np.log(2.0)
            assert abs(schmidt_entropy(state, part) - expected) <= 1e-14


def test_schmidt_entropy_refuses_a_partition_that_misses_modes():
    state, _ = random_gaussian_state(6, np.random.default_rng(6))
    with pytest.raises(InvalidInputError, match="partition covers 4 modes but the state has 6"):
        schmidt_entropy(state, Bipartition((0, 1), (2, 3)))


def test_schmidt_entropy_symmetric_under_side_swap():
    rng = np.random.default_rng(8)
    state, _ = random_gaussian_state(5, rng)
    part = Bipartition((0, 3), (1, 2, 4))
    swapped = Bipartition((1, 2, 4), (0, 3))
    assert schmidt_entropy(state, part) == pytest.approx(
        schmidt_entropy(state, swapped), abs=1e-10
    )


def test_reconstruct_vacuum_identity():
    vacuum = FockState.from_occupations([0, 0, 0])
    fcm = fcm_from_state(vacuum)
    decomp = modewise_decompose(fcm, Bipartition((0,), (1, 2)))
    _, fidelity = reconstruct_state(decomp, vacuum)
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_rebuilds_the_state_from_probes_when_the_reference_misses_it():
    # |011> is orthogonal to the decomposed vacuum, so the fidelity is 0 and the
    # vacuum of the transformed modes comes from seeded probes instead.
    vacuum = FockState.from_occupations([0, 0, 0])
    decomp = modewise_decompose(fcm_from_state(vacuum), Bipartition((0,), (1, 2)))
    rebuilt, fidelity = reconstruct_state(decomp, FockState.from_occupations([0, 1, 1]))
    assert fidelity == 0.0
    assert abs(np.vdot(vacuum.amplitudes, rebuilt.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_single_pure_block():
    theta = 0.9 * np.pi / 4
    state = squeezed_pair(theta)
    decomp = modewise_decompose(fcm_from_state(state), Bipartition((0,), (1,)))
    rebuilt, fidelity = reconstruct_state(decomp, state)
    assert fidelity >= 1 - 1e-8
    assert rebuilt.n_modes == 2


@pytest.mark.parametrize("delta", [0.1, -0.3, 1.2])
def test_reconstruct_fidelity_measures_the_pair_angle(delta):
    # Shifting one pair angle by delta turns that pair's factor of the predicted
    # state into one with overlap cos(delta); this pins the signs of d_a and d_b.
    rng = np.random.default_rng(77)
    random_state, fcm = random_gaussian_state(6, rng)
    cases = [
        (squeezed_pair(0.3), Bipartition((0,), (1,))),
        (random_state, Bipartition((0, 1, 2), (3, 4, 5))),
    ]
    for state, part in cases:
        decomp = modewise_decompose(fcm_from_state(state), part)
        pairs = list(decomp.pairs)
        pairs[0] = pairs[0]._replace(theta=pairs[0].theta + delta)
        shifted = dataclasses.replace(decomp, pairs=pairs)
        _, fidelity = reconstruct_state(shifted, state)
        assert fidelity == pytest.approx(abs(np.cos(delta)), abs=1e-12)


def test_reconstruct_random_state_three_by_three():
    rng = np.random.default_rng(77)
    state, fcm = random_gaussian_state(6, rng)
    decomp = modewise_decompose(fcm, Bipartition((0, 1, 2), (3, 4, 5)))
    _, fidelity = reconstruct_state(decomp, state)
    assert fidelity >= 1 - 1e-7


def test_non_gaussian_states_fail_purity():
    # superposition of two disjoint pair excitations: all two-point functions
    # vanish, so the covariance matrix cannot square to -1
    amps = np.zeros(16, dtype=complex)
    amps[0b1100] = amps[0b0011] = 1 / np.sqrt(2)
    pair_sum = FockState(4, amps)
    assert not is_pure(fcm_from_state(pair_sum))

    # parity-mixed superposition is not Gaussian either
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1 / np.sqrt(2)
    cat = FockState(3, amps)
    assert not is_pure(fcm_from_state(cat))


def test_single_quasiparticle_superposition_is_gaussian():
    # the one-particle "W" superposition equals a rotated-mode excitation and
    # is a valid Gaussian state, so its covariance matrix is pure
    amps = np.zeros(8, dtype=complex)
    for i in range(3):
        amps[1 << i] = 1 / np.sqrt(3)
    w_state = FockState(3, amps)
    assert is_pure(fcm_from_state(w_state))


def test_fock_state_honours_the_mode_cap():
    with pytest.raises(ResourceLimitError):
        FockState.from_occupations([0] * 13)
    amps = np.zeros(2**13, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ResourceLimitError):
        FockState(13, amps)


def test_fock_state_validation():
    with pytest.raises(InvalidInputError):
        FockState(2, np.ones(4))
    with pytest.raises(InvalidInputError):
        FockState(3, np.ones(4) / 2.0)


def test_from_occupations_rejects_values_other_than_0_and_1():
    # a -1 would otherwise index the (2,)*N amplitude tensor from the end
    for occupations in ([0, -1], [2, 0]):
        with pytest.raises(InvalidInputError):
            FockState.from_occupations(occupations)
