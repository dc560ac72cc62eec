"""Property test of the values-only pair spectrum on structured isotropic states.

Each state is a direct sum of BCS pairs and local vacua, scaled to lambda0,
with its modes permuted and, in some cases, side A rotated locally.  The
angles come out of the full decomposition, of ``pair_spectrum`` and of the
construction, and both routes put pair k on transformed mode k of each side.
Each pure state is also the ground state of a Hamiltonian built from it,
found again by ``ground_state_fcm``, and at N <= 8 its entropy is checked
against the dense Schmidt entropy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from fermi_modewise import (
    J2,
    Bipartition,
    CovarianceMatrix,
    QuadraticHamiltonian,
    dense_ground_state,
    ground_state_fcm,
    haar_orthogonal,
    hamiltonian_to_majorana,
    isotropic_separability,
    modewise_decompose,
    pair_block,
    pair_spectrum,
    quadrature_indices,
    reconstruction_residual,
    schmidt_entropy,
)

# zero, pi/4 and near-pi/4 angles, drawn often, besides generic ones
ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 4 - 1e-9]), st.floats(0.01, np.pi / 4))


@st.composite
def structured_states(draw):
    """(state, partition, expected angles) of a permuted, scaled BCS-plus-vacua state."""
    thetas = draw(st.lists(ANGLES, max_size=4))
    thetas += thetas[:1] * draw(st.integers(0, 2))  # repeated angles
    vacua = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=0 if thetas else 1, max_size=3))
    lambda0 = draw(st.sampled_from([1e-3, 0.5, 1.0]))
    blocks = [pair_block(np.cos(2 * t), np.sin(2 * t)) for t in thetas] + [s * J2 for s in vacua]
    n = 2 * len(thetas) + len(vacua)
    order = draw(st.permutations(range(n)))  # new mode k is old mode order[k]
    q = quadrature_indices(order)
    matrix = (lambda0 * block_diag(*blocks))[np.ix_(q, q)]
    on_a = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a_modes = tuple(k for k in range(n) if on_a[k])
    b_modes = tuple(k for k in range(n) if not on_a[k])
    if a_modes and draw(st.booleans()):  # keeps every value, loses chirality
        rows = quadrature_indices(a_modes)
        rotation = np.eye(2 * n)
        rotation[np.ix_(rows, rows)] = haar_orthogonal(len(rows), draw(st.integers(0, 2**16)))
        matrix = rotation @ matrix @ rotation.T
    # pair k holds old modes 2k and 2k + 1; it is cut when they lie on different sides
    side = {old: on_a[new] for new, old in enumerate(order)}
    expected = sorted((t for k, t in enumerate(thetas) if side[2 * k] != side[2 * k + 1] and t > 0),
                      reverse=True)
    return CovarianceMatrix(matrix), Bipartition(a_modes, b_modes), expected


def hamiltonian_with_ground_state(matrix: np.ndarray) -> QuadraticHamiltonian:
    """The quadratic Hamiltonian with Majorana coupling h = M, whose ground state is a pure M."""
    ee, eo = matrix[0::2, 0::2], matrix[0::2, 1::2]
    oe, oo = matrix[1::2, 0::2], matrix[1::2, 1::2]
    ham = QuadraticHamiltonian(0.5 * (oe - eo) + 0.5j * (ee + oo), 0.25 * (oe + eo) + 0.25j * (ee - oo))
    assert np.max(np.abs(hamiltonian_to_majorana(ham)[0] - matrix), initial=0.0) <= 1e-15
    return ham


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(structured_states())
def test_pair_spectrum_matches_the_decomposition(case):
    state, partition, expected = case
    decomp = modewise_decompose(state, partition)
    spectrum = pair_spectrum(state, partition)
    assert spectrum.lambda0 == decomp.lambda0
    full = np.array([p.theta for p in decomp.pairs])
    values = np.array([p.theta for p in spectrum.pairs])
    assert len(values) == len(full) == len(expected)
    assert np.max(np.abs(values - expected), initial=0.0) <= 1e-14
    assert np.max(np.abs(values - full), initial=0.0) <= 1e-14
    by_mode = {p.mode: p.theta for p in decomp.pairs}
    assert max((abs(p.theta - by_mode[p.mode]) for p in spectrum.pairs), default=0.0) <= 1e-14
    # Pair k sits on transformed mode k of both sides; the residual modes follow.
    n_pairs, n_a = decomp.n_pairs, len(partition.a_modes)
    for pairs in (decomp.pairs, spectrum.pairs):
        assert sorted(p.mode for p in pairs) == list(range(n_pairs))
        assert all(p.a_mode == p.b_mode == p.mode for p in pairs)
    assert [r.mode for r in decomp.residual_a] == list(range(n_pairs, n_a))
    assert [r.mode for r in decomp.residual_b] == list(range(n_pairs, state.n_modes - n_a))
    assert reconstruction_residual(decomp, state) <= 1e-8
    if spectrum.pure:
        ham = hamiltonian_with_ground_state(state.matrix)
        ground = ground_state_fcm(ham)  # the float route for a chiral M, else the complex one
        assert not ground.degenerate
        assert np.max(np.abs(ground.state.matrix - state.matrix), initial=0.0) <= 1e-14
        if state.n_modes <= 8:
            dense, _, degenerate = dense_ground_state(ham)
            assert not degenerate
            assert isotropic_separability(spectrum).total_modes_entropy == pytest.approx(
                schmidt_entropy(dense, partition), abs=1e-10
            )
