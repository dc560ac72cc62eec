import numpy as np
import pytest

from fermi_modewise import (
    Bipartition,
    CovarianceMatrix,
    InvalidInputError,
    J2,
    QuadraticHamiltonian,
    diagonal_fcm,
    dense_ground_state,
    fcm_from_state,
    ground_state_fcm,
    hamiltonian_to_majorana,
    is_pure,
    isotropic_fcm,
    isotropy_parameter,
    j_blocks,
    kitaev_hamiltonian,
    pair_block,
    random_pure_fcm,
    restrict,
    williamson_form,
)
from fermi_modewise.verify import random_quadratic_hamiltonian
from test_fock import jordan_wigner_majoranas


def test_majorana_form_single_mode():
    ham = QuadraticHamiltonian([[1.7]], [[0.0]])
    maj = hamiltonian_to_majorana(ham)
    assert np.allclose(maj.coupling, 1.7 * J2, atol=1e-14)
    assert maj.offset == pytest.approx(1.7 / 2)


def _majorana_by_mode_products(ham):
    """The quadrature form from dense b / b^dag coefficient products."""
    n = ham.n_modes
    # row i holds the quadrature coefficients of b_i = (g_2i - i g_2i+1) / 2
    ann = np.zeros((n, 2 * n), dtype=complex)
    ann[np.arange(n), 2 * np.arange(n)] = 0.5
    ann[np.arange(n), 2 * np.arange(n) + 1] = -0.5j
    cre = ann.conj()
    quad = cre.T @ ham.hopping @ ann + cre.T @ ham.pairing @ cre - ann.T @ ham.pairing.conj() @ ann
    return 2.0 * (quad - quad.T).imag, float(np.trace(quad).real)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_majorana_form_matches_mode_products(n):
    rng = np.random.default_rng(40 + n)
    hams = [random_quadratic_hamiltonian(n, rng) for _ in range(3)]
    hams += [kitaev_hamiltonian(n, mu, 1.0, 0.7) for mu in (0.5, 2.0)]
    for ham in hams:
        maj = hamiltonian_to_majorana(ham)
        coupling, offset = _majorana_by_mode_products(ham)
        assert np.max(np.abs(maj.coupling - coupling)) <= 1e-15
        assert abs(maj.offset - offset) <= 1e-15


def test_majorana_form_zero_hamiltonian():
    maj = hamiltonian_to_majorana(QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.allclose(maj.coupling, 0.0)
    assert maj.offset == 0.0


def test_majorana_form_matches_dense_oracle():
    rng = np.random.default_rng(21)
    ham = random_quadratic_hamiltonian(3, rng)
    maj = hamiltonian_to_majorana(ham)
    from fermi_modewise import dense_hamiltonian

    dense = dense_hamiltonian(ham)
    g = jordan_wigner_majoranas(3)
    rebuilt = 0.25j * np.einsum("aij,ab,bjk->ik", g, maj.coupling, g) + maj.offset * np.eye(8)
    assert np.max(np.abs(dense - rebuilt)) < 1e-10


def test_hamiltonian_validation():
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian(np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian([[np.inf]], [[0.0]])


def test_ground_state_vacuum_and_filled():
    n = 3
    up = QuadraticHamiltonian(np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    ground = ground_state_fcm(up)
    assert np.allclose(ground.fcm.matrix, j_blocks(n), atol=1e-12)
    assert ground.energy == pytest.approx(0.0, abs=1e-12)

    down = QuadraticHamiltonian(-np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    ground = ground_state_fcm(down)
    assert np.allclose(ground.fcm.matrix, -j_blocks(n), atol=1e-12)
    assert ground.energy == pytest.approx(-6.0)


def test_ground_state_is_pure_and_matches_dense_oracle():
    ham = kitaev_hamiltonian(6, 0.5, 1.0, 1.0)
    ground = ground_state_fcm(ham)
    assert is_pure(ground.fcm, 1e-9)
    state, energy, _ = dense_ground_state(ham)
    assert ground.energy == pytest.approx(energy, abs=1e-8)
    assert np.max(np.abs(ground.fcm.matrix - fcm_from_state(state).matrix)) < 1e-8


def test_ground_state_degeneracy_flag():
    flat = QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
    assert ground_state_fcm(flat).degenerate
    gapped = QuadraticHamiltonian(np.eye(2), np.zeros((2, 2)))
    assert not ground_state_fcm(gapped).degenerate


def test_is_pure():
    vacuum = diagonal_fcm([1.0, 1.0])
    assert is_pure(vacuum, 1e-9)
    assert not is_pure(CovarianceMatrix(0.5 * vacuum.matrix), 1e-9)
    assert is_pure(random_pure_fcm(4, 9), 1e-9)


def test_isotropy_parameter():
    pure = random_pure_fcm(3, 1)
    assert isotropy_parameter(pure) == pytest.approx(1.0, abs=1e-12)
    scaled = CovarianceMatrix(0.6 * pure.matrix)
    assert isotropy_parameter(scaled) == pytest.approx(0.6, abs=1e-12)
    assert isotropy_parameter(diagonal_fcm([0.9, 0.3])) is None


def test_restrict_vacuum_and_pair_block():
    vacuum = diagonal_fcm([1.0] * 4)
    sub = restrict(vacuum, [2, 0])
    assert np.allclose(sub.matrix, j_blocks(2))

    lam, kappa = np.cos(0.8), np.sin(0.8)
    pure_pair = CovarianceMatrix(pair_block(lam, kappa))
    first = restrict(pure_pair, [0])
    assert np.allclose(first.matrix, lam * J2, atol=1e-12)


def test_restrict_spectra_match_oracle_reduced_density():
    from itertools import product

    from fermi_modewise import reduced_density
    from fermi_modewise.verify import random_gaussian_state

    rng = np.random.default_rng(17)
    state, fcm = random_gaussian_state(4, rng)
    for modes in [(0, 1), (1, 3), (0, 2)]:
        lambdas = williamson_form(restrict(fcm, modes).matrix).lambdas
        expected = sorted(
            float(np.prod([(1 + s * l) / 2 for s, l in zip(signs, lambdas)]))
            for signs in product((1, -1), repeat=len(lambdas))
        )
        observed = np.sort(np.linalg.eigvalsh(reduced_density(state, modes)))
        assert np.max(np.abs(observed - np.array(expected))) < 1e-8


def test_restrict_validation():
    vacuum = diagonal_fcm([1.0] * 3)
    with pytest.raises(InvalidInputError):
        restrict(vacuum, [0, 0])
    with pytest.raises(InvalidInputError):
        restrict(vacuum, [5])


def test_random_pure_fcm_determinism_and_physicality():
    a = random_pure_fcm(4, 123)
    b = random_pure_fcm(4, 123)
    assert np.array_equal(a.matrix, b.matrix)
    for seed in range(100):
        state = random_pure_fcm(4, seed)
        assert is_pure(state, 1e-9)
        lambdas = williamson_form(restrict(state, [0, 2]).matrix).lambdas
        assert np.all(lambdas >= -1e-12) and np.all(lambdas <= 1 + 1e-9)


def test_isotropic_fcm():
    assert is_pure(isotropic_fcm(3, 1.0, 5), 1e-9)
    assert np.allclose(isotropic_fcm(3, 0.0, 5).matrix, 0.0)
    state = isotropic_fcm(3, 0.7, 5)
    assert np.max(np.abs(state.matrix @ state.matrix + 0.49 * np.eye(6))) < 1e-10
    assert np.max(np.abs(williamson_form(state.matrix).lambdas - 0.7)) < 1e-10
    with pytest.raises(InvalidInputError):
        isotropic_fcm(3, 1.5, 5)


def test_pure_states_pair_local_spectra():
    from fermi_modewise.verify import random_gaussian_state

    rng = np.random.default_rng(31)
    _, fcm = random_gaussian_state(6, rng)
    part = Bipartition((0, 2, 5), (1, 3, 4))
    lam_a = williamson_form(restrict(fcm, part.a_modes).matrix).lambdas
    lam_b = williamson_form(restrict(fcm, part.b_modes).matrix).lambdas
    below_a = np.sort(lam_a[lam_a < 1 - 1e-8])
    below_b = np.sort(lam_b[lam_b < 1 - 1e-8])
    assert below_a.shape == below_b.shape
    assert np.max(np.abs(below_a - below_b), initial=0.0) < 1e-8


def test_covariance_matrix_rejects_unphysical():
    with pytest.raises(InvalidInputError):
        CovarianceMatrix(1.5 * j_blocks(2))
    with pytest.raises(InvalidInputError):
        CovarianceMatrix(np.ones((4, 4)))


def test_diagonal_fcm_validation():
    with pytest.raises(InvalidInputError):
        diagonal_fcm([0.5, 1.2])
    with pytest.raises(InvalidInputError):
        diagonal_fcm([])
    state = diagonal_fcm([0.9, 0.3])
    assert np.allclose(state.matrix[:2, :2], 0.9 * J2)


def test_bipartition_validation():
    with pytest.raises(InvalidInputError):
        Bipartition((0, 1), (1, 2))
    with pytest.raises(InvalidInputError):
        Bipartition((0,), (3,))
    part = Bipartition((2, 0), (1,))
    assert part.n_modes == 3
