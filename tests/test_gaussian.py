import dataclasses

import numpy as np
import pytest

from fermi_modewise import gaussian
from fermi_modewise import (
    Bipartition,
    CovarianceMatrix,
    FockState,
    GroundState,
    InvalidInputError,
    J2,
    NotIsotropicError,
    QuadraticHamiltonian,
    antisymmetrize,
    diagonal_fcm,
    dense_ground_state,
    fcm_from_state,
    ground_state_fcm,
    haar_orthogonal,
    hamiltonian_to_majorana,
    is_pure,
    isotropic_fcm,
    isotropy_parameter,
    j_blocks,
    kitaev_hamiltonian,
    lambda_blocks,
    modewise_decompose,
    pair_block,
    pair_spectrum,
    quadrature_indices,
    random_pure_fcm,
    restrict,
    williamson_form,
)
from fermi_modewise.canonical import _chiral_block
from fermi_modewise.verify import random_quadratic_hamiltonian
from test_fock import jordan_wigner_majoranas


def test_majorana_form_single_mode():
    ham = QuadraticHamiltonian([[1.7]], [[0.0]])
    coupling, offset = hamiltonian_to_majorana(ham)
    assert np.allclose(coupling, 1.7 * J2, atol=1e-14)
    assert offset == pytest.approx(1.7 / 2)


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
        coupling, offset = hamiltonian_to_majorana(ham)
        by_products, by_products_offset = _majorana_by_mode_products(ham)
        assert np.max(np.abs(coupling - by_products)) <= 1e-15
        assert abs(offset - by_products_offset) <= 1e-15


def test_majorana_coupling_is_exactly_antisymmetric():
    rng = np.random.default_rng(44)
    hams = [random_quadratic_hamiltonian(n, rng) for n in (1, 3, 16)]
    hams += [kitaev_hamiltonian(n, 0.5, 1.0, 0.7) for n in (1, 16)]
    for ham in hams:
        h, _ = hamiltonian_to_majorana(ham)
        assert np.array_equal(h, -h.T)


def test_majorana_form_zero_hamiltonian():
    zero = QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
    coupling, offset = hamiltonian_to_majorana(zero)
    assert np.allclose(coupling, 0.0)
    assert offset == 0.0


def test_majorana_form_matches_dense_oracle():
    rng = np.random.default_rng(21)
    ham = random_quadratic_hamiltonian(3, rng)
    coupling, offset = hamiltonian_to_majorana(ham)
    from fermi_modewise import dense_hamiltonian

    dense = dense_hamiltonian(ham)
    g = jordan_wigner_majoranas(3)
    rebuilt = 0.25j * np.einsum("aij,ab,bjk->ik", g, coupling, g) + offset * np.eye(8)
    assert np.max(np.abs(dense - rebuilt)) < 1e-10


def test_hamiltonian_validation():
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian(np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        QuadraticHamiltonian([[np.inf]], [[0.0]])


@pytest.mark.parametrize("matrix", ["hopping", "pairing"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("value", [
    complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
    complex(0.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf),
], ids=["nan", "inf", "-inf", "nan-j", "inf-j", "-inf-j"])
def test_hamiltonian_names_non_finite_entries(matrix, entry, value):
    mats = {"hopping": np.eye(2, dtype=complex), "pairing": np.zeros((2, 2), dtype=complex)}
    mats[matrix][entry] = value
    with pytest.raises(InvalidInputError, match=f"^{matrix} matrix has non-finite entries$"):
        QuadraticHamiltonian(mats["hopping"], mats["pairing"])


@pytest.mark.parametrize("matrix", ["hopping", "pairing"])
def test_hamiltonian_deviation_is_the_same_for_real_and_complex_input(matrix):
    # a C or A with zero imaginary parts is checked on its float64 copy; the
    # reported deviation must be the complex modulus of the same entries
    bad = np.zeros((3, 3))
    bad[0, 1] = 3e-12  # C[0, 1] - C[1, 0] = A[0, 1] + A[1, 0] = 3e-12
    # i K with K real antisymmetric is both hermitian and antisymmetric
    imag = 1j * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    messages = []
    for mat in (bad, bad.astype(complex), bad + imag):
        mats = {"hopping": np.zeros((3, 3)), "pairing": np.zeros((3, 3)), matrix: mat}
        with pytest.raises(InvalidInputError) as raised:
            QuadraticHamiltonian(mats["hopping"], mats["pairing"])
        messages.append(str(raised.value))
    failure = "is not hermitian: max|C - C^dag|" if matrix == "hopping" else \
        "is not antisymmetric: max|A + A^T|"
    assert messages == [f"{matrix} matrix {failure} = 3.000e-12"] * 3


def test_hamiltonian_is_frozen_with_read_only_copies():
    hopping = np.eye(2, dtype=complex)
    ham = QuadraticHamiltonian(hopping, np.zeros((2, 2)))
    hopping[0, 1] = 1.0
    assert ham.hopping[0, 1] == 0.0
    for name in ("hopping", "pairing"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ham, name)[0, 1] += 1e-6
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ham, name, np.zeros((2, 2)))


def test_hamiltonian_stores_float64_unless_an_imaginary_part_is_nonzero():
    rng = np.random.default_rng(3)
    c, a = rng.standard_normal((2, 4, 4))
    c, a = c + c.T, a - a.T
    c[1, 2] = c[2, 1] = -0.0
    for hopping, pairing in ((c, a), (c.astype(complex), a), (c, a.astype(complex)),
                             (c.astype(complex), a.astype(complex)), (c.tolist(), a.tolist())):
        ham = QuadraticHamiltonian(hopping, pairing)
        for stored, real in ((ham.hopping, c), (ham.pairing, a)):
            assert stored.dtype == np.float64 and not stored.flags.writeable
            assert stored.tobytes() == real.tobytes()
    assert QuadraticHamiltonian(np.eye(2, dtype=int), np.zeros((2, 2), bool)).hopping.dtype == np.float64
    # i K with K real antisymmetric is both hermitian and antisymmetric
    imag = 1j * np.triu(rng.standard_normal((4, 4)), 1)
    imag -= imag.T
    for hopping, pairing in ((c + imag, a), (c, a + imag), (c + imag, a.astype(complex) + imag)):
        ham = QuadraticHamiltonian(hopping, pairing)
        for stored, given in ((ham.hopping, hopping), (ham.pairing, pairing)):
            assert stored.dtype == np.complex128 and not stored.flags.writeable
            assert stored.tobytes() == np.asarray(given, dtype=complex).tobytes()


def test_both_ground_state_routes_return_a_ground_state():
    ham = kitaev_hamiltonian(4, 0.5, 1.0, 1.0)
    for route, kind in ((ground_state_fcm, CovarianceMatrix), (dense_ground_state, FockState)):
        ground = route(ham)
        assert isinstance(ground, GroundState)
        state, energy, degenerate = ground
        assert state is ground.state and energy == ground.energy and degenerate == ground.degenerate
        assert isinstance(state, kind) and isinstance(energy, float) and degenerate is False


def test_ground_state_vacuum_and_filled():
    n = 3
    up = QuadraticHamiltonian(np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    ground = ground_state_fcm(up)
    assert np.allclose(ground.state.matrix, j_blocks(n), atol=1e-12)
    assert ground.energy == pytest.approx(0.0, abs=1e-12)

    down = QuadraticHamiltonian(-np.diag([1.0, 2.0, 3.0]), np.zeros((n, n)))
    ground = ground_state_fcm(down)
    assert np.allclose(ground.state.matrix, -j_blocks(n), atol=1e-12)
    assert ground.energy == pytest.approx(-6.0)


def test_ground_state_is_pure_and_matches_dense_oracle():
    ham = kitaev_hamiltonian(6, 0.5, 1.0, 1.0)
    ground = ground_state_fcm(ham)
    assert is_pure(ground.state)
    state, energy, _ = dense_ground_state(ham)
    assert ground.energy == pytest.approx(energy, abs=1e-8)
    assert np.max(np.abs(ground.state.matrix - fcm_from_state(state).matrix)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256])
def test_chain_ground_state_is_the_dense_product_bit_for_bit(n):
    # M = X^T - X with X = O[0::2]^T O[1::2], formed as one dense 2N x 2N product
    # mu = 1, delta = 0.5 has delta != t, so its even-odd coupling block is tridiagonal
    for mu, delta in ((0.5, 1.0), (2.0, 1.0), (0.0, 0.0), (1.0, 0.5)):
        ham = kitaev_hamiltonian(n, mu, 1.0, delta)
        h, offset = hamiltonian_to_majorana(ham)
        form = williamson_form(h)
        x = form.orthogonal[0::2].T @ form.orthogonal[1::2]
        state, energy, degenerate = ground_state_fcm(ham)
        assert state.matrix.tobytes() == CovarianceMatrix(x.T - x).matrix.tobytes()
        assert energy == offset - 0.5 * float(np.sum(form.lambdas))
        assert degenerate == bool(np.any(form.lambdas <= 1e-8))


@pytest.mark.parametrize("n", [1, 16, 64])
def test_chain_ground_state_is_the_same_for_float_and_zero_imaginary_input(n):
    for mu, delta in ((0.5, 1.0), (0.0, 0.0), (1.0, 0.5)):
        ham = kitaev_hamiltonian(n, mu, 1.0, delta)
        as_complex = QuadraticHamiltonian(ham.hopping + 0j, ham.pairing + 0j)
        (m_float, e_float, d_float), (m_complex, e_complex, d_complex) = (
            ground_state_fcm(h) for h in (ham, as_complex))
        assert m_float.matrix.tobytes() == m_complex.matrix.tobytes()
        assert np.float64(e_float).tobytes() == np.float64(e_complex).tobytes()
        assert d_float is d_complex


def test_ground_state_degeneracy_flag():
    flat = QuadraticHamiltonian(np.zeros((2, 2)), np.zeros((2, 2)))
    assert ground_state_fcm(flat).degenerate
    gapped = QuadraticHamiltonian(np.eye(2), np.zeros((2, 2)))
    assert not ground_state_fcm(gapped).degenerate


def test_is_pure():
    vacuum = diagonal_fcm([1.0, 1.0])
    assert is_pure(vacuum)
    assert not is_pure(CovarianceMatrix(0.5 * vacuum.matrix))
    assert is_pure(random_pure_fcm(4, 9))


@pytest.mark.parametrize("lambda0, pure", [(1.0, True), (1 - 3e-10, True),
                                           (1 - 3e-9, False), (0.5, False)])
def test_is_pure_is_the_purity_of_the_decomposition(lambda0, pure):
    state = isotropic_fcm(3, lambda0, 2)
    part = Bipartition((0,), (1, 2))
    assert is_pure(state) == modewise_decompose(state, part).pure == pure
    assert pair_spectrum(state, part).pure == pure


def test_not_isotropic_is_not_pure_and_reports_the_stored_deviation():
    state = diagonal_fcm([0.9, 0.3])
    assert not is_pure(state)
    for decompose in (modewise_decompose, pair_spectrum):
        with pytest.raises(NotIsotropicError) as raised:
            decompose(state, Bipartition((0,), (1,)))
        assert raised.value.deviation == state.isotropy_deviation


def test_isotropy_fit_is_stored_at_construction():
    state = isotropic_fcm(4, 0.8, 3)
    msq = state.matrix @ state.matrix
    lam0_sq = -float(np.trace(msq)) / msq.shape[0]
    assert state.lambda0_sq == lam0_sq
    assert state.isotropy_deviation == float(np.max(np.abs(msq + lam0_sq * np.eye(8))))
    assert isotropy_parameter(state) == abs(float(np.sqrt(lam0_sq)))


@pytest.mark.parametrize("state", [
    diagonal_fcm([0.9, 0.3, 0.5]),
    ground_state_fcm(kitaev_hamiltonian(16, 0.5, 1.0, 1.0)).state,
    CovarianceMatrix(0.6 * ground_state_fcm(kitaev_hamiltonian(9, 2.0, 1.0, 0.3)).state.matrix),
], ids=["diagonal", "chain", "scaled-chain"])
def test_chiral_isotropy_fit_matches_the_full_square(state):
    # chiral M square blockwise; the fit must agree with the one of M @ M
    msq = state.matrix @ state.matrix
    lam0_sq = -float(np.trace(msq)) / msq.shape[0]
    deviation = float(np.max(np.abs(msq + lam0_sq * np.eye(msq.shape[0]))))
    assert state.lambda0_sq == pytest.approx(lam0_sq, abs=1e-15)
    assert state.isotropy_deviation == pytest.approx(deviation, abs=1e-15)


def _signed_zero_chiral_input():
    """A chiral isotropic input whose blocks hold +0.0 and -0.0 in every sign pairing."""
    b = 0.5 * haar_orthogonal(4, 7)
    b[0, 1] = b[1, 2] = b[2, 3] = b[3, 0] = 0.0
    mat = np.zeros((8, 8))
    mat[0::2, 1::2], mat[1::2, 0::2] = b, -b.T  # (b[i, j], -b[j, i]) = (0.0, -0.0) at the zeros
    mat[0::2, 1::2][1, 2] = -0.0                # (-0.0, -0.0)
    mat[0::2, 1::2][2, 3], mat[1::2, 0::2][3, 2] = -0.0, 0.0  # (-0.0, 0.0)
    mat[1::2, 0::2][0, 3] = 0.0                 # (0.0, 0.0)
    mat[0::2, 0::2][0, 1] = mat[1::2, 1::2][2, 3] = mat[1::2, 1::2][3, 2] = -0.0
    return mat


@pytest.mark.parametrize("deviation", [0.0, 5e-13], ids=["exact", "averaged"])
def test_chiral_input_gives_the_antisymmetric_part_bit_for_bit(deviation):
    # the constructor checks a chiral input on its off-diagonal blocks only; its
    # matrix must still be 0.5 (M - M^T) to the bit, signed zeros included
    mat = _signed_zero_chiral_input()
    mat[0, 1] += deviation
    assert _chiral_block(mat) is not None
    assert CovarianceMatrix(mat).matrix.tobytes() == (0.5 * (mat - mat.T)).tobytes()


@pytest.mark.parametrize("row, col, value", [
    (0, 1, 2e-12), (0, 1, np.nan), (3, 0, np.inf), (5, 2, -np.inf), (2, 2, np.nan), (0, 2, np.inf),
], ids=["deviation", "nan", "inf", "-inf", "nan-in-diagonal-block", "inf-in-diagonal-block"])
def test_chiral_input_is_refused_with_the_antisymmetrize_message(row, col, value):
    mat = _signed_zero_chiral_input()
    mat[row, col] = mat[row, col] + value if np.isfinite(value) else value  # perturb or replace
    with pytest.raises(InvalidInputError) as expected:
        antisymmetrize(mat)
    with pytest.raises(InvalidInputError) as raised:
        CovarianceMatrix(mat)
    assert str(raised.value) == str(expected.value)
    assert str(expected.value).startswith(("matrix has non-finite entries",
                                           "matrix is not antisymmetric: max|M + M^T| = 2.000e-12"))


@pytest.mark.parametrize("matrix", [
    [[0, 1e308], [-1e308, 0]],
    [[0, 1e308, 1e-3, 0], [-1e308, 0, 0, 0], [-1e-3, 0, 0, 0.5], [0, 0, -0.5, 0]],
], ids=["chiral", "non-chiral"])
def test_overflowing_covariance_matrix_is_refused(matrix):
    # finite entries whose antisymmetric part overflows to +-inf
    with pytest.raises(InvalidInputError, match="^covariance matrix entries overflow"):
        CovarianceMatrix(matrix)


def test_covariance_matrix_is_frozen_and_read_only():
    given = j_blocks(2)
    state = CovarianceMatrix(given)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.matrix = 0.5 * given
    with pytest.raises(ValueError):
        state.matrix[0, 1] = 0.5
    assert given.flags.writeable
    given[0, 1] = 0.5


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
        assert is_pure(state)
        lambdas = williamson_form(restrict(state, [0, 2]).matrix).lambdas
        assert np.all(lambdas >= -1e-12) and np.all(lambdas <= 1 + 1e-9)


def test_isotropic_fcm():
    assert is_pure(isotropic_fcm(3, 1.0, 5))
    assert np.allclose(isotropic_fcm(3, 0.0, 5).matrix, 0.0)
    state = isotropic_fcm(3, 0.7, 5)
    assert np.max(np.abs(state.matrix @ state.matrix + 0.49 * np.eye(6))) < 1e-10
    assert np.max(np.abs(williamson_form(state.matrix).lambdas - 0.7)) < 1e-10
    with pytest.raises(InvalidInputError):
        isotropic_fcm(3, 1.5, 5)


@pytest.mark.parametrize("n_modes, lambda0", [(3, 0.0), (3, 0.5), (3, 1.0), (50, 0.3), (400, 0.9)])
def test_isotropic_fcm_is_lambda0_times_the_pure_state(n_modes, lambda0):
    # the two-step formula: build the pure state R diag(J2) R^T, scale, build again
    r = haar_orthogonal(2 * n_modes, 7)
    pure = CovarianceMatrix(r @ j_blocks(n_modes) @ r.T).matrix
    two_step = CovarianceMatrix(lambda0 * pure).matrix
    for built, expected in ((isotropic_fcm(n_modes, lambda0, 7).matrix, two_step),
                            (random_pure_fcm(n_modes, 7).matrix, pure)):
        assert np.array_equal(built, expected)
        assert built.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_modes", [3, 50, 400])
@pytest.mark.parametrize("seed", [1, 2])
def test_isotropic_fcm_has_the_bits_of_the_product_by_j_blocks(n_modes, seed):
    # the dense product R diag(J2) R^T that moving and negating columns replaced
    r = haar_orthogonal(2 * n_modes, seed)
    product = antisymmetrize(r @ j_blocks(n_modes) @ r.T)
    for lambda0 in (1.0, 0.3):
        expected = CovarianceMatrix(lambda0 * product).matrix
        assert isotropic_fcm(n_modes, lambda0, seed).matrix.tobytes() == expected.tobytes()


def test_covariance_matrix_equality():
    state = random_pure_fcm(2, 1)
    assert state == random_pure_fcm(2, 1)
    assert not state != random_pure_fcm(2, 1)
    assert state != random_pure_fcm(2, 2)
    assert state != random_pure_fcm(3, 1)
    assert state != CovarianceMatrix(np.zeros((0, 0)))
    assert CovarianceMatrix(np.zeros((0, 0))) == CovarianceMatrix(np.zeros((0, 0)))
    for other in (state.matrix, "state", None, 1.0):
        assert (state == other) is False
        assert (state != other) is True


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


@pytest.mark.filterwarnings("error")
def test_covariance_matrix_rejects_unphysical():
    with pytest.raises(InvalidInputError):
        CovarianceMatrix(1.5 * j_blocks(2))
    with pytest.raises(InvalidInputError):
        CovarianceMatrix(np.ones((4, 4)))
    with pytest.raises(InvalidInputError):  # M^2 overflows
        CovarianceMatrix(1e200 * j_blocks(2))


def _chiral_rotation(n_modes: int, seed: int) -> np.ndarray:
    """Orthogonal map of even quadratures to even and odd to odd: it keeps a matrix chiral."""
    rotation = np.zeros((2 * n_modes, 2 * n_modes))
    rotation[0::2, 0::2] = haar_orthogonal(n_modes, seed)
    rotation[1::2, 1::2] = haar_orthogonal(n_modes, seed + 1)
    return rotation


@pytest.mark.parametrize("rotation", [np.eye(100), _chiral_rotation(50, 6), haar_orthogonal(100, 6)],
                         ids=["block-diagonal", "chiral-rotated", "haar-rotated"])
def test_physicality_boundary(rotation, monkeypatch):
    lambdas = np.random.default_rng(5).uniform(0.0, 1.0, 50)
    assert (_chiral_block(rotation @ lambda_blocks(lambdas) @ rotation.T) is None) == (
        rotation[0::2, 1::2].any())

    def state(top):
        lambdas[7] = top
        return CovarianceMatrix(rotation @ lambda_blocks(lambdas) @ rotation.T)

    calls = count_factorizations(monkeypatch)
    assert state(1 + 0.5e-9).n_modes == 50
    assert calls  # not isotropic: the isotropy fit proves nothing
    with pytest.raises(InvalidInputError) as raised:
        state(1 + 2e-9)
    assert str(raised.value) == UNPHYSICAL
    assert CovarianceMatrix(np.zeros((0, 0))).n_modes == 0


UNPHYSICAL = "unphysical covariance matrix: Williamson eigenvalues [1.000000002] exceed 1 + 1e-09"


def count_factorizations(monkeypatch) -> list:
    """The shapes of the blocks that ``gaussian._positive_definite`` factorizes from now on."""
    calls = []
    factorize = gaussian._positive_definite
    monkeypatch.setattr(gaussian, "_positive_definite", lambda sq: calls.append(sq.shape) or factorize(sq))
    return calls


@pytest.mark.parametrize("pure", [ground_state_fcm(kitaev_hamiltonian(64, 0.5, 1.0, 1.0)).state,
                                  random_pure_fcm(50, 6)], ids=["chiral-chain", "haar-rotated"])
def test_physicality_of_isotropic_states_from_the_isotropy_fit(pure, monkeypatch):
    calls = count_factorizations(monkeypatch)
    accepted = CovarianceMatrix((1 + 0.5e-9) * pure.matrix)
    assert isotropy_parameter(accepted) == pytest.approx(1 + 0.5e-9, abs=1e-15)
    assert calls == []  # proved without a factorization
    with pytest.raises(InvalidInputError) as raised:
        CovarianceMatrix((1 + 2e-9) * pure.matrix)
    assert str(raised.value) == UNPHYSICAL
    assert calls  # lambda0 beyond 1 + 1e-9 proves nothing, and the factorization fails


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


@pytest.mark.parametrize("modes", [(3, 0, 2), [1, 4], range(2, 5), "generator",
                                   np.array([5, 1], dtype=np.int32), ()])
def test_quadrature_indices_values_and_dtype(modes):
    if isinstance(modes, str):
        modes, reference = (i for i in (2, 0)), (2, 0)
    else:
        reference = modes
    # the column_stack formula quadrature_indices had before it filled one array
    m = np.asarray(list(reference), dtype=int)
    expected = np.column_stack((2 * m, 2 * m + 1)).reshape(-1)
    q = quadrature_indices(modes)
    assert q.dtype == expected.dtype and q.shape == expected.shape
    assert np.array_equal(q, expected)
