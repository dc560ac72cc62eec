import math

import numpy as np
import pytest

from fermi_modewise import (
    Bipartition,
    CovarianceMatrix,
    InvalidInputError,
    bcs_fcm,
    binary_entropy,
    isotropic_fcm,
    isotropic_separability,
    modewise_decompose,
    pair_block,
    ppt_min_eigenvalue,
    ppt_pair_entangled,
    pure_mode_entanglement,
    two_mode_block_matrix,
)
from test_fock import jordan_wigner_majoranas

# frozen from a 40-digit arbitrary-precision evaluation of -p log2 p - (1-p) log2 (1-p)
H2_OF_0_1 = 0.4689955935892812


def admissible_triples(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lambda0 = rng.uniform(0.05, 1.0)
        kappa = rng.uniform(0.0, lambda0)
        lam = np.sqrt(lambda0**2 - kappa**2)
        yield lambda0, lam, kappa


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.1) == pytest.approx(H2_OF_0_1, abs=1e-12)
    with pytest.raises(InvalidInputError):
        binary_entropy(1.1)
    with pytest.raises(InvalidInputError):
        binary_entropy(-0.1)


def test_binary_entropy_has_the_bits_of_its_xlogy_form():
    from scipy.special import xlogy

    grid = [0.0, 1.0, 0.5, 1e-300, 5e-324, 1e-12, 1.0 - 2.0**-53, 1.0 - 1e-12, 0.1, 1.0 / 3.0]
    grid += np.linspace(0.0, 1.0, 257).tolist() + np.random.default_rng(3).random(500).tolist()
    for p in grid:
        expected = float(-(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / np.log(2.0))
        got = binary_entropy(p)
        assert (got, math.copysign(1.0, got)) == (expected, math.copysign(1.0, expected)), p
    assert math.copysign(1.0, binary_entropy(0.0)) == math.copysign(1.0, binary_entropy(1.0)) == -1.0


def test_pair_entropy_monotone_in_theta():
    thetas = np.linspace(0.0, np.pi / 4, 60)
    entropies = [binary_entropy(np.cos(t) ** 2) for t in thetas]
    assert all(b > a for a, b in zip(entropies, entropies[1:]))
    assert entropies[0] == 0.0
    assert entropies[-1] == pytest.approx(1.0, abs=1e-12)


def test_pure_mode_entanglement_limits():
    product = CovarianceMatrix(pair_block(1.0, 0.0))
    decomp = modewise_decompose(product, Bipartition((0,), (1,)))
    report = pure_mode_entanglement(decomp)
    assert report.total_modes_entropy == pytest.approx(0.0, abs=1e-12)
    assert report.separable

    bell = CovarianceMatrix(pair_block(0.0, 1.0))
    decomp = modewise_decompose(bell, Bipartition((0,), (1,)))
    report = pure_mode_entanglement(decomp)
    assert report.total_modes_entropy == pytest.approx(1.0, abs=1e-12)
    assert report.pair_npt_flags == [True]
    assert not report.separable


def test_pure_mode_entanglement_rejects_mixed():
    mixed = isotropic_fcm(2, 0.5, 3)
    decomp = modewise_decompose(mixed, Bipartition((0,), (1,)))
    with pytest.raises(InvalidInputError):
        pure_mode_entanglement(decomp)


def test_ppt_pair_entangled_cases():
    assert ppt_pair_entangled(1.0, 0.5)
    # below sqrt(2) - 1 no kappa can trigger entanglement
    for kappa in np.linspace(0.0, 0.3, 7):
        assert not ppt_pair_entangled(0.3, kappa)
    assert not ppt_pair_entangled(0.8, 0.18)  # exactly at the threshold
    assert ppt_pair_entangled(0.8, 0.2)
    with pytest.raises(InvalidInputError):
        ppt_pair_entangled(0.5, 0.7)


def test_two_mode_block_matrix_special_cases():
    vacuum = two_mode_block_matrix(1.0, 1.0, 0.0)
    assert np.allclose(vacuum, np.diag([1.0, 0.0, 0.0, 0.0]))
    bell = two_mode_block_matrix(1.0, 0.0, 1.0)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    assert np.allclose(bell, expected)
    with pytest.raises(InvalidInputError):
        two_mode_block_matrix(1.0, 0.9, 0.9)


def test_two_mode_block_matrix_psd_unit_trace():
    for lambda0, lam, kappa in admissible_triples(200, 2):
        rho = two_mode_block_matrix(lambda0, lam, kappa)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_two_mode_block_matrix_against_fock_construction():
    """Independent oracle: rotate the product state with the entangling unitary.

    Build rho = T (rho_A x rho_B) T^dag in the dense two-mode Fock space with
    rho_A = rho_B = (1 - lambda0 [b^dag, b]) / 2 and T the pair rotation, and
    compare spectra with the closed-form block matrix.
    """
    g = jordan_wigner_majoranas(2)
    b = 0.5 * (g[0::2] - 1j * g[1::2])
    for lambda0, lam, kappa in admissible_triples(25, 7):
        theta = 0.5 * np.arctan2(kappa, lam)
        comm_a = b[0].conj().T @ b[0] - b[0] @ b[0].conj().T
        comm_b = b[1].conj().T @ b[1] - b[1] @ b[1].conj().T
        product = 0.25 * (np.eye(4) - lambda0 * comm_a) @ (np.eye(4) - lambda0 * comm_b)
        from scipy.linalg import expm

        generator = b[0].conj().T @ b[1].conj().T + b[0] @ b[1]
        t_op = expm(-theta * generator)
        rho = t_op @ product @ t_op.conj().T
        observed = np.sort(np.linalg.eigvalsh(rho))
        expected = np.sort(np.linalg.eigvalsh(two_mode_block_matrix(lambda0, lam, kappa)))
        assert np.max(np.abs(observed - expected)) < 1e-10


def test_ppt_min_eigenvalue_cases():
    assert ppt_min_eigenvalue(1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert ppt_min_eigenvalue(1.0, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-14)


def test_ppt_sign_change_at_threshold():
    lambda0 = 0.8
    threshold = 0.5 * (1 - lambda0**2)
    for kappa in np.linspace(0.01, lambda0 - 0.01, 40):
        lam = np.sqrt(lambda0**2 - kappa**2)
        negative = ppt_min_eigenvalue(lambda0, lam, kappa) < -1e-12
        assert negative == (kappa > threshold + 2e-12)


def test_boolean_matches_eigenvalue_on_grid():
    for lambda0 in np.linspace(0.02, 1.0, 50):
        for kappa in np.linspace(0.0, lambda0, 50):
            lam = np.sqrt(max(lambda0**2 - kappa**2, 0.0))
            entangled = ppt_pair_entangled(lambda0, kappa)
            assert entangled == (ppt_min_eigenvalue(lambda0, lam, kappa) < -1e-12)


def test_isotropic_separability_reports():
    state = isotropic_fcm(4, 0.3, 11)
    decomp = modewise_decompose(state, Bipartition((0, 1), (2, 3)))
    report = isotropic_separability(decomp)
    assert report.separable
    assert not any(report.pair_npt_flags)
    assert report.total_modes_entropy is None
    assert report.pair_entropies == []

    pure = CovarianceMatrix(pair_block(np.cos(0.5), np.sin(0.5)))
    decomp = modewise_decompose(pure, Bipartition((0,), (1,)))
    report = isotropic_separability(decomp)
    assert not report.separable
    assert report.total_modes_entropy > 0.0

    # each flag is the one-pair test: kappa = lambda0 sin(2 theta) is 0.0899,
    # 0.1006 and 0.887 at lambda0 = 0.9, around the threshold 0.095; below
    # sqrt(2) - 1 no pair is NPT
    pairs = bcs_fcm((0.05, 0.056, 0.7)).matrix
    for lambda0, npt_count in ((0.3, 0), (0.9, 2), (1.0, 3)):
        state = CovarianceMatrix(lambda0 * pairs)
        decomp = modewise_decompose(state, Bipartition((0, 2, 4), (1, 3, 5)))
        report = isotropic_separability(decomp)
        assert report.pair_npt_flags == [
            ppt_pair_entangled(lambda0, min(p.kappa, lambda0)) for p in decomp.pairs
        ]
        assert sum(report.pair_npt_flags) == npt_count
        assert (report.total_modes_entropy is None) == (lambda0 < 1.0)


def test_high_lambda0_mixed_flags():
    lambda0 = 0.9
    threshold = 0.5 * (1 - lambda0**2)  # 0.095
    assert not ppt_pair_entangled(lambda0, 0.05)
    assert ppt_pair_entangled(lambda0, 0.2)
    assert threshold == pytest.approx(0.095)
