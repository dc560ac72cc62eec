"""Tests of the benchmark's reference computations against closed forms.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fermi_modewise as fm  # noqa: E402
import reference as ref  # noqa: E402

THETAS = (0.0, 1e-6, 0.3, 0.5, np.pi / 4)


def bcs_state():
    """BCS product with known angles, modes shuffled; returns (M, A, B, thetas)."""
    m = fm.bcs_fcm(THETAS).matrix
    n = 2 * len(THETAS)
    perm = np.random.default_rng(4).permutation(n)
    q = ref.quadratures(perm)
    position = {int(old): new for new, old in enumerate(perm)}
    a = tuple(position[2 * k] for k in range(len(THETAS)))
    b = tuple(position[2 * k + 1] for k in range(len(THETAS)))
    shuffled = np.empty_like(m)
    shuffled[np.ix_(ref.quadratures(range(n)), ref.quadratures(range(n)))] = m[np.ix_(q, q)]
    return shuffled, a, b


def test_cross_kappas_and_entropy_of_bcs_product():
    m, a, b = bcs_state()
    thetas = np.array(sorted(THETAS, reverse=True))
    assert np.allclose(ref.cross_kappas(m, a, b), np.sin(2 * thetas), atol=1e-15)
    weights = ref.schmidt_weights(np.sin(2 * thetas))
    assert np.allclose(weights, np.sin(thetas) ** 2, rtol=1e-12, atol=0)
    p = np.sin(thetas) ** 2
    closed = sum(-(x * np.log2(x) + (1 - x) * np.log2(1 - x)) for x in p if 0 < x < 1)
    assert ref.pure_entropy(m, a, b) == pytest.approx(closed, abs=1e-13)


def test_binary_entropy_small_and_edge_values():
    assert ref.binary_entropy_bits([0.0, 0.5, 1.0]).tolist() == [0.0, 1.0, 0.0]
    p = 1e-20
    series = (-p * np.log(p) + p) / np.log(2.0)
    assert ref.binary_entropy_bits([p])[0] == pytest.approx(series, rel=1e-12)


def test_williamson_spectrum_of_rotated_normal_form():
    lambdas = np.array([0.9, 0.5, 0.5, 0.1, 0.0])
    r = fm.haar_orthogonal(10, 3)
    m = r @ np.kron(np.diag(lambdas), ref.J2) @ r.T
    assert np.allclose(ref.williamson_spectrum(m), lambdas, atol=1e-12)
    assert ref.lambda0(0.7 * fm.random_pure_fcm(6, 1).matrix) == pytest.approx(0.7, abs=1e-14)


def test_block_form_error_detects_wrong_reports():
    m = fm.bcs_fcm((0.2, 0.6)).matrix
    eye = np.eye(4)
    pairs = [(0, 0, np.cos(0.4), np.sin(0.4)), (1, 1, np.cos(1.2), np.sin(1.2))]
    assert ref.block_form_error(m, (0, 2), (1, 3), eye, eye, pairs, [], []) == pytest.approx((0, 0), abs=1e-15)
    wrong = [pairs[0], (1, 1, np.cos(1.2), np.sin(1.2) + 1e-6)]
    assert ref.block_form_error(m, (0, 2), (1, 3), eye, eye, wrong, [], [])[0] == pytest.approx(1e-6, rel=1e-6)
    assert ref.block_form_error(m, (0, 2), (1, 3), eye, eye, pairs[:1], [], [])[0] == np.inf
    assert ref.block_form_error(m, (0, 2), (1, 3), 2 * eye, eye, pairs, [], [])[1] == pytest.approx(3.0)


@pytest.mark.parametrize("eps", [0.7, -0.7])
def test_single_mode_ground_state(eps):
    hopping, pairing = np.array([[eps]]), np.zeros((1, 1))
    assert ref.ground_energy(hopping, pairing) == pytest.approx(min(eps, 0.0), abs=1e-15)
    (m,) = ref.ground_covariances(hopping, pairing)
    assert np.allclose(m, np.sign(eps) * ref.J2, atol=1e-15)  # vacuum or occupied


def test_two_mode_pairing_is_one_bcs_pair():
    eps, g = 0.8, 0.6  # H = eps (n1 + n2) + g b1^dag b2^dag + h.c.
    hopping = eps * np.eye(2)
    pairing = np.array([[0.0, g / 2], [-g / 2, 0.0]])
    assert ref.ground_energy(hopping, pairing) == pytest.approx(eps - np.hypot(eps, g), abs=1e-14)
    (m,) = ref.ground_covariances(hopping, pairing)
    assert ref.cross_kappas(m, (0,), (1,))[0] == pytest.approx(g / np.hypot(eps, g), abs=1e-14)


def test_chain_reference_against_dense_diagonalization():
    for mu, delta in ((2.0, 1.0), (0.5, 1.0), (0.0, 0.0), (1.0, 0.5)):
        hopping, pairing = ref.kitaev_matrices(6, mu, 1.0, delta)
        state, energy, _ = fm.dense_ground_state(fm.QuadraticHamiltonian(hopping, pairing))
        (m,) = ref.ground_covariances(hopping, pairing)
        assert ref.ground_energy(hopping, pairing) == pytest.approx(energy, abs=1e-12)
        assert np.max(np.abs(m - fm.fcm_from_state(state).matrix)) < 1e-10


def test_exact_zero_mode_gives_two_ground_states():
    # Pairing 2 delta = t at mu = 0: the edge Majoranas decouple exactly.
    hopping, pairing = ref.kitaev_matrices(12, 0.0, 1.0, 0.5)
    candidates = ref.ground_covariances(hopping, pairing)
    assert len(candidates) == 2
    h = ref.majorana_coupling(hopping, pairing)
    for m in candidates:
        assert np.max(np.abs(m @ m + np.eye(24))) < 1e-12
        assert -0.25 * np.sum(h * m) == pytest.approx(-0.25 * np.sum(h * candidates[0]), abs=1e-12)
    assert np.max(np.abs(candidates[0] - candidates[1])) == pytest.approx(2.0, abs=1e-12)
