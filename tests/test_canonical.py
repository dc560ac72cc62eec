import numpy as np
import pytest

from fermi_modewise import (
    InvalidInputError,
    J2,
    antisymmetrize,
    is_orthogonal,
    is_orthogonal_symplectic,
    j_blocks,
    lambda_blocks,
    williamson_form,
)


def random_antisymmetric(dim, rng):
    x = rng.standard_normal((dim, dim))
    return 0.5 * (x - x.T)


def reconstruction_error(mat, form):
    return np.max(np.abs(form.orthogonal @ mat @ form.orthogonal.T - form.canonical))


def test_williamson_j2_already_canonical():
    form = williamson_form(J2)
    assert form.lambdas == pytest.approx([1.0])
    assert reconstruction_error(J2, form) < 1e-12


def test_williamson_minus_j2_needs_a_swap():
    form = williamson_form(-J2)
    assert form.lambdas == pytest.approx([1.0])
    # swap rows of -J2: O (-J2) O^T = J2 with O = [[0,1],[1,0]]
    assert reconstruction_error(-J2, form) < 1e-12


def test_williamson_spectrum_matches_eigensolver_oracle():
    rng = np.random.default_rng(3)
    mat = random_antisymmetric(4, rng)
    form = williamson_form(mat)
    # independent oracle: -M^2 is symmetric PSD with doubly degenerate spectrum
    doubled = np.sqrt(np.clip(np.linalg.eigvalsh(-mat @ mat), 0.0, None))
    oracle = doubled[::2]
    assert np.max(np.abs(np.sort(form.lambdas) - np.sort(oracle))) < 1e-10


@pytest.mark.parametrize("dim", [2, 6, 12, 20, 40])
def test_williamson_reconstruction_random(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        mat = random_antisymmetric(dim, rng)
        form = williamson_form(mat)
        assert reconstruction_error(mat, form) < 1e-9
        assert is_orthogonal(form.orthogonal, 1e-10)
        assert np.all(np.diff(form.lambdas) <= 1e-14)
        assert np.all(form.lambdas >= 0.0)


def test_williamson_idempotent_on_canonical_input():
    lams = np.array([3.0, 2.0, 0.5])
    mat = lambda_blocks(lams)
    form = williamson_form(mat)
    assert form.lambdas == pytest.approx(lams.tolist(), abs=1e-12)
    assert np.max(np.abs(form.orthogonal @ mat @ form.orthogonal.T - mat)) < 1e-12


def test_williamson_conjugation_invariance():
    rng = np.random.default_rng(11)
    mat = random_antisymmetric(8, rng)
    base = williamson_form(mat).lambdas
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    q = q * np.sign(np.diag(r))
    rotated = williamson_form(q @ mat @ q.T).lambdas
    assert np.max(np.abs(base - rotated)) < 1e-9


def test_williamson_keeps_zero_eigenvalues():
    rng = np.random.default_rng(4)
    block = np.zeros((6, 6))
    block[:2, :2] = 2.0 * J2
    block[4:, 4:] = 0.5 * J2
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    mat = q @ block @ q.T
    form = williamson_form(mat)
    assert form.lambdas == pytest.approx([2.0, 0.5, 0.0], abs=1e-10)
    assert reconstruction_error(mat, form) < 1e-9


def test_williamson_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        williamson_form(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        williamson_form(np.zeros((2, 4)))
    with pytest.raises(InvalidInputError):
        williamson_form(np.ones((2, 2)))


def test_antisymmetrize_tolerance():
    mat = np.array([[0.0, 1.0], [-1.0 + 5e-13, 0.0]])
    out = antisymmetrize(mat)
    assert np.allclose(out, -out.T)
    with pytest.raises(InvalidInputError):
        antisymmetrize(np.array([[0.0, 1.0], [-1.0 + 1e-3, 0.0]]))
    with pytest.raises(InvalidInputError):
        antisymmetrize(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_is_orthogonal():
    assert is_orthogonal(np.eye(3), 1e-10)
    bumped = np.eye(3)
    bumped[0, 1] = 1e-3
    assert not is_orthogonal(bumped, 1e-10)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert is_orthogonal(q, 1e-10)
    assert not is_orthogonal(np.ones((2, 3)), 1e-10)


def test_is_orthogonal_symplectic():
    assert is_orthogonal_symplectic(np.eye(4), 1e-10)
    assert is_orthogonal_symplectic(j_blocks(2), 1e-10)
    phi = 0.37
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    planar = np.eye(4)
    planar[:2, :2] = rot
    assert is_orthogonal_symplectic(planar, 1e-10)
    # swapping only the first quadratures of the two modes breaks J-covariance
    swap = np.eye(4)[[2, 1, 0, 3]]
    assert not is_orthogonal_symplectic(swap, 1e-10)
    with pytest.raises(InvalidInputError):
        is_orthogonal_symplectic(np.eye(3), 1e-10)
