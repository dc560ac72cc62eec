import sys

import numpy as np
import pytest
from scipy.linalg import block_diag, get_lapack_funcs

from fermi_modewise import (
    InvalidInputError,
    canonical,
    J2,
    QuadraticHamiltonian,
    antisymmetrize,
    diagonal_fcm,
    ground_state_fcm,
    haar_orthogonal,
    hamiltonian_to_majorana,
    is_orthogonal,
    isotropic_fcm,
    j_blocks,
    kitaev_hamiltonian,
    lambda_blocks,
    quadrature_indices,
    restrict,
    williamson_form,
)
from fermi_modewise.verify import random_antisymmetric


def reconstruction_error(mat, form):
    return np.max(np.abs(form.orthogonal @ mat @ form.orthogonal.T - lambda_blocks(form.lambdas)))


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
        assert is_orthogonal(form.orthogonal)
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


def _haar_rotated(lambdas, seed):
    r = haar_orthogonal(2 * len(lambdas), seed)
    return r @ lambda_blocks(lambdas) @ r.T


def _kitaev_coupling(mu, delta):
    return hamiltonian_to_majorana(kitaev_hamiltonian(64, mu, 1.0, delta))[0]


def _random_chiral(n, seed):
    """Antisymmetric matrix with a random real block at the (even, odd) positions."""
    mat = np.zeros((2 * n, 2 * n))
    block = np.random.default_rng(seed).standard_normal((n, n))
    mat[0::2, 1::2] = block
    mat[1::2, 0::2] = -block.T
    return mat


def _is_chiral(mat):
    return not (mat[0::2, 0::2].any() or mat[1::2, 1::2].any())


STRUCTURED_INPUTS = {
    "all-zero": np.zeros((6, 6)),
    # the Hessenberg form splits at the exact zero blocks
    "exact-zero-blocks": block_diag(
        random_antisymmetric(4, np.random.default_rng(8)),
        np.zeros((2, 2)),
        0.4 * J2,
        np.zeros((2, 2)),
    ),
    "repeated-lambdas": _haar_rotated([1.0, 1.0, 1.0, 0.5, 0.5, 0.0], 5),
    "rank-deficient": diagonal_fcm([0.9, 0.0, 0.3, 0.0]).matrix,
    # a negative block and ascending order: rows must be swapped and reordered
    "canonical-needs-swap": lambda_blocks([0.3, -0.9, 0.5]),
    # chiral inputs, exactly zero at (even, even) and (odd, odd): one SVD, no Hessenberg
    "kitaev-topological": _kitaev_coupling(0.5, 1.0),  # Majorana edge modes, l ~ 8e-12
    "kitaev-critical": _kitaev_coupling(2.0, 1.0),
    "kitaev-xx": _kitaev_coupling(0.0, 0.0),
    "ground-state-cut": restrict(
        ground_state_fcm(kitaev_hamiltonian(64, 0.5, 1.0, 1.0)).state, range(16)
    ).matrix,
    "random-chiral": _random_chiral(12, 9),
}
CHIRAL_INPUTS = [name for name in sorted(STRUCTURED_INPUTS) if _is_chiral(STRUCTURED_INPUTS[name])]


@pytest.mark.parametrize("name", sorted(STRUCTURED_INPUTS))
def test_williamson_structured_inputs(name):
    mat = STRUCTURED_INPUTS[name]
    form = williamson_form(mat)
    assert reconstruction_error(mat, form) <= 1e-12
    assert is_orthogonal(form.orthogonal)
    assert np.all(np.diff(form.lambdas) <= 0.0)
    assert not np.any(np.signbit(form.lambdas))
    expected = np.linalg.svd(mat, compute_uv=False)[::2]
    assert np.max(np.abs(form.lambdas - expected)) <= 1e-12


def test_williamson_chiral_route():
    # On chiral input O is chiral too, and l are the singular values of the
    # (even, odd) block.
    assert {"kitaev-topological", "ground-state-cut", "random-chiral"} <= set(CHIRAL_INPUTS)
    for name in CHIRAL_INPUTS:
        mat = STRUCTURED_INPUTS[name]
        form = williamson_form(mat)
        assert _is_chiral(form.orthogonal), name
        expected = np.linalg.svd(mat[0::2, 1::2], compute_uv=False)
        assert np.max(np.abs(form.lambdas - expected)) <= 1e-12, name
        assert reconstruction_error(mat, form) <= 1e-12, name

    # Real Hamiltonians give exactly chiral states; complex ones do not.
    assert _is_chiral(ground_state_fcm(kitaev_hamiltonian(16, 2.0, 1.0, 0.5)).state.matrix)
    rng = np.random.default_rng(12)
    c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    complex_ground = ground_state_fcm(QuadraticHamiltonian(c + c.conj().T, a - a.T)).state
    assert not _is_chiral(complex_ground.matrix)

    # One even-even entry of 1e-14 sends the input down the Hessenberg route.
    mat = STRUCTURED_INPUTS["random-chiral"].copy()
    mat[0, 2], mat[2, 0] = 1e-14, -1e-14
    form = williamson_form(mat)
    assert not _is_chiral(form.orthogonal)
    assert reconstruction_error(mat, form) <= 1e-12
    assert is_orthogonal(form.orthogonal)


def test_williamson_kitaev_coupling_matches_eigensolver_oracle():
    coupling, _ = hamiltonian_to_majorana(kitaev_hamiltonian(64, mu=2.0, t=1.0, delta=1.0))
    form = williamson_form(coupling)
    oracle = np.sqrt(np.clip(np.linalg.eigvalsh(-coupling @ coupling), 0.0, None))[::-2]
    assert np.max(np.abs(form.lambdas - oracle)) < 1e-10
    assert reconstruction_error(coupling, form) < 1e-9
    assert is_orthogonal(form.orthogonal)


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
    # The bits are those of 0.5 (M - M^T), signed zeros included, in a new
    # array; the input is left as it was.
    mat = np.array([[-0.0, -0.0, 0.5], [-0.0, 0.0, -0.0], [-0.5 + 5e-13, 0.0, -0.0]])
    before = mat.copy()
    out = antisymmetrize(mat)
    expected = 0.5 * (mat - mat.T)
    assert out.tobytes() == expected.tobytes()
    assert mat.tobytes() == before.tobytes()
    assert not np.shares_memory(out, mat)
    with pytest.raises(InvalidInputError, match="non-finite entries"):
        antisymmetrize(np.array([[0.0, np.inf], [-1.0, 0.0]]))
    # Finite entries whose sum overflows are not antisymmetric, not non-finite.
    with pytest.raises(InvalidInputError, match="not antisymmetric"):
        antisymmetrize(np.array([[0.0, 1e308], [1e308, 0.0]]))
    with pytest.raises(InvalidInputError, match="not antisymmetric"):
        antisymmetrize(np.array([[0.0, -1e308], [-1e308, 0.0]]))


def test_is_orthogonal():
    assert is_orthogonal(np.eye(3))
    bumped = np.eye(3)
    bumped[0, 1] = 1e-3
    assert not is_orthogonal(bumped)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert is_orthogonal(q)
    assert not is_orthogonal(np.ones((2, 3)))


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("lambdas", [[0.7, 0.0, 0.25], [0.0], [1.0, 1e-300, 0.5, 0.0], []])
def test_lambda_blocks_are_the_kron_formula_bit_for_bit(lambdas):
    # kron leaves -0.0 = 0.0 * -1.0 at every even-odd entry off the blocks and
    # at a zero lambda; tobytes compares np.signbit too
    expected = np.kron(np.diag(np.asarray(lambdas, dtype=float)), J2)
    assert _same_bits(lambda_blocks(np.array(lambdas)), expected)
    assert _same_bits(lambda_blocks(lambdas), expected)


@pytest.mark.parametrize("n_blocks", [0, 1, 4])
def test_j_blocks_are_the_kron_formula_bit_for_bit(n_blocks):
    assert _same_bits(j_blocks(n_blocks), np.kron(np.eye(n_blocks), J2))


def test_principal_blocks_of_a_state_are_returned_by_antisymmetrize_bit_for_bit():
    # the precondition under which decompose skips antisymmetrize's check
    rng = np.random.default_rng(4)
    states = [isotropic_fcm(7, 0.6, 1), ground_state_fcm(kitaev_hamiltonian(9, 0.5, 1.0, 1.0)).state,
              diagonal_fcm([0.3, 0.0, 0.9])]
    for state in states:
        for _ in range(5):
            q = quadrature_indices(rng.permutation(state.n_modes)[: rng.integers(1, state.n_modes)])
            block = state.matrix[q[:, None], q]
            assert _same_bits(antisymmetrize(block), block)


def test_lapack_falls_back_to_scipy_linalg_without_the_extension_file(monkeypatch, tmp_path):
    # a directory without _flapack's file sends _lapack to get_lapack_funcs, the same routines
    mat = random_antisymmetric(8, np.random.default_rng(3))
    expected = williamson_form(mat)
    caches = (canonical._flapack, canonical._lapack, canonical._hessenberg_lwork)
    monkeypatch.setattr(canonical, "_scipy_linalg_dir", lambda: str(tmp_path))
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    for cached in caches:
        cached.cache_clear()
    try:
        assert canonical._flapack() is None
        names = ("gehrd", "orghr")
        assert list(canonical._lapack(names, np.float64)) == get_lapack_funcs(names, dtype=np.float64)
        form = williamson_form(mat)
    finally:
        for cached in caches:
            cached.cache_clear()
    assert _same_bits(form.orthogonal, expected.orthogonal) and _same_bits(form.lambdas, expected.lambdas)
