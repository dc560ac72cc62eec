import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermi_modewise
from fermi_modewise import (
    Bipartition,
    CovarianceMatrix,
    InvalidInputError,
    NotIsotropicError,
    NumericalConsistencyError,
    bcs_fcm,
    dense_ground_state,
    diagonal_fcm,
    ground_state_fcm,
    haar_orthogonal,
    is_orthogonal,
    isotropic_fcm,
    kitaev_hamiltonian,
    lambda_blocks,
    modewise_decompose,
    pair_block,
    pair_spectrum,
    pure_mode_entanglement,
    quadrature_indices,
    random_pure_fcm,
    reconstruct_state,
    reconstruction_residual,
    schmidt_entropy,
    williamson_form,
)
from fermi_modewise.entanglement import binary_entropy
from fermi_modewise.verify import bipartitions_up_to, random_gaussian_state


def test_vacuum_decomposes_to_residuals_only():
    vacuum = diagonal_fcm([1.0] * 5)
    part = Bipartition((0, 3), (1, 2, 4))
    decomp = modewise_decompose(vacuum, part)
    assert decomp.n_pairs == 0
    assert [r.mode for r in decomp.residual_a] == [0, 1]
    assert [r.mode for r in decomp.residual_b] == [0, 1, 2]
    assert decomp.lambda0 == pytest.approx(1.0)
    assert is_orthogonal(decomp.transform_a)
    assert is_orthogonal(decomp.transform_b)
    assert reconstruction_residual(decomp, vacuum) < 1e-12


def test_pure_pair_block_recovers_angle():
    theta = 0.31
    state = CovarianceMatrix(pair_block(np.cos(2 * theta), np.sin(2 * theta)))
    decomp = modewise_decompose(state, Bipartition((0,), (1,)))
    assert decomp.n_pairs == 1
    pair = decomp.pairs[0]
    assert pair.theta == pytest.approx(theta, abs=1e-10)
    assert pair.lam == pytest.approx(np.cos(2 * theta), abs=1e-10)
    assert pair.kappa == pytest.approx(np.sin(2 * theta), abs=1e-10)
    assert reconstruction_residual(decomp, state) < 1e-10


def test_maximally_squeezed_pair_has_theta_pi_over_4():
    state = CovarianceMatrix(pair_block(0.0, 1.0))
    decomp = modewise_decompose(state, Bipartition((0,), (1,)))
    assert decomp.pairs[0].theta == pytest.approx(np.pi / 4, abs=1e-12)


def test_pair_invariants_hold():
    rng = np.random.default_rng(12)
    _, fcm = random_gaussian_state(6, rng)
    for part in [Bipartition((0, 1), (2, 3, 4, 5)), Bipartition((1, 4, 5), (0, 2, 3))]:
        decomp = modewise_decompose(fcm, part)
        assert decomp.n_pairs <= min(len(part.a_modes), len(part.b_modes))
        for pair in decomp.pairs:
            assert abs(pair.kappa**2 + pair.lam**2 - decomp.lambda0**2) < 1e-9
            if pair.lam > 1e-12:
                assert np.tan(2 * pair.theta) == pytest.approx(
                    pair.kappa / pair.lam, abs=1e-9
                )
        thetas = [p.theta for p in decomp.pairs]
        assert thetas == sorted(thetas, reverse=True)


def test_reconstruction_and_pair_entropy_against_oracle():
    rng = np.random.default_rng(23)
    state, fcm = random_gaussian_state(6, rng)
    part = Bipartition((0, 1), (2, 3, 4, 5))
    decomp = modewise_decompose(fcm, part)
    assert decomp.n_pairs <= 2
    assert reconstruction_residual(decomp, fcm) < 1e-8
    # pure input: every decoupled mode is a local vacuum
    for residual in decomp.residual_a + decomp.residual_b:
        assert residual.lam == pytest.approx(1.0, abs=1e-9)
    modewise = sum(binary_entropy(np.cos(p.theta) ** 2) for p in decomp.pairs)
    assert modewise == pytest.approx(schmidt_entropy(state, part), abs=1e-8)


def test_reconstruction_residual_over_all_small_bipartitions():
    rng = np.random.default_rng(31)
    _, fcm = random_gaussian_state(5, rng)
    for part in bipartitions_up_to(5, 2):
        decomp = modewise_decompose(fcm, part)
        assert reconstruction_residual(decomp, fcm) < 1e-8


def joint_block_form_deviation(decomp, state: CovarianceMatrix) -> float:
    """max|R M R^T - B| with the joint rotation R and the direct-sum block form B."""
    part = decomp.partition
    n, m = decomp.n_modes, len(part.a_modes)
    rotation = np.zeros((2 * n, 2 * n))
    rotation[: 2 * m, quadrature_indices(part.a_modes)] = decomp.transform_a
    rotation[2 * m :, quadrature_indices(part.b_modes)] = decomp.transform_b
    blocks = np.zeros((2 * n, 2 * n))
    for pair in decomp.pairs:
        q = quadrature_indices([pair.mode, m + pair.mode])
        blocks[np.ix_(q, q)] = pair_block(pair.lam, pair.kappa)
    residuals = [(r.mode, r.lam) for r in decomp.residual_a]
    residuals += [(m + r.mode, r.lam) for r in decomp.residual_b]
    for mode, lam in residuals:
        blocks[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = lambda_blocks([lam])
    return float(np.max(np.abs(rotation @ state.matrix @ rotation.T - blocks)))


def rotate_b_modes(decomp, angle: float):
    """Rotate every transformed B mode within its quadratures by ``angle``.

    This keeps T_B M_BB T_B^T in lambda J2 form and moves only the cross block.
    """
    phase = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rotation = np.kron(np.eye(len(decomp.partition.b_modes)), phase)
    return dataclasses.replace(decomp, transform_b=rotation @ decomp.transform_b)


def test_reconstruction_residual_matches_joint_block_form():
    rng = np.random.default_rng(47)
    cases = [
        (random_gaussian_state(6, rng)[1], Bipartition((0, 4), (1, 2, 3, 5))),
        (isotropic_fcm(7, 0.8, rng), Bipartition((1, 2, 6), (0, 3, 4, 5))),
        (chain_ground_state("topological", 16), cut_partition(16, 5)),
        (chain_ground_state("xx", 16), cut_partition(16, 8)),
    ]
    for state, part in cases:
        decomp = modewise_decompose(state, part)
        noisy = dataclasses.replace(
            decomp,
            transform_b=decomp.transform_b + 1e-4 * rng.standard_normal(decomp.transform_b.shape),
        )
        for variant in (decomp, noisy, rotate_b_modes(decomp, 1e-4)):
            assert reconstruction_residual(variant, state) == pytest.approx(
                joint_block_form_deviation(variant, state), rel=1e-12, abs=1e-15
            )


def test_reconstruction_residual_of_unphysical_pair_is_finite():
    state = random_pure_fcm(4, 3)
    decomp = modewise_decompose(state, Bipartition((0, 1), (2, 3)))
    pair = decomp.pairs[0]
    raised = pair._replace(kappa=np.sqrt(1.0 - pair.lam**2) + 1e-3)
    broken = dataclasses.replace(decomp, pairs=[raised] + decomp.pairs[1:])
    residual = reconstruction_residual(broken, state)
    assert np.isfinite(residual)
    assert residual > 1e-8


def test_local_spectrum_consistency():
    from fermi_modewise import restrict

    rng = np.random.default_rng(5)
    state = isotropic_fcm(5, 0.9, rng)
    part = Bipartition((0, 2), (1, 3, 4))
    decomp = modewise_decompose(state, part)
    lams_a = sorted([p.lam for p in decomp.pairs] + [r.lam for r in decomp.residual_a])
    expected = sorted(williamson_form(restrict(state, part.a_modes).matrix).lambdas)
    assert np.max(np.abs(np.array(lams_a) - np.array(expected))) < 1e-8
    lams_b = sorted([p.lam for p in decomp.pairs] + [r.lam for r in decomp.residual_b])
    expected_b = sorted(williamson_form(restrict(state, part.b_modes).matrix).lambdas)
    assert np.max(np.abs(np.array(lams_b) - np.array(expected_b))) < 1e-8


def test_pair_angles_invariant_under_local_rotations():
    rng = np.random.default_rng(41)
    _, fcm = random_gaussian_state(6, rng)
    part = Bipartition((0, 1, 2), (3, 4, 5))
    reference = sorted(p.theta for p in modewise_decompose(fcm, part).pairs)

    rot = np.zeros((12, 12))
    qa = quadrature_indices(part.a_modes)
    qb = quadrature_indices(part.b_modes)
    rot[np.ix_(qa, qa)] = haar_orthogonal(6, rng)
    rot[np.ix_(qb, qb)] = haar_orthogonal(6, rng)
    rotated = CovarianceMatrix(rot @ fcm.matrix @ rot.T)
    recomputed = sorted(p.theta for p in modewise_decompose(rotated, part).pairs)
    assert np.max(np.abs(np.array(reference) - np.array(recomputed)), initial=0.0) < 1e-8


@pytest.mark.parametrize("lambda0", [0.3, 0.6, 0.9])
def test_isotropic_states_decompose(lambda0):
    rng = np.random.default_rng(int(lambda0 * 100))
    for n in (2, 4, 5):
        state = isotropic_fcm(n, lambda0, rng)
        for part in bipartitions_up_to(n, 2):
            decomp = modewise_decompose(state, part)
            assert abs(decomp.lambda0 - lambda0) < 1e-9
            for pair in decomp.pairs:
                assert abs(pair.kappa**2 + pair.lam**2 - lambda0**2) < 1e-9
            for residual in decomp.residual_a + decomp.residual_b:
                assert abs(residual.lam - lambda0) < 1e-7
            assert reconstruction_residual(decomp, state) < 1e-8


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_degenerate_pairs_from_equal_angles(multiplicity):
    state = bcs_fcm([0.25] * multiplicity)
    n = 2 * multiplicity
    part = Bipartition(tuple(range(0, n, 2)), tuple(range(1, n, 2)))
    decomp = modewise_decompose(state, part)
    assert decomp.n_pairs == multiplicity
    for pair in decomp.pairs:
        assert pair.theta == pytest.approx(0.25, abs=1e-10)
    assert reconstruction_residual(decomp, state) < 1e-9


def test_degenerate_mixed_isotropic_state():
    # scaled product of equal-angle pairs: isotropic with a degenerate local
    # spectrum on both sides, hidden by a random global rotation of A and B
    lambda0 = 0.7
    base = CovarianceMatrix(lambda0 * bcs_fcm([0.2, 0.2]).matrix)
    part = Bipartition((0, 2), (1, 3))
    rot = np.zeros((8, 8))
    rng = np.random.default_rng(9)
    qa = quadrature_indices(part.a_modes)
    qb = quadrature_indices(part.b_modes)
    rot[np.ix_(qa, qa)] = haar_orthogonal(4, rng)
    rot[np.ix_(qb, qb)] = haar_orthogonal(4, rng)
    state = CovarianceMatrix(rot @ base.matrix @ rot.T)

    decomp = modewise_decompose(state, part)
    assert decomp.n_pairs == 2
    assert decomp.lambda0 == pytest.approx(lambda0, abs=1e-12)
    for pair in decomp.pairs:
        assert pair.theta == pytest.approx(0.2, abs=1e-9)
        assert pair.kappa**2 + pair.lam**2 == pytest.approx(lambda0**2, abs=1e-12)
    assert reconstruction_residual(decomp, state) < 1e-9


def test_distinct_pairs_inside_the_zero_class_keep_their_angles():
    # A pi/4 pair and a pi/4 - 1e-9 pair: local eigenvalues 6e-17 and 2e-9,
    # both inside the zero class (up to 1e-8 lambda0), mixed by rotating side A.
    # Averaging the local eigenvalues over each transformed mode put theta
    # about 3e-10 off.
    thetas = [np.pi / 4, np.pi / 4 - 1e-9, 0.3]
    matrix = np.zeros((20, 20))
    matrix[:12, :12] = bcs_fcm(thetas).matrix
    matrix[12:, 12:] = lambda_blocks([1.0] * 4)
    part = Bipartition((0, 2, 4, 6, 8), (1, 3, 5, 7, 9))
    rows = quadrature_indices(part.a_modes)
    rotation = np.eye(20)
    rotation[np.ix_(rows, rows)] = haar_orthogonal(10, 2)
    state = CovarianceMatrix(rotation @ matrix @ rotation.T)

    decomp = modewise_decompose(state, part)
    spectrum = pair_spectrum(state, part)
    full = np.array([p.theta for p in decomp.pairs])
    values = np.array([p.theta for p in spectrum.pairs])
    assert np.max(np.abs(full - sorted(thetas, reverse=True))) <= 1e-14
    assert np.max(np.abs(full - values)) <= 1e-14
    assert reconstruction_residual(decomp, state) <= 1e-8


def test_maximally_mixed_state_has_no_pairs():
    state = isotropic_fcm(3, 0.0, 1)
    decomp = modewise_decompose(state, Bipartition((0,), (1, 2)))
    assert decomp.n_pairs == 0
    assert decomp.lambda0 == 0.0
    assert reconstruction_residual(decomp, state) < 1e-12


def test_empty_side_leaves_everything_residual():
    state = random_pure_fcm(3, 2)
    decomp = modewise_decompose(state, Bipartition((), (0, 1, 2)))
    assert decomp.n_pairs == 0
    assert len(decomp.residual_b) == 3
    assert reconstruction_residual(decomp, state) < 1e-10


def test_not_isotropic_raises_with_deviation():
    state = diagonal_fcm([0.9, 0.3])
    with pytest.raises(NotIsotropicError) as info:
        modewise_decompose(state, Bipartition((0,), (1,)))
    assert info.value.deviation > 0.1


def test_partition_mismatch_raises():
    with pytest.raises(InvalidInputError):
        modewise_decompose(diagonal_fcm([1.0, 1.0]), Bipartition((0,), (1, 2)))


# Open chains with t = 1: (mu, delta).  Their ground states obey an area law,
# so most pair couplings across a cut are exponentially small.
CHAINS = {"xx": (0.0, 0.0), "topological": (0.5, 1.0), "critical": (2.0, 1.0),
          "trivial": (3.0, 1.0)}


@functools.lru_cache(maxsize=None)
def chain_ground_state(name: str, n: int) -> CovarianceMatrix:
    mu, delta = CHAINS[name]
    return ground_state_fcm(kitaev_hamiltonian(n, mu, 1.0, delta)).state


def cut_partition(n: int, cut: int) -> Bipartition:
    return Bipartition(tuple(range(cut)), tuple(range(cut, n)))


def cross_block_reference(state: CovarianceMatrix, cut: int):
    """Pair couplings and pure-state entropy from the cross block's singular values.

    For a cut into the first ``cut`` modes and the rest, each coupling appears
    twice among the singular values; sin^2(theta) = k^2 / (2 (1 + sqrt(1 - k^2)))
    avoids the cancellation of (1 - lambda) / 2.
    """
    sigma = np.linalg.svd(state.matrix[: 2 * cut, 2 * cut :], compute_uv=False)
    kappas = np.clip(sigma.reshape(-1, 2).mean(axis=1), 0.0, 1.0)
    sin_sq = kappas**2 / (2.0 * (1.0 + np.sqrt(1.0 - kappas**2)))
    return kappas, sum(binary_entropy(p) for p in sin_sq)


def assert_matches_cross_block(state: CovarianceMatrix, cut: int):
    decomp = modewise_decompose(state, cut_partition(state.n_modes, cut))
    assert reconstruction_residual(decomp, state) <= 1e-8
    ref_kappas, ref_entropy = cross_block_reference(state, cut)
    kappas = np.zeros_like(ref_kappas)
    kappas[: decomp.n_pairs] = sorted((p.kappa for p in decomp.pairs), reverse=True)
    assert np.max(np.abs(kappas - ref_kappas)) <= 1e-8
    assert pure_mode_entanglement(decomp).total_modes_entropy == pytest.approx(
        ref_entropy, abs=1e-8
    )


@pytest.mark.parametrize("position", ["first", "half", "last"])
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_cuts_match_cross_block(chain, n, position):
    cut = {"first": 1, "half": n // 2, "last": n - 1}[position]
    assert_matches_cross_block(chain_ground_state(chain, n), cut)


def test_chain_every_cut_against_dense_oracle():
    ham = kitaev_hamiltonian(10, 0.5, 1.0, 1.0)
    state, _, _ = dense_ground_state(ham)
    fcm = ground_state_fcm(ham).state
    for cut in range(1, 10):
        part = cut_partition(10, cut)
        decomp = modewise_decompose(fcm, part)
        entropy = pure_mode_entanglement(decomp).total_modes_entropy
        assert entropy == pytest.approx(schmidt_entropy(state, part), abs=1e-8)
        _, fidelity = reconstruct_state(decomp, state)
        assert fidelity >= 1 - 1e-7


def test_random_state_exact_half_cut_with_tiny_coupling():
    # the smallest coupling is 4.5e-5: its local eigenvalue lies within 1e-8
    # of lambda0, yet it is a genuine pair
    assert_matches_cross_block(random_pure_fcm(100, 6279), 50)


def commuting_cross_block_state() -> CovarianceMatrix:
    """A pair at lambda0 = 1e-3 whose cross block gains a part commuting with J2.

    M^2 stays within the isotropy tolerance, the block structure fails.  The
    singular values of the cross block split by twice the added 2e-6.
    """
    lambda0, lam, extra = 1e-3, 0.5e-3, 2e-6
    matrix = pair_block(lam, np.sqrt(lambda0**2 - lam**2))
    matrix[0:2, 2:4] += extra * np.eye(2)
    matrix[2:4, 0:2] -= extra * np.eye(2)
    return CovarianceMatrix(matrix)


def chiral_commuting_cross_block_state() -> CovarianceMatrix:
    """As above, but the part is added to one coupling entry, which keeps M chiral."""
    lambda0, lam, extra = 1e-3, 0.5e-3, 4e-6
    matrix = pair_block(lam, np.sqrt(lambda0**2 - lam**2))
    matrix[0, 3] += extra
    matrix[3, 0] -= extra
    return CovarianceMatrix(matrix)


def test_cross_block_commuting_with_j2_raises():
    # the values-only check reads the same part: half the split of the two
    # copies of kappa, from the full cross block or from its two chiral blocks
    for state in (commuting_cross_block_state(), chiral_commuting_cross_block_state()):
        for decompose in (modewise_decompose, pair_spectrum):
            with pytest.raises(NumericalConsistencyError, match="commuting with J2 of 2.000e-06"):
                decompose(state, Bipartition((0,), (1,)))


def test_chain_results_do_not_depend_on_blas_threads():
    script = (
        "import fermi_modewise as fm\n"
        "for n, cuts in ((128, (1,)), (256, (1, 255))):\n"
        "    fcm = fm.ground_state_fcm(fm.kitaev_hamiltonian(n, 0.0, 1.0, 0.0)).state\n"
        "    for cut in cuts:\n"
        "        part = fm.Bipartition(tuple(range(cut)), tuple(range(cut, n)))\n"
        "        print(fm.reconstruction_residual(fm.modewise_decompose(fcm, part), fcm))\n"
    )
    package_root = str(Path(fermi_modewise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    residuals = [float(line) for line in result.stdout.split()]
    assert len(residuals) == 3
    assert max(residuals) <= 1e-8


def test_decompositions_compare_by_value():
    state = random_pure_fcm(4, 11)
    half = Bipartition((0, 1), (2, 3))
    first = modewise_decompose(state, half)
    assert first == modewise_decompose(state, half)
    assert first != modewise_decompose(state, Bipartition((0,), (1, 2, 3)))
    assert first != modewise_decompose(random_pure_fcm(4, 12), half)
    assert first != pair_spectrum(state, half)
