"""Cross-validation suites pitting the covariance pipeline against the dense oracle.

Every check here compares two independent routes to the same quantity: the
covariance-matrix algorithms on one side and dense Fock-space linear algebra
(or a plain symmetric eigensolver) on the other.  The CLI ``verify`` command
runs them all; the acceptance tests run them with pinned ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .canonical import is_orthogonal, lambda_blocks, williamson_form
from .decompose import modewise_decompose, reconstruction_residual
from .entanglement import ppt_min_eigenvalue, pure_mode_entanglement
from .errors import InvalidInputError, NotIsotropicError
from .fock import (
    FockState,
    _check_cap,
    _majorana_action,
    dense_ground_state,
    fcm_from_state,
    reconstruct_state,
    reduced_density,
    schmidt_entropy,
)
from .gaussian import (
    Bipartition,
    QuadraticHamiltonian,
    diagonal_fcm,
    ground_state_fcm,
    is_pure,
    isotropic_fcm,
    restrict,
)
from .models import bcs_fcm, kitaev_hamiltonian


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def random_antisymmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((dim, dim))
    return 0.5 * (x - x.T)


def random_quadratic_hamiltonian(n: int, rng: np.random.Generator) -> QuadraticHamiltonian:
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QuadraticHamiltonian(0.5 * (c + c.conj().T), 0.5 * (a - a.T))


def random_gaussian_state(n: int, rng: np.random.Generator):
    """Random pure Gaussian state with its exact covariance matrix.

    Ground state of a random quadratic Hamiltonian; reseeds on the
    measure-zero event of a degenerate ground manifold.
    """
    for _ in range(16):
        ham = random_quadratic_hamiltonian(n, rng)
        state, _, degenerate = dense_ground_state(ham)
        if not degenerate:
            return state, fcm_from_state(state)
    raise RuntimeError("could not draw a nondegenerate random Gaussian state")


def bipartitions_up_to(n: int, max_side: int):
    """All bipartitions whose A side has at most ``max_side`` modes."""
    for size in range(1, min(max_side, n - 1) + 1):
        for a_modes in combinations(range(n), size):
            b_modes = tuple(i for i in range(n) if i not in a_modes)
            yield Bipartition(a_modes, b_modes)


def check_williamson(trials: int = 1000, seed: int = 7) -> CheckResult:
    """Reconstruction residual and spectrum against a symmetric eigensolver."""
    rng = np.random.default_rng(seed)
    dims = [2 * (1 + i % 20) for i in range(trials)]  # 2, 4, ..., 40
    worst_recon = 0.0
    worst_spec = 0.0
    for dim in dims:
        mat = random_antisymmetric(dim, rng)
        form = williamson_form(mat)
        canonical = lambda_blocks(form.lambdas)
        recon = np.max(np.abs(form.orthogonal @ mat @ form.orthogonal.T - canonical))
        worst_recon = max(worst_recon, float(recon))
        # Oracle: eigenvalues of -M^2 are the squared eigenvalues, each twice.
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(-mat @ mat), 0.0, None))[::-2]
        worst_spec = max(worst_spec, float(np.max(np.abs(np.sort(form.lambdas) - np.sort(oracle)))))
    passed = worst_recon <= 1e-9 and worst_spec <= 1e-10
    return CheckResult(
        "williamson-canonical-form",
        passed,
        f"max reconstruction {worst_recon:.2e} (tol 1e-9), "
        f"max spectrum deviation {worst_spec:.2e} (tol 1e-10) over {trials} matrices",
    )


def check_clifford_algebra(max_modes: int = 4) -> CheckResult:
    """Anticommutators of the Majorana action equal 2 delta.

    With g_a u = phase[a] * u[perm[a]], the product g_a g_b is the signed
    permutation phase[a] * phase[b][perm[a]] on perm[b][perm[a]]; both orders
    are scattered into one matrix, so the check is exact.
    """
    worst = 0.0
    for n in range(1, max_modes + 1):
        _check_cap(n)
        perm, phase = _majorana_action(n)
        rows = np.arange(2**n)
        for a in range(2 * n):
            for b in range(a, 2 * n):
                anti = -2.0 * (a == b) * np.eye(2**n, dtype=complex)
                for x, y in ((a, b), (b, a)):
                    np.add.at(anti, (rows, perm[y][perm[x]]), phase[x] * phase[y][perm[x]])
                worst = max(worst, float(np.max(np.abs(anti))))
    passed = worst <= 1e-13
    return CheckResult(
        "clifford-algebra", passed, f"max |{{g_a, g_b}} - 2 delta| = {worst:.2e} (tol 1e-13)"
    )


def check_hamiltonian_energy(trials: int = 50, max_modes: int = 8, seed: int = 11) -> CheckResult:
    """Covariance ground energy against the dense eigensolver minimum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        n = 2 + i % (max_modes - 1)
        ham = random_quadratic_hamiltonian(n, rng)
        _, dense_energy, _ = dense_ground_state(ham)
        worst = max(worst, abs(ground_state_fcm(ham).energy - dense_energy))
    for n in (4, 6):
        ham = kitaev_hamiltonian(n, 0.5, 1.0, 1.0)
        _, dense_energy, _ = dense_ground_state(ham)
        worst = max(worst, abs(ground_state_fcm(ham).energy - dense_energy))
    passed = worst <= 1e-8
    return CheckResult(
        "ground-state-energy", passed, f"max |E_fcm - E_dense| = {worst:.2e} (tol 1e-8)"
    )


def check_fcm_extraction(trials: int = 20, max_modes: int = 6, seed: int = 13) -> CheckResult:
    """ground_state_fcm against the covariance of the dense ground state."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        n = 2 + i % (max_modes - 1)
        ham = random_quadratic_hamiltonian(n, rng)
        state, _, degenerate = dense_ground_state(ham)
        if degenerate:
            continue
        delta = ground_state_fcm(ham).state.matrix - fcm_from_state(state).matrix
        worst = max(worst, float(np.max(np.abs(delta))))
    passed = worst <= 1e-8
    return CheckResult(
        "ground-state-covariance", passed, f"max entrywise deviation {worst:.2e} (tol 1e-8)"
    )


def check_restriction_spectra(trials: int = 12, max_modes: int = 6, seed: int = 17) -> CheckResult:
    """Reduced-density spectra against products of (1 +- lambda)/2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        n = 3 + i % (max_modes - 2)
        state, fcm = random_gaussian_state(n, rng)
        for size in range(1, min(3, n - 1) + 1):
            modes = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            lambdas = williamson_form(restrict(fcm, modes).matrix).lambdas
            expected = np.sort(
                [
                    float(np.prod([(1 + s * l) / 2 for s, l in zip(signs, lambdas)]))
                    for signs in product((1.0, -1.0), repeat=len(lambdas))
                ]
            )
            observed = np.sort(np.linalg.eigvalsh(reduced_density(state, modes)))
            worst = max(worst, float(np.max(np.abs(observed - expected))))
    passed = worst <= 1e-8
    return CheckResult(
        "restriction-spectra", passed, f"max spectral deviation {worst:.2e} (tol 1e-8)"
    )


def check_theorem_and_entropy(trials: int = 20, max_modes: int = 6, seed: int = 7):
    """Modewise theorem end to end: reconstruction fidelity and entropy identity.

    Returns two results sharing one ensemble: random pure Gaussian states,
    every bipartition with the A side at most three modes.
    """
    min_fidelity, entropy_tol = 1.0 - 1e-7, 1e-8
    rng = np.random.default_rng(seed)
    worst_fid = 1.0
    worst_entropy = 0.0
    pair_bound_ok = True
    count = 0
    for i in range(trials):
        n = 2 + i % (max_modes - 1)
        state, fcm = random_gaussian_state(n, rng)
        for part in bipartitions_up_to(n, 3):
            decomp = modewise_decompose(fcm, part)
            if decomp.n_pairs > min(len(part.a_modes), len(part.b_modes)):
                pair_bound_ok = False
            _, fidelity = reconstruct_state(decomp, state)
            worst_fid = min(worst_fid, fidelity)
            modewise = pure_mode_entanglement(decomp).total_modes_entropy
            oracle = schmidt_entropy(state, part)
            worst_entropy = max(worst_entropy, abs(modewise - oracle))
            count += 1
    fidelity_result = CheckResult(
        "modewise-reconstruction-fidelity",
        worst_fid >= min_fidelity and pair_bound_ok,
        f"min fidelity {worst_fid:.12f} (floor {min_fidelity}), pair bound "
        f"{'held' if pair_bound_ok else 'violated'} over {count} decompositions",
    )
    entropy_result = CheckResult(
        "mode-entanglement-entropy",
        worst_entropy <= entropy_tol,
        f"max |E_M - oracle entropy| = {worst_entropy:.2e} (tol {entropy_tol}) "
        f"over {count} decompositions",
    )
    return fidelity_result, entropy_result


def check_isotropic_decomposition(
    trials: int = 15, max_modes: int = 6, seed: int = 23, max_side: int = 2
) -> CheckResult:
    """Pair constraint and reconstruction residual on random isotropic states."""
    rng = np.random.default_rng(seed)
    worst_constraint = 0.0
    worst_recon = 0.0
    for lambda0 in (0.3, 0.6, 0.9):
        for i in range(trials):
            n = 2 + i % (max_modes - 1)
            state = isotropic_fcm(n, lambda0, rng)
            for part in bipartitions_up_to(n, max_side):
                decomp = modewise_decompose(state, part)
                for pair in decomp.pairs:
                    gap = abs(pair.kappa**2 + pair.lam**2 - decomp.lambda0**2)
                    worst_constraint = max(worst_constraint, gap)
                worst_recon = max(worst_recon, reconstruction_residual(decomp, state))
    passed = worst_constraint <= 1e-9 and worst_recon <= 1e-8
    return CheckResult(
        "isotropic-decomposition",
        passed,
        f"max pair-constraint gap {worst_constraint:.2e} (tol 1e-9), "
        f"max reconstruction residual {worst_recon:.2e} (tol 1e-8)",
    )


def locate_ppt_sign_change(lambda0: float) -> float:
    """Bisect the kappa at which the minimum PT eigenvalue changes sign."""

    def min_eig(kappa: float) -> float:
        lam = float(np.sqrt(max(lambda0**2 - kappa**2, 0.0)))
        return ppt_min_eigenvalue(lambda0, lam, kappa)

    lo, hi = 0.0, lambda0
    if min_eig(hi) >= 0.0:
        return float("nan")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_ppt_threshold() -> CheckResult:
    """Numerically located PT sign change against (1 - lambda0^2) / 2."""
    worst = 0.0
    for lambda0 in (0.5, 0.8, 0.95):
        found = locate_ppt_sign_change(lambda0)
        worst = max(worst, abs(found - 0.5 * (1.0 - lambda0**2)))
    # Below lambda0 = sqrt(2) - 1 no kappa can go negative.
    lambda0 = 0.41
    floor = 0.0
    for kappa in np.linspace(0.0, lambda0, 201):
        lam = float(np.sqrt(max(lambda0**2 - kappa**2, 0.0)))
        floor = min(floor, ppt_min_eigenvalue(lambda0, lam, kappa))
    passed = worst <= 1e-10 and floor >= -1e-12
    return CheckResult(
        "ppt-threshold",
        passed,
        f"max threshold deviation {worst:.2e} (tol 1e-10), "
        f"min PT eigenvalue at lambda0=0.41 is {floor:.2e} (floor -1e-12)",
    )


def check_bcs_roundtrip() -> CheckResult:
    """Pair angles recovered from decomposing a product of squeezed pairs."""
    thetas, tol = (0.2, 0.5, np.pi / 4), 1e-10
    state = bcs_fcm(thetas)
    n = 2 * len(thetas)
    part = Bipartition(tuple(range(0, n, 2)), tuple(range(1, n, 2)))
    decomp = modewise_decompose(state, part)
    recovered = sorted(p.theta for p in decomp.pairs)
    target = sorted(float(t) for t in thetas)
    worst = max(
        (abs(r - t) for r, t in zip(recovered, target)), default=float("inf")
    ) if len(recovered) == len(target) else float("inf")
    orth = is_orthogonal(decomp.transform_a) and is_orthogonal(decomp.transform_b)
    passed = worst <= tol and orth
    return CheckResult(
        "bcs-roundtrip",
        passed,
        f"max angle deviation {worst:.2e} (tol {tol}), local transforms "
        f"{'orthogonal' if orth else 'NOT orthogonal'}",
    )


def check_negative_controls() -> CheckResult:
    """Non-Gaussian and non-isotropic inputs must be flagged, not absorbed."""
    # Superposition of two disjoint pair excitations is not Gaussian: every
    # two-point function vanishes, so its covariance matrix is far from pure.
    amps = np.zeros(16, dtype=complex)
    amps[0b1100] = amps[0b0011] = 1.0 / np.sqrt(2.0)
    non_gaussian = FockState(4, amps)
    gaussian_accepted = is_pure(fcm_from_state(non_gaussian))

    mixed = diagonal_fcm([0.9, 0.3])
    try:
        modewise_decompose(mixed, Bipartition((0,), (1,)))
        rejected = False
    except NotIsotropicError:
        rejected = True
    passed = (not gaussian_accepted) and rejected
    return CheckResult(
        "negative-controls",
        passed,
        f"non-Gaussian state {'rejected' if not gaussian_accepted else 'ACCEPTED'} by purity, "
        f"non-isotropic state {'rejected' if rejected else 'ACCEPTED'} by decomposition",
    )


def run_all(max_modes: int = 6, trials: int = 20, seed: int = 7) -> list[CheckResult]:
    """Full verification battery at a configurable scale."""
    if max_modes < 2 or trials < 1 or seed < 0:
        raise InvalidInputError(
            f"verify needs max_modes >= 2, trials >= 1 and seed >= 0, "
            f"got {max_modes}, {trials} and {seed}"
        )
    _check_cap(max_modes)  # before any suite: the largest one builds max_modes-mode states
    fidelity, entropy = check_theorem_and_entropy(
        trials=trials, max_modes=max_modes, seed=seed
    )
    return [
        check_williamson(trials=max(trials * 10, 100), seed=seed),
        check_clifford_algebra(max_modes=min(4, max_modes)),
        check_hamiltonian_energy(trials=trials, max_modes=max_modes, seed=seed + 1),
        check_fcm_extraction(trials=trials, max_modes=max_modes, seed=seed + 2),
        check_restriction_spectra(trials=max(trials // 2, 4), max_modes=max_modes, seed=seed + 3),
        fidelity,
        entropy,
        check_isotropic_decomposition(trials=max(trials // 2, 5), max_modes=max_modes, seed=seed + 4),
        check_ppt_threshold(),
        check_bcs_roundtrip(),
        check_negative_controls(),
    ]
