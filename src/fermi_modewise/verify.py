"""Cross-validation suites pitting the covariance pipeline against the dense oracle.

Every check here compares two independent routes to the same quantity: the
covariance-matrix algorithms on one side and dense Fock-space linear algebra
(or a plain symmetric eigensolver) on the other.  The CLI ``verify`` command
runs them all; the acceptance tests run them with pinned ensembles.

Each suite returns rows of (quantity, measured value, upper bound) and passes
iff ``value <= bound`` on every row, so a NaN fails.  Floors and yes/no
outcomes are stated as upper bounds (an infidelity, a count of violations).
A row prints as ``quantity = value (bound b, margin b - value)``.
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


@dataclass(frozen=True)
class CheckResult:
    """One suite: rows of (quantity, measured value, upper bound) and a note."""

    name: str
    rows: tuple[tuple[str, float, float], ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(value <= bound for _, value, bound in self.rows)

    @property
    def detail(self) -> str:
        cells = [
            f"{q} = {_number(v)} (bound {_number(b)}, margin {_number(b - v)})"
            for q, v, b in self.rows
        ]
        if self.note:
            cells.append(self.note)
        return "; ".join(cells)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _number(x: float) -> str:
    return str(x) if isinstance(x, int) else f"{x:.2e}"


def _worst(values) -> float:
    """Largest value, 0 when there is none; a NaN anywhere gives NaN."""
    return float(np.max(values, initial=0.0))


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
    recon, spec = [], []
    for i in range(trials):
        mat = random_antisymmetric(2 * (1 + i % 20), rng)  # 2, 4, ..., 40
        form = williamson_form(mat)
        canonical = lambda_blocks(form.lambdas)
        recon.append(np.max(np.abs(form.orthogonal @ mat @ form.orthogonal.T - canonical)))
        # Oracle: eigenvalues of -M^2 are the squared eigenvalues, each twice.
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(-mat @ mat), 0.0, None))[::-2]
        spec.append(np.max(np.abs(np.sort(form.lambdas) - np.sort(oracle))))
    rows = (
        ("max reconstruction", _worst(recon), 1e-9),
        ("max spectrum deviation", _worst(spec), 1e-10),
    )
    return CheckResult("williamson-canonical-form", rows, f"over {trials} matrices")


def check_clifford_algebra(max_modes: int = 4) -> CheckResult:
    """Anticommutators of the Majorana action equal 2 delta.

    With g_a u = phase[a] * u[perm[a]], the product g_a g_b is the signed
    permutation phase[a] * phase[b][perm[a]] on perm[b][perm[a]]; both orders
    are scattered into one matrix, so the check is exact.
    """
    deviations = []
    for n in range(1, max_modes + 1):
        _check_cap(n)
        perm, phase = _majorana_action(n)
        basis = np.arange(2**n)
        for a in range(2 * n):
            for b in range(a, 2 * n):
                anti = -2.0 * (a == b) * np.eye(2**n, dtype=complex)
                for x, y in ((a, b), (b, a)):
                    np.add.at(anti, (basis, perm[y][perm[x]]), phase[x] * phase[y][perm[x]])
                deviations.append(np.max(np.abs(anti)))
    rows = (("max |{g_a, g_b} - 2 delta|", _worst(deviations), 1e-13),)
    return CheckResult("clifford-algebra", rows)


def check_hamiltonian_energy(trials: int = 50, max_modes: int = 8, seed: int = 11) -> CheckResult:
    """Covariance ground energy against the dense eigensolver minimum."""
    rng = np.random.default_rng(seed)
    hams = [random_quadratic_hamiltonian(2 + i % (max_modes - 1), rng) for i in range(trials)]
    hams += [kitaev_hamiltonian(n, 0.5, 1.0, 1.0) for n in (4, 6)]
    gaps = [abs(ground_state_fcm(ham).energy - dense_ground_state(ham).energy) for ham in hams]
    return CheckResult("ground-state-energy", (("max |E_fcm - E_dense|", _worst(gaps), 1e-8),))


def check_fcm_extraction(trials: int = 20, max_modes: int = 6, seed: int = 13) -> CheckResult:
    """ground_state_fcm against the covariance of the dense ground state."""
    rng = np.random.default_rng(seed)
    deviations = []
    for i in range(trials):
        ham = random_quadratic_hamiltonian(2 + i % (max_modes - 1), rng)
        state, _, degenerate = dense_ground_state(ham)
        if not degenerate:
            delta = ground_state_fcm(ham).state.matrix - fcm_from_state(state).matrix
            deviations.append(np.max(np.abs(delta)))
    rows = (("max entrywise deviation", _worst(deviations), 1e-8),)
    return CheckResult("ground-state-covariance", rows)


def check_restriction_spectra(trials: int = 12, max_modes: int = 6, seed: int = 17) -> CheckResult:
    """Reduced-density spectra against products of (1 +- lambda)/2."""
    rng = np.random.default_rng(seed)
    deviations = []
    for i in range(trials):
        n = 3 + i % (max_modes - 2) if max_modes > 2 else 2
        state, fcm = random_gaussian_state(n, rng)
        for size in range(1, min(3, n - 1) + 1):
            modes = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            lambdas = williamson_form(restrict(fcm, modes).matrix).lambdas
            signs = np.array(list(product((1.0, -1.0), repeat=len(lambdas))))
            expected = np.sort(np.prod((1 + signs * lambdas) / 2, axis=1))
            observed = np.sort(np.linalg.eigvalsh(reduced_density(state, modes)))
            deviations.append(np.max(np.abs(observed - expected)))
    rows = (("max spectral deviation", _worst(deviations), 1e-8),)
    return CheckResult("restriction-spectra", rows)


def check_theorem_and_entropy(trials: int = 20, max_modes: int = 6, seed: int = 7):
    """Modewise theorem end to end: reconstruction fidelity and entropy identity.

    Returns two results sharing one ensemble: random pure Gaussian states,
    every bipartition with the A side at most three modes.
    """
    rng = np.random.default_rng(seed)
    infidelities, entropy_gaps, excess_pairs = [], [], 0
    for i in range(trials):
        n = 2 + i % (max_modes - 1)
        state, fcm = random_gaussian_state(n, rng)
        for part in bipartitions_up_to(n, 3):
            decomp = modewise_decompose(fcm, part)
            excess_pairs += max(decomp.n_pairs - min(len(part.a_modes), len(part.b_modes)), 0)
            infidelities.append(1.0 - reconstruct_state(decomp, state)[1])
            modewise = pure_mode_entanglement(decomp).total_modes_entropy
            entropy_gaps.append(abs(modewise - schmidt_entropy(state, part)))
    fidelity_rows = (
        ("max infidelity", _worst(infidelities), 1e-7),
        ("pairs beyond the smaller side", excess_pairs, 0),
    )
    entropy_rows = (("max |E_M - oracle entropy|", _worst(entropy_gaps), 1e-8),)
    note = f"over {len(infidelities)} decompositions"
    return (
        CheckResult("modewise-reconstruction-fidelity", fidelity_rows, note),
        CheckResult("mode-entanglement-entropy", entropy_rows, note),
    )


def check_isotropic_decomposition(
    trials: int = 15, max_modes: int = 6, seed: int = 23, max_side: int = 2
) -> CheckResult:
    """Pair constraint and reconstruction residual on random isotropic states."""
    rng = np.random.default_rng(seed)
    gaps, residuals = [], []
    for lambda0 in (0.3, 0.6, 0.9):
        for i in range(trials):
            n = 2 + i % (max_modes - 1)
            state = isotropic_fcm(n, lambda0, rng)
            for part in bipartitions_up_to(n, max_side):
                decomp = modewise_decompose(state, part)
                gaps += [abs(p.kappa**2 + p.lam**2 - decomp.lambda0**2) for p in decomp.pairs]
                residuals.append(reconstruction_residual(decomp, state))
    rows = (
        ("max pair-constraint gap", _worst(gaps), 1e-9),
        ("max reconstruction residual", _worst(residuals), 1e-8),
    )
    return CheckResult("isotropic-decomposition", rows)


def _pair_min_eigenvalue(lambda0: float, kappa: float) -> float:
    """Minimum PT eigenvalue of the pair with coupling kappa on the isotropic circle."""
    lam = float(np.sqrt(max(lambda0**2 - kappa**2, 0.0)))
    return ppt_min_eigenvalue(lambda0, lam, kappa)


def locate_ppt_sign_change(lambda0: float) -> float:
    """Bisect the kappa at which the minimum PT eigenvalue changes sign."""
    lo, hi = 0.0, lambda0
    if _pair_min_eigenvalue(lambda0, hi) >= 0.0:
        return float("nan")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _pair_min_eigenvalue(lambda0, mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_ppt_threshold() -> CheckResult:
    """Numerically located PT sign change against (1 - lambda0^2) / 2."""
    deviations = [
        abs(locate_ppt_sign_change(lambda0) - 0.5 * (1.0 - lambda0**2))
        for lambda0 in (0.5, 0.8, 0.95)
    ]
    # Below lambda0 = sqrt(2) - 1 no kappa can go negative; the margin is the headroom.
    negated = [-_pair_min_eigenvalue(0.41, kappa) for kappa in np.linspace(0.0, 0.41, 201)]
    rows = (
        ("max threshold deviation", _worst(deviations), 1e-10),
        ("-(min PT eigenvalue) at lambda0=0.41", float(np.max(negated)), 1e-12),
    )
    return CheckResult("ppt-threshold", rows)


def check_bcs_roundtrip() -> CheckResult:
    """Pair angles recovered from decomposing a product of squeezed pairs."""
    thetas = (0.2, 0.5, np.pi / 4)
    n = 2 * len(thetas)
    part = Bipartition(tuple(range(0, n, 2)), tuple(range(1, n, 2)))
    decomp = modewise_decompose(bcs_fcm(thetas), part)
    recovered = sorted(p.theta for p in decomp.pairs)
    matched = len(recovered) == len(thetas)
    deviation = _worst(np.abs(np.subtract(recovered, sorted(thetas)))) if matched else np.inf
    non_orthogonal = sum(not is_orthogonal(t) for t in (decomp.transform_a, decomp.transform_b))
    rows = (
        ("max angle deviation", deviation, 1e-10),
        ("non-orthogonal local transforms", non_orthogonal, 0),
    )
    return CheckResult("bcs-roundtrip", rows)


def check_negative_controls() -> CheckResult:
    """Non-Gaussian and non-isotropic inputs must be flagged, not absorbed."""
    # Superposition of two disjoint pair excitations is not Gaussian: every
    # two-point function vanishes, so its covariance matrix is far from pure.
    amps = np.zeros(16, dtype=complex)
    amps[0b1100] = amps[0b0011] = 1.0 / np.sqrt(2.0)
    gaussian_accepted = int(is_pure(fcm_from_state(FockState(4, amps))))
    try:
        modewise_decompose(diagonal_fcm([0.9, 0.3]), Bipartition((0,), (1,)))
        isotropic_accepted = 1
    except NotIsotropicError:
        isotropic_accepted = 0
    rows = (
        ("non-Gaussian state accepted by purity", gaussian_accepted, 0),
        ("non-isotropic state accepted by decomposition", isotropic_accepted, 0),
    )
    return CheckResult("negative-controls", rows)


def run_all(max_modes: int = 6, trials: int = 20, seed: int = 7) -> list[CheckResult]:
    """Full verification battery at a configurable scale."""
    if max_modes < 2 or trials < 1 or seed < 0:
        raise InvalidInputError(
            f"verify needs max_modes >= 2, trials >= 1 and seed >= 0, "
            f"got {max_modes}, {trials} and {seed}"
        )
    _check_cap(max_modes)  # before any suite: the largest one builds max_modes-mode states
    fidelity, entropy = check_theorem_and_entropy(trials=trials, max_modes=max_modes, seed=seed)
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
