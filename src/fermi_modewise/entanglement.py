"""Mode entanglement and separability of decomposed Gaussian states.

For pure states the entanglement of modes is the sum of the binary entropies
of the pair Schmidt weights cos^2(theta), sin^2(theta).  For isotropic mixed
states the test is the paper's pairwise criterion on the decomposed pairs:
after the local mode transforms each pair is read as two qubits, whose
partial transpose is negative exactly when kappa > (1 - lambda0^2) / 2.  That
this pairwise test is exact for states with several pairs is open (ROADMAP
item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompose import PairSpectrum
from .errors import InvalidInputError

_LN2 = float(np.log(2.0))
_PAIR_CONSTRAINT_TOL = 1e-9
# Margin of the pair test over its threshold: absorbs float rounding of the
# threshold and keeps the verdict equal to ``ppt_min_eigenvalue(...) < -1e-12``.
_PPT_GUARD = 2e-12


@dataclass
class EntanglementReport:
    """Per-pair and aggregate entanglement data for one decomposition.

    ``pair_entropies`` and ``total_modes_entropy`` (bits) are filled for pure
    decompositions only; otherwise they are ``[]`` and ``None``.
    ``pair_npt_flags`` holds the ``ppt_pair_entangled`` verdict of each pair,
    and ``separable`` is True iff no flag is set.  The fields, in this order,
    are the keys of ``entropy --json``.
    """

    pair_entropies: list[float] = field(default_factory=list)
    total_modes_entropy: float | None = None
    pair_npt_flags: list[bool] = field(default_factory=list)
    separable: bool = True


def binary_entropy(p: float) -> float:
    """Binary entropy -p log2 p - (1-p) log2 (1-p) in bits, with 0 log 0 = 0."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise InvalidInputError(f"probability must lie in [0, 1], got {p!r}")
    p = min(max(p, 0.0), 1.0)
    return float(-(_xlogx(p) + _xlogx(1.0 - p)) / _LN2)


def _xlogx(x: float) -> float:
    """x ln x with 0 ln 0 = 0, bit for bit scipy.special.xlogy(x, x).

    math.log is the C library's log, as xlogy's; numpy's vector log can
    differ from it in the last bit.
    """
    return x * math.log(x) if x else 0.0


def _clamped_lambda0(lambda0: float) -> float:
    if not -1e-9 <= lambda0 <= 1.0 + 1e-9:
        raise InvalidInputError(f"lambda0 must lie in [0, 1], got {lambda0!r}")
    return min(max(lambda0, 0.0), 1.0)


def ppt_pair_entangled(lambda0: float, kappa: float) -> bool:
    """Partial-transpose test for one pair: entangled iff kappa > (1 - lambda0^2)/2.

    The pair is read as two qubits.  The bound is strict: kappa at the
    threshold counts as separable, and a 2e-12 guard absorbs float rounding.
    """
    lambda0 = _clamped_lambda0(lambda0)
    if kappa < -1e-12 or kappa > lambda0 + 1e-9:
        raise InvalidInputError(
            f"kappa must satisfy 0 <= kappa <= lambda0, got kappa={kappa!r}, lambda0={lambda0!r}"
        )
    return kappa > 0.5 * (1.0 - lambda0**2) + _PPT_GUARD


def _check_pair_constraint(lambda0: float, lam: float, kappa: float):
    lambda0 = _clamped_lambda0(lambda0)
    if lam < -1e-12 or kappa < -1e-12:
        raise InvalidInputError(f"lambda and kappa must be nonnegative, got {lam!r}, {kappa!r}")
    gap = abs(kappa**2 + lam**2 - lambda0**2)
    if gap > _PAIR_CONSTRAINT_TOL:
        raise InvalidInputError(
            f"pair parameters violate kappa^2 + lambda^2 = lambda0^2 by {gap:.3e}"
        )
    return lambda0


def two_mode_block_matrix(lambda0: float, lam: float, kappa: float) -> np.ndarray:
    """Density matrix of one pair, block diagonal on {|00>,|11>} + {|01>,|10>}.

    Basis order is [|00>, |11>, |01>, |10>]; the matrix has unit trace.
    """
    lambda0 = _check_pair_constraint(lambda0, lam, kappa)
    out = np.zeros((4, 4))
    out[0, 0] = 0.25 * ((1.0 + lam) ** 2 + kappa**2)
    out[1, 1] = 0.25 * ((1.0 - lam) ** 2 + kappa**2)
    out[0, 1] = out[1, 0] = 0.5 * kappa
    out[2, 2] = out[3, 3] = 0.25 * (1.0 - lambda0**2)
    return out


def ppt_min_eigenvalue(lambda0: float, lam: float, kappa: float) -> float:
    """Minimum eigenvalue of the partially transposed pair density matrix.

    Partial transposition swaps the off-diagonal elements between the two
    2x2 blocks; the result is negative exactly when the pair is entangled.
    """
    rho = two_mode_block_matrix(lambda0, lam, kappa)
    swapped = rho.copy()
    swapped[0, 1] = swapped[1, 0] = 0.0
    swapped[2, 3] = swapped[3, 2] = 0.5 * kappa
    return float(np.linalg.eigvalsh(swapped)[0])


def pure_mode_entanglement(decomp: PairSpectrum) -> EntanglementReport:
    """Entanglement of modes of a pure decomposition or pair spectrum, in bits.

    Each pair contributes the binary entropy of its Schmidt weight
    cos^2(theta); decoupled modes are local vacua and contribute nothing.
    """
    if not decomp.pure:
        raise InvalidInputError(
            "entanglement of modes is defined here for pure states only, "
            f"lambda0 = {decomp.lambda0!r}"
        )
    return isotropic_separability(decomp)


def isotropic_separability(decomp: PairSpectrum) -> EntanglementReport:
    """Pairwise separability verdict for an isotropic decomposition.

    The state counts as separable across the bipartition iff every pair
    passes the two-qubit partial-transpose test of ``ppt_pair_entangled``.
    Entropy fields are filled when the input happens to be pure.  Only the
    fields of ``PairSpectrum`` are read, so ``pair_spectrum`` gives the report
    of ``modewise_decompose``, up to rounding.
    """
    lambda0 = _clamped_lambda0(decomp.lambda0)
    flags = [ppt_pair_entangled(lambda0, min(p.kappa, lambda0)) for p in decomp.pairs]
    entropies = [binary_entropy(np.cos(p.theta) ** 2) for p in decomp.pairs] if decomp.pure else []
    return EntanglementReport(
        pair_entropies=entropies,
        total_modes_entropy=float(sum(entropies)) if decomp.pure else None,
        pair_npt_flags=flags,
        separable=not any(flags),
    )
