"""Modewise decomposition of isotropic fermion Gaussian states.

Given an isotropic covariance matrix (M^2 = -l0^2, pure states being l0 = 1)
and a bipartition of the modes, local orthogonal transforms on each side bring
the state to a direct sum of entangled two-mode blocks

    [[0, -l, 0,  k],
     [l,  0, k,  0],          k^2 + l^2 = l0^2,  tan(2 theta) = k / l,
     [0, -k, 0, -l],
     [-k, 0, l,  0]]

plus decoupled single modes on either side (Botero & Reznik,
quant-ph/0404176).  The route is two Williamson forms and one complex SVD:
Williamson-transform each side, read every 2x2 block [[p, q], [q, -p]] of the
rotated cross block as the complex number p + iq, and rotate both sides by
the unitary factors of its SVD.  The singular values are the couplings k.
Unitary rotations commute with J2, so they keep the local Williamson forms
even where they mix nearly degenerate modes, as on area-law chain cuts with
exponentially small couplings.  The one consistency check is that isotropy
leaves no part of a cross block commuting with J2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .canonical import lambda_blocks, williamson_form
from .errors import InvalidInputError, NotIsotropicError, NumericalConsistencyError
from .gaussian import (
    ISOTROPY_TOL,
    PURITY_TOL,
    Bipartition,
    CovarianceMatrix,
    isotropy_parameter,
    quadrature_indices,
)


# Width, relative to lambda0, below which a local eigenvalue counts as zero:
# such modes carry no orientation of their own.
_ZERO_LAMBDA_TOL = 1e-8
# Largest part of a rotated 2x2 cross block that may commute with J2.
_COMMUTING_TOL = 1e-7
# Smallest kappa treated as a genuine pair.
_PAIR_TOL = 1e-8


class EntangledPair(NamedTuple):
    """One two-mode squeezed pair linking transformed modes of A and B."""

    lam: float
    kappa: float
    theta: float
    a_mode: int
    b_mode: int


class ResidualMode(NamedTuple):
    """Decoupled transformed mode with its Williamson eigenvalue (= lambda0)."""

    mode: int
    lam: float


@dataclass
class ModewiseDecomposition:
    """Local transforms and block structure of a decomposed state.

    ``transform_a`` / ``transform_b`` act on the quadratures of the A / B
    modes (in partition order); ``pairs`` are sorted by descending squeezing
    angle.  Mode indices in pairs and residuals refer to the transformed local
    bases, 0-based.
    """

    transform_a: np.ndarray
    transform_b: np.ndarray
    pairs: list[EntangledPair]
    residual_a: list[ResidualMode]
    residual_b: list[ResidualMode]
    lambda0: float
    partition: Bipartition = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.partition.n_modes

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def pure(self) -> bool:
        """Whether the decomposed state is pure: |lambda0 - 1| <= 1e-9, as ``is_pure``."""
        return abs(self.lambda0 - 1.0) <= PURITY_TOL


def _complex_to_real(x: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of the complex n x n matrix acting on z_k = g_{2k} + i g_{2k+1}."""
    out = np.empty((2 * x.shape[0], 2 * x.shape[1]))
    out[0::2, 0::2] = x.real
    out[0::2, 1::2] = -x.imag
    out[1::2, 0::2] = x.imag
    out[1::2, 1::2] = x.real
    return out


def modewise_decompose(state: CovarianceMatrix, partition: Bipartition) -> ModewiseDecomposition:
    """Decompose an isotropic covariance matrix across a bipartition.

    Both local blocks are brought to Williamson form.  Isotropy
    (M_A K + K M_B = 0) then makes every 2x2 block of the rotated cross block
    K' anticommute with J2, once the orientation of the modes with local
    eigenvalue zero has been fixed by a real SVD of their cross block.  Such a
    block [[p, q], [q, -p]] is the complex number p + iq, and one complex SVD
    of these numbers, applied as unitary (hence J2-commuting) local rotations,
    leaves K' = diag(kappa_k beta).

    Local eigenvalues up to 1e-8 lambda0 count as zero, and couplings kappa up
    to 1e-8 are dropped.  Raises NotIsotropicError when max|M^2 + lambda0^2|
    exceeds 1e-8, and NumericalConsistencyError when a block of K' keeps a
    part commuting with J2 beyond 1e-7, which signals inconsistent input
    rather than a representation choice.
    """
    if partition.n_modes != state.n_modes:
        raise InvalidInputError(
            f"partition covers {partition.n_modes} modes but the state has {state.n_modes}"
        )
    lambda0 = isotropy_parameter(state)
    if lambda0 is None:
        raise NotIsotropicError(state.isotropy_deviation, ISOTROPY_TOL)

    n_a, n_b = len(partition.a_modes), len(partition.b_modes)
    rows_a = quadrature_indices(partition.a_modes)
    rows_b = quadrature_indices(partition.b_modes)
    cross = state.matrix[np.ix_(rows_a, rows_b)]
    form_a = williamson_form(state.matrix[np.ix_(rows_a, rows_a)])
    form_b = williamson_form(state.matrix[np.ix_(rows_b, rows_b)])
    rot_a, rot_b = form_a.orthogonal, form_b.orthogonal
    rotated = rot_a @ cross @ rot_b.T

    # Modes with lambda ~ 0 (the trailing rows) carry no orientation: pair
    # them by a real SVD, swapping the quadratures of each B mode so that
    # every pair reads s * beta.
    zero_a = 2 * int(np.sum(form_a.lambdas > _ZERO_LAMBDA_TOL * lambda0))
    zero_b = 2 * int(np.sum(form_b.lambdas > _ZERO_LAMBDA_TOL * lambda0))
    if zero_a < 2 * n_a and zero_b < 2 * n_b:
        u, _, vt = np.linalg.svd(rotated[zero_a:, zero_b:])
        rot_a[zero_a:] = u.T @ rot_a[zero_a:]
        rot_b[zero_b:] = vt[np.arange(len(vt)) ^ 1] @ rot_b[zero_b:]
        rotated = rot_a @ cross @ rot_b.T

    a, b = rotated[0::2, 0::2], rotated[0::2, 1::2]
    c, d = rotated[1::2, 0::2], rotated[1::2, 1::2]
    worst = float(np.max(0.5 * np.hypot(a + d, b - c), initial=0.0))
    if worst > _COMMUTING_TOL:
        raise NumericalConsistencyError(
            f"cross-correlations keep a part commuting with J2 of {worst:.3e} > "
            f"{_COMMUTING_TOL:.3e}; the input is not isotropic to working precision"
        )

    # Blocks [[p, q], [q, -p]] as p + iq; rotating A by i P^H and B by Q^T
    # turns C = P diag(kappa) Q^H into i diag(kappa), i.e. kappa * beta blocks.
    p_mat, kappas, qh_mat = np.linalg.svd(0.5 * (a - d) + 0.5j * (b + c))
    unitary_a, unitary_b = 1j * p_mat.conj().T, qh_mat.conj()
    lams_a = np.abs(unitary_a) ** 2 @ form_a.lambdas
    lams_b = np.abs(unitary_b) ** 2 @ form_b.lambdas
    n_pairs = int(np.sum(kappas > _PAIR_TOL))

    pairs = [
        EntangledPair(float(lams_a[k]), float(kappas[k]),
                      float(0.5 * np.arctan2(kappas[k], lams_a[k])), k, k)
        for k in range(n_pairs)
    ]
    pairs.sort(key=lambda p: (-p.theta, p.a_mode))
    return ModewiseDecomposition(
        transform_a=_complex_to_real(unitary_a) @ rot_a,
        transform_b=_complex_to_real(unitary_b) @ rot_b,
        pairs=pairs,
        residual_a=[ResidualMode(k, float(lams_a[k])) for k in range(n_pairs, n_a)],
        residual_b=[ResidualMode(k, float(lams_b[k])) for k in range(n_pairs, n_b)],
        lambda0=float(lambda0),
        partition=partition,
    )


def pair_block(lam: float, kappa: float) -> np.ndarray:
    """The 4x4 covariance block of one entangled pair."""
    return np.array(
        [
            [0.0, -lam, 0.0, kappa],
            [lam, 0.0, kappa, 0.0],
            [0.0, -kappa, 0.0, -lam],
            [-kappa, 0.0, lam, 0.0],
        ]
    )


def reconstruction_residual(decomp: ModewiseDecomposition, state: CovarianceMatrix) -> float:
    """Largest entry by which the locally transformed state misses its block form.

    In the transformed local bases, T_A M_AA T_A^T and T_B M_BB T_B^T must be
    lambda J2 blocks and T_A M_AB T_B^T must hold kappa [[0, 1], [1, 0]] at
    each pair's modes and zeros elsewhere.  Every lambda and kappa is taken
    from the decomposition itself; M_BA adds nothing, being -M_AB^T.
    """
    part = decomp.partition
    rows_a = quadrature_indices(part.a_modes)
    rows_b = quadrature_indices(part.b_modes)
    lams_a = np.zeros(len(part.a_modes))
    lams_b = np.zeros(len(part.b_modes))
    cross = np.zeros((len(rows_a), len(rows_b)))
    for pair in decomp.pairs:
        a, b = 2 * pair.a_mode, 2 * pair.b_mode
        lams_a[pair.a_mode] = lams_b[pair.b_mode] = pair.lam
        cross[a, b + 1] = cross[a + 1, b] = pair.kappa
    for lams, residuals in ((lams_a, decomp.residual_a), (lams_b, decomp.residual_b)):
        for residual in residuals:
            lams[residual.mode] = residual.lam

    t_a, t_b, mat = decomp.transform_a, decomp.transform_b, state.matrix
    deltas = (
        t_a @ mat[np.ix_(rows_a, rows_a)] @ t_a.T - lambda_blocks(lams_a),
        t_b @ mat[np.ix_(rows_b, rows_b)] @ t_b.T - lambda_blocks(lams_b),
        t_a @ mat[np.ix_(rows_a, rows_b)] @ t_b.T - cross,
    )
    return max((float(np.max(np.abs(d))) for d in deltas if d.size), default=0.0)
