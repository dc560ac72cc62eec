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

The values alone need no transforms: the k are the singular values of the
cross block and the l the Williamson eigenvalues of the smaller side, so
``pair_spectrum`` reads the pairs from two or three value-only SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .canonical import _chiral_block, _williamson_core, lambda_blocks
from .errors import NotIsotropicError, NumericalConsistencyError
from .gaussian import (
    ISOTROPY_TOL,
    PURITY_TOL,
    Bipartition,
    CovarianceMatrix,
    _check_partition,
    isotropy_parameter,
    quadrature_indices,
)


# Width, relative to lambda0, below which a local eigenvalue counts as zero:
# such modes carry no orientation of their own.
_ZERO_LAMBDA_TOL = 1e-8
# Largest part of a rotated 2x2 cross block that may commute with J2.
_COMMUTING_TOL = 1e-7
# Smallest kappa, relative to lambda0, treated as a genuine pair.
_PAIR_TOL = 1e-8


class EntangledPair(NamedTuple):
    """One two-mode squeezed pair: transformed mode ``mode`` of A with mode ``mode`` of B.

    ``mode`` is the pair's place in descending kappa order, 0-based.
    """

    lam: float
    kappa: float
    theta: float
    mode: int

    # Read-only aliases of ``mode``: the benchmark's checks read a pair's two
    # indices by these names.
    a_mode = b_mode = property(lambda self: self.mode)


class ResidualMode(NamedTuple):
    """Decoupled transformed mode with its Williamson eigenvalue (= lambda0)."""

    mode: int
    lam: float


@dataclass(frozen=True)
class PairSpectrum:
    """lambda0 and the entangled pairs of a decomposition, by descending angle."""

    lambda0: float
    pairs: list[EntangledPair]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def pure(self) -> bool:
        """Whether the state is pure: |lambda0 - 1| <= 1e-9, as ``is_pure``."""
        return abs(self.lambda0 - 1.0) <= PURITY_TOL


@dataclass(frozen=True, eq=False)
class ModewiseDecomposition(PairSpectrum):
    """A pair spectrum with the local transforms that realize it.

    ``transform_a`` / ``transform_b`` act on the quadratures of the A / B
    modes (in partition order).  Pair k sits on transformed mode k of both
    sides, and the residual modes of each side follow the pairs; all mode
    indices refer to the transformed local bases, 0-based.  Two
    decompositions are equal iff their transforms are equal entrywise and
    their other fields are equal.
    """

    transform_a: np.ndarray
    transform_b: np.ndarray
    residual_a: list[ResidualMode]
    residual_b: list[ResidualMode]
    partition: Bipartition = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, ModewiseDecomposition):
            return False
        fields = ("lambda0", "pairs", "residual_a", "residual_b", "partition")
        return bool(
            np.array_equal(self.transform_a, other.transform_a)
            and np.array_equal(self.transform_b, other.transform_b)
            and all(getattr(self, name) == getattr(other, name) for name in fields)
        )

    @property
    def n_modes(self) -> int:
        return self.partition.n_modes


def _checked_lambda0(state: CovarianceMatrix, partition: Bipartition) -> float:
    """lambda0 of an isotropic state that ``partition`` fits; raises otherwise."""
    _check_partition(partition, state.n_modes)
    lambda0 = isotropy_parameter(state)
    if lambda0 is None:
        raise NotIsotropicError(state.isotropy_deviation, ISOTROPY_TOL)
    return lambda0


def _check_commuting_part(worst: float):
    """Refuse a cross block whose part commuting with J2 exceeds 1e-7."""
    if worst > _COMMUTING_TOL:
        raise NumericalConsistencyError(
            f"cross-correlations keep a part commuting with J2 of {worst:.3e} > "
            f"{_COMMUTING_TOL:.3e}; the input is not isotropic to working precision"
        )


def _svdvals(mat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mat, compute_uv=False)


def _pairs(lams, kappas, lambda0: float) -> list[EntangledPair]:
    """The pairs of couplings beyond 1e-8 lambda0 by descending angle.

    ``mode`` is a pair's place in ``kappas``.
    """
    pairs = [EntangledPair(float(lam), float(kappa), float(0.5 * np.arctan2(kappa, lam)), k)
             for k, (lam, kappa) in enumerate(zip(lams, kappas)) if kappa > _PAIR_TOL * lambda0]
    pairs.sort(key=lambda p: (-p.theta, p.mode))
    return pairs


def pair_spectrum(state: CovarianceMatrix, partition: Bipartition) -> PairSpectrum:
    """lambda0 and the pairs of ``modewise_decompose``, without its transforms.

    Only singular values are computed.  The kappa are those of the cross block
    M_AB, each appearing twice, and the lambda the Williamson eigenvalues of
    the smaller side; for a chiral M (see ``canonical._chiral_block``) they
    come from N x N blocks, the kappa once from each of M_AB[0::2, 1::2] and
    M_AB[1::2, 0::2] and the lambda from the smaller side's even-odd block.
    lambda^2 + kappa^2 = lambda0^2 pairs the lambda ascending with the kappa
    descending.  Taking lambda from sqrt(lambda0^2 - kappa^2) instead
    would cancel for kappa near lambda0 and blur angles near pi/4.

    The tolerances and errors are those of ``modewise_decompose``.  Couplings up
    to 1e-8 lambda0 are dropped, a state that is not isotropic raises
    NotIsotropicError, and half the largest gap between the two copies of a
    kappa, the part of a pair's cross block that commutes with J2, raises
    NumericalConsistencyError beyond 1e-7.
    """
    lambda0 = _checked_lambda0(state, partition)

    rows_a = quadrature_indices(partition.a_modes)
    rows_b = quadrature_indices(partition.b_modes)
    rows_small = rows_a if len(rows_a) <= len(rows_b) else rows_b
    m = state.matrix
    if _chiral_block(m) is None:
        sigma = _svdvals(m[rows_a[:, None], rows_b])
        kappas, copies = sigma[0::2], sigma[1::2]
        lams = _svdvals(m[rows_small[:, None], rows_small])[0::2]
    else:
        kappas = _svdvals(m[rows_a[0::2, None], rows_b[1::2]])
        copies = _svdvals(m[rows_a[1::2, None], rows_b[0::2]])
        lams = _svdvals(m[rows_small[0::2, None], rows_small[1::2]])
    _check_commuting_part(0.5 * float(np.max(np.abs(kappas - copies), initial=0.0)))
    return PairSpectrum(float(lambda0), _pairs(lams[::-1], kappas, lambda0))


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
    leaves K' = diag(kappa_k beta).  Transformed mode k of each side, the
    kappa descending, carries that side's k-th smallest Williamson
    eigenvalue, and each pair the one of the smaller side, as in
    ``pair_spectrum``; distinct pairs inside the zero class keep their own.

    Local eigenvalues up to 1e-8 lambda0 count as zero, and couplings kappa up
    to 1e-8 lambda0 are dropped.  Raises NotIsotropicError when max|M^2 + lambda0^2|
    exceeds 1e-8, and NumericalConsistencyError when a block of K' keeps a
    part commuting with J2 beyond 1e-7, which signals inconsistent input
    rather than a representation choice.
    """
    lambda0 = _checked_lambda0(state, partition)

    n_a, n_b = len(partition.a_modes), len(partition.b_modes)
    rows_a = quadrature_indices(partition.a_modes)
    rows_b = quadrature_indices(partition.b_modes)
    cross = state.matrix[rows_a[:, None], rows_b]
    # antisymmetrize returns a principal block of a CovarianceMatrix bit for bit.
    form_a = _williamson_core(state.matrix[rows_a[:, None], rows_a])
    form_b = _williamson_core(state.matrix[rows_b[:, None], rows_b])
    rot_a, rot_b = form_a.orthogonal, form_b.orthogonal
    rotated = rot_a @ cross @ rot_b.T

    # Modes with lambda ~ 0 (the trailing rows) carry no orientation: pair
    # them by a real SVD, swapping the quadratures of each B mode so that
    # every pair reads s * beta.
    zero_a = 2 * np.count_nonzero(form_a.lambdas > _ZERO_LAMBDA_TOL * lambda0)
    zero_b = 2 * np.count_nonzero(form_b.lambdas > _ZERO_LAMBDA_TOL * lambda0)
    if zero_a < 2 * n_a and zero_b < 2 * n_b:
        u, _, vt = np.linalg.svd(rotated[zero_a:, zero_b:])
        rot_a[zero_a:] = u.T @ rot_a[zero_a:]
        rot_b[zero_b:] = vt[np.arange(len(vt)) ^ 1] @ rot_b[zero_b:]
        rotated = rot_a @ cross @ rot_b.T

    a, b = rotated[0::2, 0::2], rotated[0::2, 1::2]
    c, d = rotated[1::2, 0::2], rotated[1::2, 1::2]
    _check_commuting_part(float(np.max(0.5 * np.hypot(a + d, b - c), initial=0.0)))

    # Blocks [[p, q], [q, -p]] as p + iq; rotating A by i P^H and B by Q^T
    # turns C = P diag(kappa) Q^H into i diag(kappa), i.e. kappa * beta blocks.
    p_mat, kappas, qh_mat = np.linalg.svd(0.5 * (a - d) + 0.5j * (b + c))
    unitary_a, unitary_b = 1j * p_mat.conj().T, qh_mat.conj()
    # lambda^2 + kappa^2 = lambda0^2 gives transformed mode k of each side its
    # k-th smallest local eigenvalue, the kappa coming in descending order; the
    # pairs take the smaller side's, as pair_spectrum does.
    lams_a, lams_b = form_a.lambdas[::-1], form_b.lambdas[::-1]
    pairs = _pairs(lams_a if n_a <= n_b else lams_b, kappas, lambda0)
    return ModewiseDecomposition(
        lambda0=float(lambda0),
        pairs=pairs,
        transform_a=_complex_to_real(unitary_a) @ rot_a,
        transform_b=_complex_to_real(unitary_b) @ rot_b,
        residual_a=[ResidualMode(k, float(lams_a[k])) for k in range(len(pairs), n_a)],
        residual_b=[ResidualMode(k, float(lams_b[k])) for k in range(len(pairs), n_b)],
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
    modes = np.array([p.mode for p in decomp.pairs], dtype=int)
    lams_a = np.zeros(len(part.a_modes))
    lams_b = np.zeros(len(part.b_modes))
    lams_a[modes] = lams_b[modes] = [p.lam for p in decomp.pairs]
    for lams, residuals in ((lams_a, decomp.residual_a), (lams_b, decomp.residual_b)):
        lams[[r.mode for r in residuals]] = [r.lam for r in residuals]
    cross = np.zeros((len(rows_a), len(rows_b)))
    cross[2 * modes, 2 * modes + 1] = cross[2 * modes + 1, 2 * modes] = [p.kappa for p in decomp.pairs]

    t_a, t_b, mat = decomp.transform_a, decomp.transform_b, state.matrix
    deltas = (
        t_a @ mat[rows_a[:, None], rows_a] @ t_a.T - lambda_blocks(lams_a),
        t_b @ mat[rows_b[:, None], rows_b] @ t_b.T - lambda_blocks(lams_b),
        t_a @ mat[rows_a[:, None], rows_b] @ t_b.T - cross,
    )
    return max((float(np.max(np.abs(d))) for d in deltas if d.size), default=0.0)
