"""Covariance-matrix toolkit for fermionic Gaussian states.

Represents states of N fermion modes by 2N x 2N real antisymmetric covariance
matrices, decomposes pure and isotropic states across arbitrary bipartitions
into products of two-mode squeezed pairs, quantifies the resulting mode
entanglement, tests separability via the partial transpose, and cross-checks
everything against an exact dense Fock-space reference at small mode counts.
"""

from .canonical import (
    J2,
    WilliamsonForm,
    antisymmetrize,
    is_orthogonal,
    j_blocks,
    lambda_blocks,
    williamson_form,
)
from .decompose import (
    EntangledPair,
    ModewiseDecomposition,
    PairSpectrum,
    ResidualMode,
    modewise_decompose,
    pair_block,
    pair_spectrum,
    reconstruction_residual,
)
from .entanglement import (
    EntanglementReport,
    binary_entropy,
    isotropic_separability,
    ppt_min_eigenvalue,
    ppt_pair_entangled,
    pure_mode_entanglement,
    two_mode_block_matrix,
)
from .errors import (
    FermiModewiseError,
    InvalidInputError,
    NotIsotropicError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from .fock import (
    MODE_CAP,
    FockState,
    dense_ground_state,
    dense_hamiltonian,
    fcm_from_state,
    reconstruct_state,
    reduced_density,
    schmidt_entropy,
)
from .gaussian import (
    Bipartition,
    CovarianceMatrix,
    GroundState,
    QuadraticHamiltonian,
    diagonal_fcm,
    ground_state_fcm,
    haar_orthogonal,
    hamiltonian_to_majorana,
    is_pure,
    isotropic_fcm,
    isotropy_parameter,
    quadrature_indices,
    random_pure_fcm,
    restrict,
)
from .models import bcs_fcm, generate_model, kitaev_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "J2",
    "WilliamsonForm",
    "antisymmetrize",
    "is_orthogonal",
    "j_blocks",
    "lambda_blocks",
    "williamson_form",
    "EntangledPair",
    "ModewiseDecomposition",
    "PairSpectrum",
    "ResidualMode",
    "modewise_decompose",
    "pair_block",
    "pair_spectrum",
    "reconstruction_residual",
    "EntanglementReport",
    "binary_entropy",
    "isotropic_separability",
    "ppt_min_eigenvalue",
    "ppt_pair_entangled",
    "pure_mode_entanglement",
    "two_mode_block_matrix",
    "FermiModewiseError",
    "InvalidInputError",
    "NotIsotropicError",
    "NumericalConsistencyError",
    "ResourceLimitError",
    "MODE_CAP",
    "FockState",
    "dense_ground_state",
    "dense_hamiltonian",
    "fcm_from_state",
    "reconstruct_state",
    "reduced_density",
    "schmidt_entropy",
    "Bipartition",
    "CovarianceMatrix",
    "GroundState",
    "QuadraticHamiltonian",
    "diagonal_fcm",
    "ground_state_fcm",
    "haar_orthogonal",
    "hamiltonian_to_majorana",
    "is_pure",
    "isotropic_fcm",
    "isotropy_parameter",
    "quadrature_indices",
    "random_pure_fcm",
    "restrict",
    "bcs_fcm",
    "generate_model",
    "kitaev_hamiltonian",
    "__version__",
]
