"""Physical model generators: BCS pair products, Kitaev chains, random ensembles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decompose import pair_block
from .errors import InvalidInputError
from .gaussian import (
    CovarianceMatrix,
    QuadraticHamiltonian,
    diagonal_fcm,
    ground_state_fcm,
    isotropic_fcm,
    random_pure_fcm,
)

MODEL_KINDS = ("bcs", "kitaev", "random-pure", "random-isotropic", "diagonal")


@dataclass
class ModelSpec:
    """Named state/Hamiltonian family plus its parameter map."""

    kind: str
    parameters: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInputError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )


@dataclass
class GeneratedModel:
    """Output of a model generator: the state, and the Hamiltonian when one exists."""

    fcm: CovarianceMatrix
    hamiltonian: Optional[QuadraticHamiltonian] = None
    energy: Optional[float] = None
    degenerate: bool = False


def bcs_fcm(thetas) -> CovarianceMatrix:
    """Product of two-mode squeezed pairs: pair k couples modes 2k and 2k+1.

    Each angle must lie in [0, pi/4] so the pair block carries lam = cos(2t)
    >= 0 and kappa = sin(2t) >= 0; the natural bipartition is even modes
    against odd modes.
    """
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0:
        raise InvalidInputError("thetas must contain at least one angle")
    if np.any(thetas < -1e-12) or np.any(thetas > np.pi / 4 + 1e-12):
        raise InvalidInputError(f"thetas must lie in [0, pi/4], got {thetas.tolist()}")
    blocks = [pair_block(np.cos(2 * t), np.sin(2 * t)) for t in thetas]
    out = np.zeros((4 * thetas.size, 4 * thetas.size))
    for k, block in enumerate(blocks):
        out[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = block
    return CovarianceMatrix(out)


def kitaev_hamiltonian(n_sites: int, mu: float, t: float, delta: float) -> QuadraticHamiltonian:
    """Open Kitaev chain: chemical potential mu, hopping t, pairing delta."""
    if n_sites < 1:
        raise InvalidInputError(f"n_sites must be >= 1, got {n_sites}")
    hopping = -mu * np.eye(n_sites, dtype=complex)
    pairing = np.zeros((n_sites, n_sites), dtype=complex)
    for i in range(n_sites - 1):
        hopping[i, i + 1] = hopping[i + 1, i] = -t
        pairing[i, i + 1] = delta
        pairing[i + 1, i] = -delta
    return QuadraticHamiltonian(hopping, pairing)


def _integer(value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; a float must be integral, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value}")
    return value


def _float_list(value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return values


def _seed(value):
    return None if value is None else _integer(value, 0)


def _read(parameters: dict, name: str, convert, required: bool = True):
    """Model parameter ``name`` passed through ``convert``; None if optional and absent."""
    if name not in parameters:
        if required:
            raise InvalidInputError(f"missing model parameter {name!r}")
        return None
    try:
        return convert(parameters[name])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"model parameter {name!r}: {exc}") from exc


def generate_model(spec: ModelSpec) -> GeneratedModel:
    """Build the covariance matrix (and Hamiltonian where defined) of a model."""
    p = spec.parameters
    if spec.kind == "bcs":
        return GeneratedModel(bcs_fcm(_read(p, "thetas", _float_list)))
    if spec.kind == "kitaev":
        ham = kitaev_hamiltonian(
            _read(p, "n", _integer),
            _read(p, "mu", float),
            _read(p, "t", float),
            _read(p, "delta", float),
        )
        ground = ground_state_fcm(ham)
        return GeneratedModel(ground.fcm, ham, ground.energy, ground.degenerate)
    if spec.kind == "random-pure":
        seed = _read(p, "seed", _seed, required=False)
        return GeneratedModel(random_pure_fcm(_read(p, "n", _integer), seed))
    if spec.kind == "random-isotropic":
        lambda0 = _read(p, "lambda0", float)
        seed = _read(p, "seed", _seed, required=False)
        return GeneratedModel(isotropic_fcm(_read(p, "n", _integer), lambda0, seed))
    if spec.kind == "diagonal":
        return GeneratedModel(diagonal_fcm(_read(p, "lambdas", _float_list)))
    raise InvalidInputError(f"unknown model kind {spec.kind!r}")
