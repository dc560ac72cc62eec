"""Physical model generators: BCS pair products, Kitaev chains, random ensembles."""

from __future__ import annotations

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
    """Open Kitaev chain: chemical potential mu, hopping t, pairing delta; real C and A."""
    if n_sites < 1:
        raise InvalidInputError(f"n_sites must be >= 1, got {n_sites}")
    hopping = -mu * np.eye(n_sites)
    pairing = np.zeros((n_sites, n_sites))
    bond = np.arange(n_sites - 1)
    hopping[bond, bond + 1] = hopping[bond + 1, bond] = -t
    pairing[bond, bond + 1] = delta
    pairing[bond + 1, bond] = -delta
    return QuadraticHamiltonian(hopping, pairing)


def _integer(value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; a float must be integral, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value}")
    return value


# Largest mode count of a model: one 2N x 2N float64 matrix takes 32 N^2 bytes,
# 512 MiB at N = 4096.
MAX_MODEL_MODES = 4096


def _mode_count(value) -> int:
    n = _integer(value)
    if n > MAX_MODEL_MODES:
        raise ValueError(f"expected at most {MAX_MODEL_MODES} modes, got {value!r}")
    return n


def _float_list(value) -> np.ndarray:
    from .serialize import parse_float_list  # not at import: serialize loads json
    values = np.asarray(parse_float_list(value) if isinstance(value, str) else value, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    if not np.isfinite(values).all():
        raise ValueError(f"expected finite values, got {value!r}")
    return values


def _seed(value):
    return None if value is None else _integer(value, 0)


def _kitaev_fcm(n: int, mu: float, t: float, delta: float) -> CovarianceMatrix:
    return ground_state_fcm(kitaev_hamiltonian(n, mu, t, delta)).state


# The model catalog: parameter -> (converter of a flag's text or a spec or sweep
# value, help); kind -> (builder, its parameters in argument order).  Only "seed" is optional.
_PARAMETERS = {
    "thetas": (_float_list, "comma-separated pair angles"),
    "n": (_mode_count, "mode count"),
    "mu": (float, "chemical potential"),
    "t": (float, "hopping amplitude"),
    "delta": (float, "pairing amplitude"),
    "lambda0": (float, "isotropy parameter"),
    "seed": (_seed, "random seed; a fresh state when left out"),
    "lambdas": (_float_list, "comma-separated per-mode eigenvalues"),
}
_MODELS = {
    "bcs": (bcs_fcm, ("thetas",)),
    "kitaev": (_kitaev_fcm, ("n", "mu", "t", "delta")),
    "random-pure": (random_pure_fcm, ("n", "seed")),
    "random-isotropic": (isotropic_fcm, ("n", "lambda0", "seed")),
    "diagonal": (diagonal_fcm, ("lambdas",)),
}
MODEL_KINDS = tuple(_MODELS)
MODEL_PARAMETERS = {name: f"{text} ({', '.join(k for k in _MODELS if name in _MODELS[k][1])})"
                    for name, (_, text) in _PARAMETERS.items()}  # name -> help, with its kinds


def generate_model(kind: str, parameters: dict) -> CovarianceMatrix:
    """Covariance matrix of the model ``kind`` built from ``parameters``.

    Each kind takes the parameters of its ``_MODELS`` entry, ``seed`` may be left
    out (a fresh random state), and every value, a flag's text or a spec or sweep
    value, goes through its ``_PARAMETERS`` converter.  An unknown kind, a missing
    or unknown parameter, a boolean (JSON true or false, alone or in a list), or a
    value its converter rejects raises InvalidInputError.
    """
    if kind not in MODEL_KINDS:  # a tuple, so an unhashable kind from JSON is refused too
        raise InvalidInputError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    builder, names = _MODELS[kind]
    for name in parameters:
        if name not in names:
            raise InvalidInputError(
                f"model kind {kind!r} takes no parameter {name!r}; it takes {', '.join(names)}"
            )
    args = []
    for name in names:
        if name not in parameters and name != "seed":
            raise InvalidInputError(f"missing model parameter {name!r}")
        value = parameters.get(name)
        try:
            if isinstance(value, bool) or (isinstance(value, (list, tuple))
                                           and any(isinstance(v, bool) for v in value)):
                raise TypeError(f"expected numbers, not booleans, got {value!r}")
            args.append(_PARAMETERS[name][0](value))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"model parameter {name!r}: {exc}") from exc
    return builder(*args)
