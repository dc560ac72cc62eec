import numpy as np
import pytest

from fermi_modewise import (
    Bipartition,
    InvalidInputError,
    bcs_fcm,
    dense_ground_state,
    diagonal_fcm,
    generate_model,
    ground_state_fcm,
    is_pure,
    isotropic_fcm,
    j_blocks,
    kitaev_hamiltonian,
    modewise_decompose,
    pure_mode_entanglement,
    random_pure_fcm,
    schmidt_entropy,
)
from fermi_modewise.models import MODEL_KINDS


def test_bcs_zero_angles_is_vacuum():
    state = bcs_fcm([0.0, 0.0])
    assert np.allclose(state.matrix, j_blocks(4))


def test_bcs_maximal_pair_gives_one_bit():
    state = bcs_fcm([np.pi / 4])
    decomp = modewise_decompose(state, Bipartition((0,), (1,)))
    assert decomp.n_pairs == 1
    assert decomp.pairs[0].theta == pytest.approx(np.pi / 4, abs=1e-12)
    report = pure_mode_entanglement(decomp)
    assert report.total_modes_entropy == pytest.approx(1.0, abs=1e-12)


def test_bcs_angle_validation():
    with pytest.raises(InvalidInputError):
        bcs_fcm([])
    with pytest.raises(InvalidInputError):
        bcs_fcm([1.0])  # beyond pi/4


def test_kitaev_ground_state_checks_out():
    ham = kitaev_hamiltonian(6, 0.5, 1.0, 1.0)
    # The bonds as a loop over sites sets them, bit for bit, in float64.
    hopping = -0.5 * np.eye(6)
    pairing = np.zeros((6, 6))
    for i in range(5):
        hopping[i, i + 1] = hopping[i + 1, i] = -1.0
        pairing[i, i + 1], pairing[i + 1, i] = 1.0, -1.0
    assert (ham.hopping.tobytes(), ham.pairing.tobytes()) == (hopping.tobytes(), pairing.tobytes())
    model = generate_model("kitaev", {"n": 6, "mu": 0.5, "t": 1.0, "delta": 1.0})
    assert is_pure(model)
    state, energy, _ = dense_ground_state(ham)
    assert ground_state_fcm(ham).energy == pytest.approx(energy, abs=1e-8)

    cut = Bipartition((0, 1, 2), (3, 4, 5))
    decomp = modewise_decompose(model, cut)
    modewise = pure_mode_entanglement(decomp).total_modes_entropy
    assert modewise == pytest.approx(schmidt_entropy(state, cut), abs=1e-8)


DELEGATES = {
    "bcs": ({"thetas": [0.3, 0.7]}, lambda: bcs_fcm([0.3, 0.7])),
    "kitaev": (
        {"n": 6, "mu": 0.5, "t": 1.0, "delta": 1.0},
        lambda: ground_state_fcm(kitaev_hamiltonian(6, 0.5, 1.0, 1.0)).state,
    ),
    "random-pure": ({"n": 3, "seed": 4}, lambda: random_pure_fcm(3, 4)),
    "random-isotropic": (
        {"n": 3, "lambda0": 0.4, "seed": 4},
        lambda: isotropic_fcm(3, 0.4, 4),
    ),
    "diagonal": ({"lambdas": [0.2, 0.8]}, lambda: diagonal_fcm([0.2, 0.8])),
}


def test_random_kinds_delegate():
    assert set(DELEGATES) == set(MODEL_KINDS)
    for kind, (parameters, build) in DELEGATES.items():
        assert np.array_equal(generate_model(kind, parameters).matrix, build().matrix), kind
    pure = generate_model("random-pure", {"n": 3, "seed": 4})
    assert is_pure(pure)
    iso = generate_model("random-isotropic", {"n": 3, "lambda0": 0.4, "seed": 4})
    assert np.max(np.abs(iso.matrix @ iso.matrix + 0.16 * np.eye(6))) < 1e-10
    diag = generate_model("diagonal", {"lambdas": [0.2, 0.8]})
    assert diag.n_modes == 2


def test_model_validation_errors():
    with pytest.raises(InvalidInputError):
        generate_model("unknown", {})
    with pytest.raises(InvalidInputError):
        generate_model("kitaev", {"n": 4, "mu": 0.1, "t": 1.0})
    with pytest.raises(InvalidInputError):
        generate_model("random-isotropic", {"n": 3, "lambda0": 1.5})
    with pytest.raises(InvalidInputError):
        generate_model("random-pure", {"n": 0})
