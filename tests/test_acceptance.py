"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
import time

import numpy as np
import pytest

from fermi_modewise import diagonal_fcm, fcm_from_state, is_pure, FockState
from fermi_modewise.cli import cli_main
from fermi_modewise.serialize import fcm_to_dict
from fermi_modewise.verify import (
    check_bcs_roundtrip,
    check_hamiltonian_energy,
    check_isotropic_decomposition,
    check_ppt_threshold,
    check_theorem_and_entropy,
    check_williamson,
)

THEOREM_TIME_BUDGET_S = 120.0


def report(tag: str, result) -> None:
    print(f"[acceptance] {tag}: {result.line()}")
    assert result.passed, result.detail


@pytest.fixture(scope="module")
def theorem_results():
    start = time.time()
    fidelity, entropy = check_theorem_and_entropy(trials=100, max_modes=8, seed=2024)
    elapsed = time.time() - start
    return fidelity, entropy, elapsed


def test_criterion_1_theorem_end_to_end(theorem_results):
    fidelity, _, elapsed = theorem_results
    print(f"[acceptance] criterion-1 runtime: {elapsed:.1f}s (budget {THEOREM_TIME_BUDGET_S}s)")
    report("criterion-1 reconstruction fidelity", fidelity)
    assert elapsed < THEOREM_TIME_BUDGET_S


def test_criterion_2_entropy_identity(theorem_results):
    _, entropy, _ = theorem_results
    report("criterion-2 entropy identity", entropy)


def test_criterion_3_williamson_correctness():
    result = check_williamson(trials=1000, seed=7)
    report("criterion-3 williamson", result)


def test_criterion_4_isotropic_decomposition():
    result = check_isotropic_decomposition(trials=50, max_modes=6, seed=23, max_side=3)
    report("criterion-4 isotropic decomposition", result)


def test_criterion_5_ppt_threshold():
    result = check_ppt_threshold()
    report("criterion-5 ppt threshold", result)


def test_criterion_6_bcs_roundtrip():
    result = check_bcs_roundtrip()
    report("criterion-6 bcs roundtrip", result)


def test_criterion_7_hamiltonian_consistency():
    result = check_hamiltonian_energy(trials=50, max_modes=8, seed=11)
    report("criterion-7 hamiltonian energy", result)


def test_criterion_8_negative_controls(tmp_path, capsys):
    amps = np.zeros(16, dtype=complex)
    amps[0b1100] = amps[0b0011] = 1 / np.sqrt(2)
    non_gaussian_rejected = not is_pure(fcm_from_state(FockState(4, amps)))

    fcm_path = tmp_path / "mixed.json"
    fcm_path.write_text(json.dumps(fcm_to_dict(diagonal_fcm([0.9, 0.3]))))
    code = cli_main(["decompose", "--input", str(fcm_path), "--partition", "1;2"])
    capsys.readouterr()
    cli_flagged = code == 2

    passed = non_gaussian_rejected and cli_flagged
    verdict = "PASS" if passed else "FAIL"
    print(
        f"[acceptance] criterion-8 negative controls: {verdict} "
        f"non-Gaussian purity rejected={non_gaussian_rejected}, "
        f"CLI exit code for non-isotropic decompose={code}"
    )
    assert passed
