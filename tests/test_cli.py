import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fermi_modewise
from fermi_modewise import (
    cli,
    decompose,
    dense_ground_state,
    diagonal_fcm,
    isotropic_fcm,
    modewise_decompose,
    random_pure_fcm,
    reconstruction_residual,
    verify,
    williamson_form,
)
from fermi_modewise.cli import cli_main
from fermi_modewise.models import generate_model
from fermi_modewise.serialize import (
    decomposition_to_dict,
    fcm_from_dict,
    fcm_to_dict,
    parse_partition,
    write_fcm,
)
from test_decompose import commuting_cross_block_state


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fcm_json_roundtrip_is_exact(tmp_path):
    state = isotropic_fcm(3, 0.77, 99)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(fcm_to_dict(state)))
    loaded = fcm_from_dict(json.loads(path.read_text()))
    assert np.array_equal(loaded.matrix, state.matrix)


def test_partition_parsing_roundtrip():
    part = parse_partition("1,3;2,4", 4)
    assert part.a_modes == (0, 2)
    assert part.b_modes == (1, 3)
    with pytest.raises(Exception):
        parse_partition("1;2;3", 3)


def test_generate_then_decompose_recovers_angles(capsys, tmp_path):
    fcm_path = tmp_path / "bcs.json"
    code, _, _ = run(
        capsys, "generate", "--kind", "bcs", "--thetas", "0.3,0.7", "--out", str(fcm_path)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "decompose", "--input", str(fcm_path), "--partition", "1,3;2,4"
    )
    assert code == 0
    data = json.loads(out)
    thetas = sorted(p["theta"] for p in data["pairs"])
    assert thetas == pytest.approx([0.3, 0.7], abs=1e-10)
    assert data["reconstruction_residual"] < 1e-8
    assert data["partition"]["a_modes"] == [1, 3]


def first_difference(actual: str, expected: str):
    """None for equal texts, else the first differing offset and the text around it.

    Keeps a failure report short where pytest would diff megabytes of JSON.
    """
    if actual == expected:
        return None
    at = len(os.path.commonprefix([actual, expected]))
    return at, actual[max(at - 30, 0):at + 30], expected[max(at - 30, 0):at + 30]


@pytest.mark.parametrize(
    "state, partition",
    [
        (random_pure_fcm(1, 4), "1;"),
        (random_pure_fcm(4, 5), "1,2,3,4;"),
        (random_pure_fcm(4, 5), ";1,2,3,4"),
        (diagonal_fcm([0.5, 0.5]), "1;2"),
        (random_pure_fcm(200, 6), ",".join(map(str, range(1, 200, 2))) + ";"
         + ",".join(map(str, range(2, 201, 2)))),
    ],
    ids=["one-mode", "empty-b", "empty-a", "negative-zero", "n200"],
)
def test_cli_json_files_are_the_bytes_of_json_dump(capsys, tmp_path, state, partition):
    # generate, decompose and williamson --out-transform write what
    # json.dump(..., indent=1) writes, compact for the transform, and a newline
    fcm_path, decomp_path, transform_path = (tmp_path / n for n in ("s.json", "d.json", "t.json"))
    with fcm_path.open("w") as stream:
        write_fcm(state, stream)
    expected = json.dumps(fcm_to_dict(state), indent=1) + "\n"
    assert first_difference(fcm_path.read_text(), expected) is None

    code, _, err = run(capsys, "decompose", "--input", str(fcm_path), "--partition", partition,
                       "--out", str(decomp_path))
    assert code == 0, err
    decomp = modewise_decompose(state, parse_partition(partition, state.n_modes))
    data = decomposition_to_dict(decomp, reconstruction_residual(decomp, state))
    for key in ("transform_a", "transform_b"):
        data[key] = data[key].tolist()
    assert first_difference(decomp_path.read_text(), json.dumps(data, indent=1) + "\n") is None
    written = json.loads(decomp_path.read_text())
    for key, side in zip(("transform_a", "transform_b"), partition.split(";")):
        assert (written[key] == []) == (side == "")
    # pair k sits on mode k of both sides; the residual modes continue the count
    n_pairs = len(written["pairs"])
    assert all(p["a_mode"] == p["b_mode"] for p in written["pairs"])
    for key, side in zip(("residual_a", "residual_b"), partition.split(";")):
        size = len(side.split(",")) if side else 0
        assert [r["mode"] for r in written[key]] == list(range(n_pairs + 1, size + 1))

    code, _, err = run(capsys, "williamson", "--input", str(fcm_path), "--out-transform",
                       str(transform_path))
    assert code == 0, err
    orthogonal = williamson_form(state.matrix).orthogonal.tolist()
    expected = json.dumps({"orthogonal": orthogonal}) + "\n"
    assert first_difference(transform_path.read_text(), expected) is None


def test_cli_generate_then_read_is_bit_exact_at_n200(capsys, tmp_path):
    path = tmp_path / "state.json"
    argv = ["--kind", "random-isotropic", "--n", "200", "--lambda0", "0.9", "--seed", "12"]
    code, _, err = run(capsys, "generate", *argv, "--out", str(path))
    assert code == 0, err
    loaded = fcm_from_dict(json.loads(path.read_text()))
    expected = generate_model("random-isotropic", {"n": 200, "lambda0": 0.9, "seed": 12})
    assert np.array_equal(loaded.matrix, expected.matrix)


def test_write_fcm_holds_about_one_row_in_memory():
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    state = random_pure_fcm(200, 7)
    sink = Sink()
    tracemalloc.start()
    try:
        write_fcm(state, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_size = sink.size / state.matrix.shape[0]
    # about 7 rows' worth here; the whole text (and its list form) is 400 rows
    assert peak < 16 * row_size


@pytest.mark.parametrize(
    "state, partition",
    [
        (isotropic_fcm(4, 1 - 3e-9, 3), "1,2;3,4"),
        (isotropic_fcm(4, 0.5, 3), "1,2;3,4"),
        (diagonal_fcm([0.9, 0.3]), "1;2"),
    ],
    ids=["almost-pure", "isotropic-mixed", "not-isotropic"],
)
def test_cli_entropy_refuses_states_whose_decomposition_is_not_pure(
        capsys, tmp_path, state, partition):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(fcm_to_dict(state)))
    code, _, err = run(capsys, "entropy", "--input", str(path), "--partition", partition)
    assert code == 1
    assert err.startswith("error:") and "pure states only" in err


def test_cli_entropy_takes_purity_from_the_decomposition(capsys, tmp_path):
    # |lambda0 - 1| = 3e-9 passes max|M^2 + 1| <= 1e-8 but not the 1e-9
    # purity test of the decomposition that entropy reports on
    path = tmp_path / "state.json"
    path.write_text(json.dumps(fcm_to_dict(isotropic_fcm(4, 1 - 3e-9, 3))))
    code, out, _ = run(capsys, "decompose", "--input", str(path), "--partition", "1,2;3,4")
    assert code == 0
    assert abs(json.loads(out)["lambda0"] - 1) > 1e-9
    path.write_text(json.dumps(fcm_to_dict(isotropic_fcm(4, 1 - 3e-10, 3))))
    code, out, _ = run(capsys, "entropy", "--input", str(path), "--partition", "1,2;3,4")
    assert code == 0


def test_cli_ppt_small_lambda0_all_separable(capsys):
    code, out, _ = run(capsys, "ppt", "--lambda0", "0.3", "--kappas", "0.1,0.2")
    assert code == 0
    data = json.loads(out)
    assert data["separable"] is True
    assert [p["entangled"] for p in data["pairs"]] == [False, False]


def test_cli_ppt_mixed_flags(capsys):
    code, out, _ = run(capsys, "ppt", "--lambda0", "0.9", "--kappas", "0.05,0.2")
    assert code == 0
    data = json.loads(out)
    assert [p["entangled"] for p in data["pairs"]] == [False, True]
    assert data["separable"] is False


def test_cli_entropy(capsys, tmp_path):
    fcm_path = tmp_path / "pair.json"
    run(capsys, "generate", "--kind", "bcs", "--thetas", "0.785398163397448", "--out", str(fcm_path))
    code, out, _ = run(capsys, "entropy", "--input", str(fcm_path), "--partition", "1;2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-10)


def test_cli_entropy_json_emits_the_report_fields_in_order(capsys, tmp_path):
    fcm_path = tmp_path / "pairs.json"
    run(capsys, "generate", "--kind", "bcs", "--thetas", "0.3,0.7", "--out", str(fcm_path))
    code, out, _ = run(capsys, "entropy", "--input", str(fcm_path), "--partition", "1,3;2,4",
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["pair_entropies", "total_modes_entropy", "pair_npt_flags", "separable"]
    assert len(report["pair_entropies"]) == 2
    assert report["pair_npt_flags"] == [True, True] and report["separable"] is False


def test_cli_williamson_spectrum(capsys, tmp_path):
    fcm_path = tmp_path / "diag.json"
    state = diagonal_fcm([0.9, 0.4])
    fcm_path.write_text(json.dumps(fcm_to_dict(state)))
    transform_path = tmp_path / "transform.json"
    code, out, _ = run(
        capsys,
        "williamson",
        "--input",
        str(fcm_path),
        "--out-transform",
        str(transform_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,lambda"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.9, 0.4], abs=1e-12)
    transform = json.loads(transform_path.read_text())
    assert np.asarray(transform["orthogonal"]).shape == (4, 4)


def test_cli_exit_codes(capsys, tmp_path):
    # unknown flag -> validation failure
    code, _, err = run(capsys, "generate", "--bogus")
    assert code == 1

    # non-isotropic state -> numerical-consistency failure (exit 2)
    fcm_path = tmp_path / "mixed.json"
    fcm_path.write_text(json.dumps(fcm_to_dict(diagonal_fcm([0.9, 0.3]))))
    code, _, err = run(capsys, "decompose", "--input", str(fcm_path), "--partition", "1;2")
    assert code == 2
    assert "isotropic" in err

    # malformed input -> validation failure
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, _ = run(capsys, "decompose", "--input", str(bad), "--partition", "1;2")
    assert code == 1

    # missing file
    code, _, _ = run(capsys, "entropy", "--input", str(tmp_path / "nope.json"), "--partition", "1;2")
    assert code == 1

    # bcs angle out of range
    code, _, _ = run(capsys, "generate", "--kind", "bcs", "--thetas", "2.0")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--input", "nan.json", "--partition", "1;2"],
        ["generate", "--kind", "kitaev", "--n", "4", "--mu", "nan", "--t", "1", "--delta", "1"],
        ["generate", "--kind", "bcs", "--thetas", "0.3", "--out", "."],
        ["generate", "--spec", "bad_spec.json"],
        ["generate", "--spec", "number_spec.json"],
        ["generate", "--spec", "number_parameters_spec.json"],
        ["verify", "--max-modes", "1", "--trials", "1"],
        ["verify", "--trials", "0"],
        ["ppt", "--lambda0", "0.5", "--kappas", "nan"],
        ["decompose", "--input", "n_modes_text.json", "--partition", "1;2"],
        ["decompose", "--input", "ragged.json", "--partition", "1;2"],
        ["decompose", "--input", "matrix_text.json", "--partition", "1;2"],
        ["generate", "--spec", "mu_text_spec.json"],
        ["generate", "--spec", "thetas_number_spec.json"],
        ["generate", "--spec", "lambdas_text_spec.json"],
        ["generate", "--spec", "seed_text_spec.json"],
        ["generate", "--kind", "random-pure", "--n", "3", "--seed", "-1"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "n", "--values", "2.5", "--cut", "1"],
        ["williamson", "--input", "n_modes_fraction.json"],
        ["williamson", "--input", "n_modes_bool.json"],
        ["williamson", "--input", "n_modes_huge.json"],
        ["generate", "--kind", "diagonal", "--lambdas", ""],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "foo", "--values", "1,2", "--cut", "2"],
        ["sweep", "--kind", "random-pure", "--n", "4", "--seed", "1",
         "--param", "mu", "--values", "1", "--cut", "2"],
        ["generate", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--seed", "3"],
        ["generate", "--spec", "unknown_key_spec.json"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "foo", "--values", "", "--cut", "2"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "foo", "--values", "", "--cut", "99"],
        ["sweep", "--kind", "random-pure", "--n", "3", "--seed", "1",
         "--param", "n", "--values", "1e300", "--cut", "1"],
        ["generate", "--spec", "n_huge_spec.json"],
        ["ppt", "--lambda0", "0.5", "--kappas", ""],
        ["ppt", "--lambda0", "0.5", "--kappas", ","],
        ["verify", "--seed", "-1", "--max-modes", "2", "--trials", "1"],
        ["verify", "--max-modes", "13"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--scan-cut", "--param", "mu", "--values", "1,2,3", "--cut", "9"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "mu", "--values", "1", "--start", "0", "--stop", "1", "--num", "3",
         "--cut", "2"],
        ["sweep", "--kind", "random-pure", "--n", "1", "--seed", "1", "--scan-cut"],
        ["sweep", "--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1",
         "--param", "mu", "--start", "0", "--stop", "1", "--num", "1000000000000",
         "--cut", "2"],
    ],
    ids=["nan-covariance", "nan-parameter", "out-is-directory", "malformed-spec",
         "spec-not-object", "spec-parameters-not-object", "verify-one-mode",
         "verify-no-trials", "nan-kappa", "n-modes-not-a-number", "ragged-matrix",
         "matrix-not-a-list", "spec-mu-not-a-number", "spec-thetas-not-a-list",
         "spec-lambdas-not-numbers", "spec-seed-not-a-number", "negative-seed",
         "sweep-fractional-mode-count", "n-modes-fractional", "n-modes-bool",
         "n-modes-not-finite", "diagonal-no-lambdas", "sweep-unknown-param",
         "sweep-param-of-another-kind", "flag-the-kind-does-not-take",
         "spec-key-the-kind-does-not-take", "sweep-no-values", "sweep-no-values-cut-out-of-range",
         "sweep-mode-count-too-large", "spec-mode-count-too-large", "ppt-no-kappas",
         "ppt-only-a-comma", "verify-negative-seed", "verify-above-mode-cap",
         "sweep-scan-cut-with-sweep-flags", "sweep-values-and-range", "sweep-scan-cut-one-mode",
         "sweep-num-too-large"],
)
def test_cli_bad_input_exits_1_without_traceback(capsys, tmp_path, monkeypatch, argv):
    data = fcm_to_dict(diagonal_fcm([1.0, 1.0]))
    data["matrix"][0][1] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(data))
    (tmp_path / "bad_spec.json").write_text('{"kind": ')
    (tmp_path / "number_spec.json").write_text("5")
    (tmp_path / "number_parameters_spec.json").write_text('{"kind": "bcs", "parameters": 5}')
    two_modes = fcm_to_dict(diagonal_fcm([1.0, 1.0]))
    for name, key, value in [("n_modes_text", "n_modes", "abc"),
                             ("ragged", "matrix", [[0.0, 1.0], [-1.0]]),
                             ("matrix_text", "matrix", "xy"),
                             ("n_modes_fraction", "n_modes", 2.5)]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**two_modes, key: value}))
    one_mode = fcm_to_dict(diagonal_fcm([1.0]))
    (tmp_path / "n_modes_bool.json").write_text(json.dumps({**one_mode, "n_modes": True}))
    (tmp_path / "n_modes_huge.json").write_text(
        json.dumps(two_modes).replace('"n_modes": 2', '"n_modes": 1e400')
    )
    for name, kind, parameters in [
        ("mu_text", "kitaev", {"n": 4, "mu": "x", "t": 1, "delta": 1}),
        ("thetas_number", "bcs", {"thetas": 5}),
        ("lambdas_text", "diagonal", {"lambdas": "ab"}),
        ("seed_text", "random-pure", {"n": 3, "seed": "abc"}),
        ("unknown_key", "bcs", {"thetas": [0.3], "n": 2}),
        ("n_huge", "random-pure", {"n": 1e300, "seed": 1}),
    ]:
        spec = {"kind": kind, "parameters": parameters}
        (tmp_path / f"{name}_spec.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["generate"],
    ["sweep", "--param", "mu", "--values", "1", "--cut", "2"],
    ["sweep", "--scan-cut"],
], ids=["generate", "sweep", "sweep-scan-cut"])
def test_cli_overflowing_coupling_is_one_error_line_without_a_warning(capsys, command):
    # delta = 1e308 overflows the sums of the Majorana coupling blocks
    chain = ["--kind", "kitaev", "--n", "4", "--mu", "1", "--t", "1", "--delta", "1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command[0], *chain, *command[1:])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: matrix has non-finite entries"]
    assert [str(w.message) for w in caught] == []


OVERFLOWING_MATRICES = {
    "chiral": [[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0, 0, 0, 0.5], [0, 0, -0.5, 0]],
    "non-chiral": [[0, 1e308, 1e-3, 0], [-1e308, 0, 0, 0], [-1e-3, 0, 0, 0.5], [0, 0, -0.5, 0]],
}


@pytest.mark.parametrize("command", [
    ["entropy", "--partition", "1;2"], ["decompose", "--partition", "1;2"], ["williamson"],
], ids=["entropy", "decompose", "williamson"])
@pytest.mark.parametrize("kind", sorted(OVERFLOWING_MATRICES))
def test_cli_overflowing_covariance_is_one_error_line_without_a_warning(
        capsys, tmp_path, kind, command):
    # (M - M^T) / 2 overflows to +-inf entries
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_modes": 2, "matrix": OVERFLOWING_MATRICES[kind]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: covariance matrix entries overflow to non-finite values"]
    assert [str(w.message) for w in caught] == []


def test_cli_sweep_cut_scan_builds_the_model_once(capsys, monkeypatch):
    calls = []

    def counting_generate_model(kind, parameters):
        calls.append((kind, parameters))
        return generate_model(kind, parameters)

    monkeypatch.setattr(cli, "generate_model", counting_generate_model)
    code, out, _ = run(
        capsys, "sweep", "--kind", "random-pure", "--n", "6", "--seed", "3", "--scan-cut"
    )
    assert code == 0
    assert len(calls) == 1
    assert len(out.strip().splitlines()) == 1 + 5  # header, cuts 1..5


def test_cli_sweep_and_entropy_read_values_only(capsys, tmp_path, monkeypatch):
    # sweep rows and entropy need no transforms; decompose writes them
    calls = []

    def counting_decompose(state, partition):
        calls.append(partition)
        return modewise_decompose(state, partition)

    for module in (cli, decompose):
        monkeypatch.setattr(module, "modewise_decompose", counting_decompose)
    chain = ["--kind", "kitaev", "--n", "6", "--mu", "0.5", "--t", "1", "--delta", "1"]
    path = tmp_path / "chain.json"
    for argv in (["sweep", *chain, "--scan-cut"],
                 ["sweep", *chain, "--param", "mu", "--values", "0.5,3", "--cut", "3"],
                 ["generate", *chain, "--out", str(path)],
                 ["entropy", "--input", str(path), "--partition", "1,2;3,4,5,6"]):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    code, _, _ = run(capsys, "decompose", "--input", str(path), "--partition", "1,2;3,4,5,6")
    assert code == 0
    assert len(calls) == 1


def test_cli_entropy_of_inconsistent_cross_block_exits_2(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(fcm_to_dict(commuting_cross_block_state())))
    code, out, err = run(capsys, "entropy", "--input", str(path), "--partition", "1;2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "commuting with J2" in err


def test_cli_sweep_cut_scan(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--kind",
        "kitaev",
        "--n",
        "4",
        "--mu",
        "0.5",
        "--t",
        "1.0",
        "--delta",
        "1.0",
        "--scan-cut",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["value", "cut", "s"]
    assert header[-1] == "E_M"
    assert len(lines) == 4  # cuts 1..3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[-1]) >= 0.0


def test_cli_sweep_parameter(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--kind",
        "kitaev",
        "--n",
        "4",
        "--mu",
        "0.0",
        "--t",
        "1.0",
        "--delta",
        "1.0",
        "--param",
        "mu",
        "--start",
        "0.0",
        "--stop",
        "2.0",
        "--num",
        "3",
        "--cut",
        "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == pytest.approx([0.0, 1.0, 2.0])


def test_cli_sweep_determinism(capsys):
    argv = [
        "sweep", "--kind", "random-pure", "--n", "4", "--seed", "3", "--scan-cut",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second


def test_cli_shared_parser_leaks_no_state_between_calls(capsys):
    # cli_main reuses one parser per process: a failed parse and a parameter
    # sweep must leave nothing that the next call reads, so a --scan-cut
    # without --cut still passes the flag refusal and prints what a fresh
    # process prints.
    chain = ["--kind", "kitaev", "--n", "6", "--mu", "0.5", "--t", "1", "--delta", "1"]
    assert run(capsys, "sweep", *chain, "--no-such-flag")[0] == 1
    assert run(capsys, "sweep", *chain, "--param", "mu", "--values", "0.5", "--cut", "2")[0] == 0
    code, out, err = run(capsys, "sweep", *chain, "--scan-cut")
    assert (code, err) == (0, "")
    package_root = str(Path(fermi_modewise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "fermi_modewise.cli", "sweep", *chain, "--scan-cut"],
                           env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                           timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


def test_cli_generate_from_spec_json(capsys, tmp_path):
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps({"kind": "diagonal", "parameters": {"lambdas": [1.0, 1.0]}}))
    code, out, _ = run(capsys, "generate", "--spec", str(spec_path))
    assert code == 0
    data = json.loads(out)
    assert data["n_modes"] == 2


VERIFY_ROW = re.compile(r"(.+) = (\S+) \(bound (\S+), margin (\S+)\)")


def assert_verify_passed(out):
    """11 PASS lines whose rows each read margin = bound - value >= 0, then 11/11."""
    # the oracle bench workload takes any "FAIL" in verify's output as a failed round
    assert "FAIL" not in out
    lines = out.strip().splitlines()
    assert len(lines) == 12 and lines[-1] == "11/11 suites passed"
    for line in lines[:-1]:
        assert line.startswith("PASS ")
        cells = line.split(": ", 1)[1].split("; ")
        rows = [m.groups() for cell in cells if (m := VERIFY_ROW.fullmatch(cell))]
        assert rows and len(rows) >= len(cells) - 1, line  # every cell a row but one note
        for _, value, bound, margin in rows:
            if bound.isdigit():  # a count: printed as integers, margin exact
                assert int(margin) == int(bound) - int(value) >= 0, line
            else:
                assert float(margin) == pytest.approx(float(bound) - float(value), rel=1e-2)
                assert float(margin) >= 0, line


def test_cli_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-modes", "4", "--trials", "4", "--seed", "7")
    assert code == 0
    assert_verify_passed(out)


def test_cli_verify_two_modes(capsys):
    code, out, _ = run(capsys, "verify", "--max-modes", "2", "--trials", "1")
    assert code == 0
    assert_verify_passed(out)


def test_cli_verify_nan_measurement_fails(capsys, monkeypatch):
    # one NaN energy among the trials must fail its suite, not vanish in a running max
    exact, calls = verify.ground_state_fcm, []

    def nan_first_energy(ham):
        calls.append(ham)
        ground = exact(ham)
        return ground._replace(energy=float("nan")) if len(calls) == 1 else ground

    monkeypatch.setattr(verify, "ground_state_fcm", nan_first_energy)
    code, out, _ = run(capsys, "verify", "--max-modes", "3", "--trials", "2")
    lines = out.strip().splitlines()
    assert code == 2
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL ground-state-energy"
    ]
    assert "max |E_fcm - E_dense| = nan" in out
    assert lines[-1] == "10/11 suites passed"


def test_chiral_commands_run_without_scipy(tmp_path):
    script = """
import contextlib, io, json, sys
import numpy as np
from fermi_modewise import dense_ground_state, random_pure_fcm, williamson_form
from fermi_modewise.cli import cli_main
from fermi_modewise.verify import random_quadratic_hamiltonian

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(list(argv)) == 0, argv
    return out.getvalue()

state = sys.argv[1]
run("generate", "--kind", "kitaev", "--n", "12", "--mu", "0.5", "--t", "1", "--delta", "1", "--out", state)
run("sweep", "--kind", "kitaev", "--n", "16", "--mu", "0.5", "--t", "1", "--delta", "1",
    "--param", "mu", "--values", "0.5", "--cut", "8")
entropy = run("entropy", "--input", state, "--partition", "1,2,3,4,5,6;7,8,9,10,11,12")
run("williamson", "--input", state)
run("decompose", "--input", state, "--partition", "1,2,3,4,5,6;7,8,9,10,11,12")
assert "scipy" not in sys.modules, [m for m in sys.modules if m.startswith("scipy")][:5]
form = williamson_form(random_pure_fcm(5, 3).matrix)
ground = dense_ground_state(random_quadratic_hamiltonian(4, np.random.default_rng(4)))
print(json.dumps([entropy, form.lambdas.tolist(), form.orthogonal.tolist(), ground.energy,
                  ground.state.amplitudes.real.tolist(), ground.state.amplitudes.imag.tolist()]))
"""
    package_root = str(Path(fermi_modewise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    state = tmp_path / "kitaev.json"
    fresh = subprocess.run([sys.executable, "-c", script, str(state)], env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    entropy, lambdas, orthogonal, energy, real, imag = json.loads(fresh.stdout)
    assert float(entropy) > 0.0
    form = williamson_form(random_pure_fcm(5, 3).matrix)
    ground = dense_ground_state(verify.random_quadratic_hamiltonian(4, np.random.default_rng(4)))
    assert lambdas == form.lambdas.tolist() and orthogonal == form.orthogonal.tolist()
    assert energy == ground.energy
    assert real == ground.state.amplitudes.real.tolist() and imag == ground.state.amplitudes.imag.tolist()
