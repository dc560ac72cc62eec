"""Command-line interface.

Exit codes: 0 success, 1 validation failure (bad flags, malformed input,
out-of-range parameters), 2 numerical-consistency failure (non-isotropic
input, failed verification, failed self-checks).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

import numpy as np

from . import serialize
from .canonical import williamson_form
from .decompose import modewise_decompose, pair_spectrum, reconstruction_residual
from .entanglement import isotropic_separability, ppt_pair_entangled, pure_mode_entanglement
from .errors import (
    InvalidInputError,
    NotIsotropicError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from .gaussian import Bipartition, CovarianceMatrix
from .models import MODEL_KINDS, MODEL_PARAMETERS, generate_model
from .verify import run_all

RECONSTRUCTION_TOL = 1e-8
# Most points a --start/--stop/--num sweep may ask for; each one is a model
# build and a decomposition.
MAX_SWEEP_POINTS = 100_000


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _write(path: str | None, writer):
    stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if stdout else open(path, "w") as stream:
        writer(stream)


def _read_fcm(path: str):
    if path == "-":
        return serialize.read_fcm(sys.stdin)
    with open(path) as stream:
        return serialize.read_fcm(stream)


def _model_spec_from_args(args) -> tuple[str, dict]:
    if args.spec is not None:
        _refuse_flags(args, ("kind", *MODEL_PARAMETERS), "--spec replaces the model flags")
        with open(args.spec) as stream:
            try:
                data = json.load(stream)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidInputError(f"malformed model spec JSON: {exc}") from exc
        if not (isinstance(data, dict) and isinstance(data.get("parameters"), dict)
                and "kind" in data):
            raise InvalidInputError(
                'model spec JSON needs an object with keys "kind" and "parameters" (an object)'
            )
        return data["kind"], data["parameters"]
    if args.kind is None:
        raise InvalidInputError("either --kind or --spec is required")
    return args.kind, {k: v for k in MODEL_PARAMETERS if (v := getattr(args, k)) is not None}


def _add_model_flags(parser):
    parser.add_argument("--spec", help="model spec JSON file (in place of the model flags)")
    parser.add_argument("--kind", choices=MODEL_KINDS)
    for name, text in MODEL_PARAMETERS.items():
        parser.add_argument(f"--{name}", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="fermi-modewise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="build a model covariance matrix")
    _add_model_flags(p_generate)
    p_generate.add_argument("--out", help="output JSON path (default stdout)")

    p_williamson = sub.add_parser("williamson", help="canonical form of a covariance matrix")
    p_williamson.add_argument("--input", required=True, help="covariance JSON path ('-' for stdin)")
    p_williamson.add_argument("--out-spectrum", help="eigenvalue CSV path (default stdout)")
    p_williamson.add_argument("--out-transform", help="orthogonal transform JSON path")

    p_decompose = sub.add_parser("decompose", help="modewise decomposition across a bipartition")
    p_decompose.add_argument("--input", required=True)
    p_decompose.add_argument("--partition", required=True, help='e.g. "1,3;2,4" (1-based)')
    p_decompose.add_argument("--out", help="decomposition JSON path (default stdout)")

    p_entropy = sub.add_parser("entropy", help="entanglement of modes of a pure state")
    p_entropy.add_argument("--input", required=True)
    p_entropy.add_argument("--partition", required=True)
    p_entropy.add_argument("--json", action="store_true", help="emit the full report as JSON")

    p_ppt = sub.add_parser("ppt", help="partial-transpose verdicts for pair parameters")
    p_ppt.add_argument("--lambda0", type=float, required=True)
    p_ppt.add_argument("--kappas", required=True, help="comma-separated kappa values")

    p_verify = sub.add_parser("verify", help="run the oracle cross-check battery")
    p_verify.add_argument("--max-modes", type=int, default=6)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=7)

    p_sweep = sub.add_parser("sweep", help="scan a model parameter or cut position")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--param", help="model parameter to sweep (e.g. mu)")
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.add_argument("--start", type=float, help="sweep range start")
    p_sweep.add_argument("--stop", type=float, help="sweep range stop")
    p_sweep.add_argument("--num", type=int, help="number of sweep points")
    p_sweep.add_argument("--cut", type=int, help="fixed cut position (modes 1..cut vs rest)")
    p_sweep.add_argument("--scan-cut", action="store_true", help="sweep the cut position instead")
    p_sweep.add_argument("--out", help="CSV path (default stdout)")
    return parser


def _cmd_generate(args) -> int:
    state = generate_model(*_model_spec_from_args(args))
    _write(args.out, lambda s: serialize.write_fcm(state, s))
    return 0


def _cmd_williamson(args) -> int:
    state = _read_fcm(args.input)
    result = williamson_form(state.matrix)
    _write(args.out_spectrum, lambda s: serialize.write_spectrum_csv(result.lambdas, s))
    if args.out_transform:
        _write(args.out_transform, lambda s: serialize.write_transform(result.orthogonal, s))
    return 0


def _cmd_decompose(args) -> int:
    state = _read_fcm(args.input)
    partition = serialize.parse_partition(args.partition, state.n_modes)
    decomp = modewise_decompose(state, partition)
    residual = reconstruction_residual(decomp, state)
    if residual > RECONSTRUCTION_TOL:
        raise NumericalConsistencyError(
            f"decomposition failed its reconstruction self-check: residual "
            f"{residual:.3e} > {RECONSTRUCTION_TOL:.3e}"
        )
    _write(args.out, lambda s: serialize.write_decomposition(decomp, residual, s))
    return 0


def _cmd_entropy(args) -> int:
    state = _read_fcm(args.input)
    partition = serialize.parse_partition(args.partition, state.n_modes)
    # Not isotropic means not pure; pure_mode_entanglement refuses the rest.
    try:
        spectrum = pair_spectrum(state, partition)
    except NotIsotropicError as exc:
        raise InvalidInputError(
            f"entanglement of modes is defined here for pure states only; {exc}"
        ) from exc
    report = pure_mode_entanglement(spectrum)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=1))
    else:
        print(repr(report.total_modes_entropy))
    return 0


def _cmd_ppt(args) -> int:
    kappas = serialize.parse_float_list(args.kappas)
    if not kappas:
        raise InvalidInputError("--kappas needs at least one value")
    flags = [ppt_pair_entangled(args.lambda0, k) for k in kappas]
    print(
        json.dumps(
            {
                "lambda0": args.lambda0,
                "pairs": [
                    {"kappa": k, "entangled": bool(f)} for k, f in zip(kappas, flags)
                ],
                "separable": not any(flags),
            },
            indent=1,
        )
    )
    return 0


def _cmd_verify(args) -> int:
    results = run_all(max_modes=args.max_modes, trials=args.trials, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 0 if not failed else 2


def _refuse_flags(args, names, reason: str):
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise InvalidInputError(f"{reason}; drop {', '.join(given)}")


def _sweep_values(args) -> list[float]:
    if args.values is not None:
        _refuse_flags(args, ("start", "stop", "num"), "--values replaces the range")
        values = serialize.parse_float_list(args.values)
        if not values:
            raise InvalidInputError("--values needs at least one value")
        return values
    if args.start is None or args.stop is None or args.num is None:
        raise InvalidInputError("sweep needs --values or --start/--stop/--num")
    if not 1 <= args.num <= MAX_SWEEP_POINTS:
        raise InvalidInputError(f"--num must lie in 1..{MAX_SWEEP_POINTS}, got {args.num}")
    return np.linspace(args.start, args.stop, args.num).tolist()


def _sweep_row(state: CovarianceMatrix, cut: int, value: float) -> dict:
    n = state.n_modes
    if not 1 <= cut <= n - 1:
        raise InvalidInputError(f"cut must lie in 1..{n - 1}, got {cut}")
    partition = Bipartition(tuple(range(cut)), tuple(range(cut, n)))
    spectrum = pair_spectrum(state, partition)
    thetas = [p.theta for p in spectrum.pairs]
    entropy = isotropic_separability(spectrum).total_modes_entropy
    return {"value": value, "cut": cut, "thetas": thetas, "entropy": entropy}


def _cmd_sweep(args) -> int:
    kind, parameters = _model_spec_from_args(args)
    rows = []
    if args.scan_cut:
        _refuse_flags(args, ("param", "values", "start", "stop", "num", "cut"),
                      "--scan-cut scans every cut at the given parameters")
        state = generate_model(kind, parameters)
        if state.n_modes < 2:
            raise InvalidInputError(f"--scan-cut needs at least 2 modes, got {state.n_modes}")
        for cut in range(1, state.n_modes):
            rows.append(_sweep_row(state, cut, float(cut)))
    else:
        if args.param is None:
            raise InvalidInputError("sweep needs --param NAME or --scan-cut")
        if args.cut is None:
            raise InvalidInputError("parameter sweeps need a fixed --cut")
        for value in _sweep_values(args):
            state = generate_model(kind, {**parameters, args.param: value})
            rows.append(_sweep_row(state, args.cut, value))
    _write(args.out, lambda s: serialize.write_sweep_csv(rows, s))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "williamson": _cmd_williamson,
    "decompose": _cmd_decompose,
    "entropy": _cmd_entropy,
    "ppt": _cmd_ppt,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


_parser = functools.cache(build_parser)  # argparse keeps no state between parses


def cli_main(argv=None) -> int:
    """Run one command and return its exit code; the parser is built once per process."""
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InvalidInputError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotIsotropicError, NumericalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
