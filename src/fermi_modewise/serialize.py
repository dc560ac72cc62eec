"""JSON and CSV formats of the command-line interface.

Covariance matrices travel as ``{"n_modes": N, "matrix": [[...]]}`` with the
2N x 2N matrix row major.  All mode indices in external formats are 1-based;
the library itself is 0-based.  Floats are emitted with Python's shortest
round-trip representation, so read(write(x)) reproduces x bit for bit.  The
files hold the bytes of ``json.dump(..., indent=1)`` (compact for the
Williamson transform) and a final newline, but matrices are written one row at
a time with ``float.__repr__``, the float formatting ``json`` uses, instead of
through ``json``'s pure-Python stream encoder.
"""

from __future__ import annotations

import json
from typing import TextIO

import numpy as np

from .decompose import ModewiseDecomposition
from .errors import InvalidInputError
from .gaussian import Bipartition, CovarianceMatrix


def fcm_to_dict(state: CovarianceMatrix) -> dict:
    return {"n_modes": state.n_modes, "matrix": state.matrix.tolist()}


def fcm_from_dict(data: dict) -> CovarianceMatrix:
    if not isinstance(data, dict) or "n_modes" not in data or "matrix" not in data:
        raise InvalidInputError('covariance JSON needs keys "n_modes" and "matrix"')
    n = data["n_modes"]
    if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
        raise InvalidInputError(f"n_modes must be an integer, got {n!r}")
    try:
        matrix = np.asarray(data["matrix"], dtype=float)
        n = int(n)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed covariance JSON: {exc}") from exc
    if matrix.shape != (2 * n, 2 * n):
        raise InvalidInputError(
            f"matrix shape {matrix.shape} does not match n_modes = {n}"
        )
    return CovarianceMatrix(matrix)


def _write_json(fields: dict, stream: TextIO, indent: int | None = None):
    """Write the object ``fields`` exactly as ``json.dump(fields, stream, indent=indent)``.

    Values that are 2-D float arrays are written one row at a time, so the
    text of no more than one row is held in memory; every other value goes
    through ``json.dumps``.
    """
    sep = ", " if indent is None else ","
    # nl[level] opens a line at that depth: fields at 1, rows at 2, entries at 3
    nl = [""] * 4 if indent is None else ["\n" + " " * (indent * level) for level in range(4)]
    stream.write("{")
    for i, (key, value) in enumerate(fields.items()):
        stream.write((sep if i else "") + nl[1] + json.dumps(key) + ": ")
        if not isinstance(value, np.ndarray):
            stream.write(json.dumps(value, indent=indent).replace("\n", nl[1]))
            continue
        if not len(value):
            stream.write("[]")
            continue
        entry_sep = sep + nl[3]
        for j, row in enumerate(value):
            entries = entry_sep.join(map(float.__repr__, row.tolist()))
            row_text = "[" + nl[3] + entries + nl[2] + "]" if entries else "[]"
            stream.write(("[" if j == 0 else sep) + nl[2] + row_text)
        stream.write(nl[1] + "]")
    stream.write(nl[0] + "}")


def write_fcm(state: CovarianceMatrix, stream: TextIO):
    _write_json({"n_modes": state.n_modes, "matrix": state.matrix}, stream, indent=1)
    stream.write("\n")


def read_fcm(stream: TextIO) -> CovarianceMatrix:
    try:
        data = json.load(stream)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed covariance JSON: {exc}") from exc
    return fcm_from_dict(data)


def parse_partition(text: str, n_modes: int) -> Bipartition:
    """Parse "1,3;2,4"-style 1-based partitions into a 0-based Bipartition."""
    parts = text.split(";")
    if len(parts) != 2:
        raise InvalidInputError(
            f'partition must be two semicolon-separated index lists, got {text!r}'
        )

    def parse_side(chunk: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        try:
            indices = tuple(int(tok) for tok in chunk.split(","))
        except ValueError as exc:
            raise InvalidInputError(f"partition indices must be integers: {chunk!r}") from exc
        for i in indices:
            if not 1 <= i <= n_modes:
                raise InvalidInputError(
                    f"partition index {i} out of range 1..{n_modes}"
                )
        return tuple(i - 1 for i in indices)

    return Bipartition(parse_side(parts[0]), parse_side(parts[1]))


def decomposition_to_dict(decomp: ModewiseDecomposition, residual: float) -> dict:
    """Fields of the decomposition JSON; transformed-mode indices are 1-based.

    The transforms stay arrays, which ``write_decomposition`` writes row by row.
    """
    return {
        "n_modes": decomp.n_modes,
        "lambda0": decomp.lambda0,
        "partition": {
            "a_modes": [i + 1 for i in decomp.partition.a_modes],
            "b_modes": [i + 1 for i in decomp.partition.b_modes],
        },
        "pairs": [
            {
                "lambda": p.lam,
                "kappa": p.kappa,
                "theta": p.theta,
                "a_mode": p.a_mode + 1,
                "b_mode": p.b_mode + 1,
            }
            for p in decomp.pairs
        ],
        "residual_a": [{"mode": r.mode + 1, "lambda": r.lam} for r in decomp.residual_a],
        "residual_b": [{"mode": r.mode + 1, "lambda": r.lam} for r in decomp.residual_b],
        "transform_a": decomp.transform_a,
        "transform_b": decomp.transform_b,
        "reconstruction_residual": residual,
    }


def write_decomposition(decomp: ModewiseDecomposition, residual: float, stream: TextIO):
    _write_json(decomposition_to_dict(decomp, residual), stream, indent=1)
    stream.write("\n")


def write_transform(orthogonal: np.ndarray, stream: TextIO):
    """The Williamson transform as compact ``{"orthogonal": [[...]]}``."""
    _write_json({"orthogonal": orthogonal}, stream)
    stream.write("\n")


def parse_float_list(text: str) -> list[float]:
    """Comma-separated finite floats."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated floats, got {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"expected finite values, got {text!r}")
    return values


def write_spectrum_csv(lambdas, stream: TextIO):
    stream.write("mode,lambda\n")
    for i, lam in enumerate(lambdas, start=1):
        stream.write(f"{i},{float(lam)!r}\n")


def write_sweep_csv(rows: list[dict], stream: TextIO):
    """Sweep table: value, cut, pair count, padded angles, mode entanglement."""
    width = max((len(r["thetas"]) for r in rows), default=0)
    headers = ["value", "cut", "s"] + [f"theta_{k + 1}" for k in range(width)] + ["E_M"]
    stream.write(",".join(headers) + "\n")
    for r in rows:
        thetas = [repr(float(t)) for t in r["thetas"]] + [""] * (width - len(r["thetas"]))
        cells = [repr(float(r["value"])), str(r["cut"]), str(len(r["thetas"]))] + thetas
        cells.append("" if r["entropy"] is None else repr(float(r["entropy"])))
        stream.write(",".join(cells) + "\n")
