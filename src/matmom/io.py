"""Problem, measure, and matrix parameter files.

All files are JSON.  Complex entries are [re, im] pairs and matrices are
row-major nested lists, which keeps the format unambiguous across
ecosystems.  Every float is written in scientific notation with 17
significant digits, so write/read round-trips are lossless for doubles and
outputs are reproducible byte for byte.

Problem file::

    {"a": ..., "b": ..., "N": ..., "moments": [M0, M1, ...]}

Measure file::

    {"a": ..., "b": ..., "N": ..., "atoms": [{"x": ..., "W": M}, ...]}

Matrix parameter file::

    {"matrix": M}

where each M is a list of rows and each entry is [re, im].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import require_hermitian
from .moments import DiscreteMatrixMeasure, MomentSequence, measure_from_atoms

# Hermitian symmetry required of matrices arriving from files.
FILE_HERM_TOL = 1e-10


class FileFormatError(ValidationError):
    """A file could not be parsed or fails the format invariants."""


def format_float(x: float) -> str:
    """A float in scientific notation with 17 significant digits."""
    return f"{float(x):.16e}"


def _dump(obj) -> str:
    """JSON text with floats in 17-significant-digit scientific notation."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def pairs_to_matrix(data, n: int, where: str) -> np.ndarray:
    """Parse a row-major nested list of [re, im] pairs into an n x n matrix."""
    if not isinstance(data, list) or len(data) != n:
        raise FileFormatError(f"{where}: expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{where}[{i}]: expected {n} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(v, (int, float)) for v in entry)):
                raise FileFormatError(f"{where}[{i}][{j}]: expected an [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    return out


def _load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return doc


def _get(doc: dict, key: str, types, path) -> object:
    if key not in doc:
        raise FileFormatError(f"{path}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise FileFormatError(f"{path}: key {key!r} has wrong type")
    return value


def read_problem(path) -> MomentSequence:
    """Parse a problem file into a moment sequence."""
    doc = _load_json(path)
    a = float(_get(doc, "a", (int, float), path))
    b = float(_get(doc, "b", (int, float), path))
    n = int(_get(doc, "N", int, path))
    raw = _get(doc, "moments", list, path)
    if n < 1:
        raise FileFormatError(f"{path}: N must be a positive integer")
    if not raw:
        raise FileFormatError(f"{path}: moments array must be nonempty")
    if not a < b:
        raise FileFormatError(f"{path}: requires a < b")
    moments = []
    for i, m in enumerate(raw):
        mat = pairs_to_matrix(m, n, f"{path}: moments[{i}]")
        try:
            moments.append(require_hermitian(mat, FILE_HERM_TOL, name=f"moments[{i}]"))
        except ValidationError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    return MomentSequence(a, b, tuple(moments))


def write_problem(path, seq: MomentSequence) -> None:
    doc = {
        "a": seq.a,
        "b": seq.b,
        "N": seq.N,
        "moments": [matrix_to_pairs(s) for s in seq.moments],
    }
    Path(path).write_text(_dump(doc) + "\n")


def read_measure(path) -> DiscreteMatrixMeasure:
    """Parse a measure file into a canonical discrete matrix measure."""
    doc = _load_json(path)
    a = float(_get(doc, "a", (int, float), path))
    b = float(_get(doc, "b", (int, float), path))
    n = int(_get(doc, "N", int, path))
    raw = _get(doc, "atoms", list, path)
    positions = []
    weights = []
    for i, atom in enumerate(raw):
        if not isinstance(atom, dict):
            raise FileFormatError(f"{path}: atoms[{i}] must be an object")
        positions.append(float(_get(atom, "x", (int, float), f"{path}: atoms[{i}]")))
        weights.append(pairs_to_matrix(
            _get(atom, "W", list, f"{path}: atoms[{i}]"), n, f"{path}: atoms[{i}].W"
        ))
    try:
        return measure_from_atoms(
            a, b, np.array(positions),
            np.stack(weights) if weights else np.zeros((0, n, n)), N=n,
        )
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_measure(path, measure: DiscreteMatrixMeasure) -> None:
    doc = {
        "a": measure.a,
        "b": measure.b,
        "N": measure.N,
        "atoms": [
            {"x": float(measure.positions[i]),
             "W": matrix_to_pairs(measure.weights[i])}
            for i in range(measure.num_atoms)
        ],
    }
    Path(path).write_text(_dump(doc) + "\n")


def read_matrix_param(path) -> np.ndarray:
    """Parse a square matrix parameter file ({"matrix": rows of [re, im]})."""
    doc = _load_json(path)
    raw = _get(doc, "matrix", list, path)
    if not raw or not isinstance(raw[0], list):
        raise FileFormatError(f"{path}: matrix must be a nonempty list of rows")
    return pairs_to_matrix(raw, len(raw), f"{path}: matrix")
