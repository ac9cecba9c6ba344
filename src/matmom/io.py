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

import functools
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import require_hermitian_stack
from .moments import (
    DiscreteMatrixMeasure,
    MomentSequence,
    _check_interval,
    _empty_weights,
    measure_from_atoms,
)

# Hermitian symmetry required of matrices arriving from files.
FILE_HERM_TOL = 1e-10


class FileFormatError(ValidationError):
    """A file could not be parsed or fails the format invariants."""


def format_float(x: float) -> str:
    """A float in scientific notation with 17 significant digits."""
    return f"{float(x):.16e}"


@functools.lru_cache(maxsize=32)
def _matrix_template(n: int) -> str:
    """%-template of an n x n matrix as rows of [re, im] pairs.

    ``"%.16e" % x`` gives the characters of :func:`format_float`, so one
    ``%`` fills a whole matrix with the file's float notation.
    """
    row = "[" + ", ".join(["[%.16e, %.16e]"] * n) + "]"
    return "[" + ", ".join([row] * n) + "]"


def _reals(stack) -> np.ndarray:
    """A (k, n, n) complex stack as (k, n, 2n) floats: re, im of each entry."""
    return np.ascontiguousarray(stack, dtype=complex).view(float)


def _fill_list(item: str, values: np.ndarray) -> str:
    """JSON list of one %-template ``item`` per row of ``values``, filled in order."""
    return ("[" + ", ".join([item] * len(values)) + "]") % tuple(values.ravel().tolist())


def _file_float(value, where: str) -> float:
    """A JSON number as a float.  JSON integers have no bound, so one beyond
    the double range is a fault of the file."""
    try:
        return float(value)
    except OverflowError:
        raise FileFormatError(
            f"{where}: integer of {len(str(abs(value)))} digits exceeds the double range"
        ) from None


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
            out[i, j] = complex(*(_file_float(v, f"{where}[{i}][{j}]") for v in entry))
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
    except (ValueError, RecursionError) as exc:
        # an integer literal longer than Python's limit for converting text,
        # or arrays and objects nested deeper than the parser's recursion
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return doc


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a failure is the file's fault, as on reading."""
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _get(doc: dict, key: str, types, path) -> object:
    if key not in doc:
        raise FileFormatError(f"{path}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise FileFormatError(f"{path}: key {key!r} has wrong type")
    return value


def _get_float(doc: dict, key: str, path) -> float:
    return _file_float(_get(doc, key, (int, float), path), f"{path}: key {key!r}")


def _parse_stack(raw: list, n: int) -> np.ndarray | None:
    """All matrices of ``raw`` as one (k, n, n) complex array, or None.

    One ``np.array`` call parses a well-formed list.  It is accepted only
    with shape (k, n, n, 2) and JSON numbers (bools included) as entries,
    the input :func:`pairs_to_matrix` accepts.  None means a malformed
    entry or an integer too large for int64; the caller then parses entry
    by entry, which locates a fault and converts big integers.
    """
    try:
        arr = np.array(raw)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.shape != (len(raw), n, n, 2) or arr.dtype.kind not in "biuf":
        return None
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _file_hermitian(stack: np.ndarray, path, name: str = "moments[{}]") -> np.ndarray:
    """:func:`require_hermitian_stack` at ``FILE_HERM_TOL``, failing as a
    fault of the file ``path``."""
    try:
        return require_hermitian_stack(stack, FILE_HERM_TOL, name)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read_problem(path) -> MomentSequence:
    """Parse a problem file into a moment sequence."""
    doc = _load_json(path)
    a = _get_float(doc, "a", path)
    b = _get_float(doc, "b", path)
    n = int(_get(doc, "N", int, path))
    raw = _get(doc, "moments", list, path)
    if n < 1:
        raise FileFormatError(f"{path}: N must be a positive integer")
    if not raw:
        raise FileFormatError(f"{path}: moments array must be nonempty")
    if not a < b:
        raise FileFormatError(f"{path}: requires a < b")
    stack = _parse_stack(raw, n)
    if stack is not None:
        stack = _file_hermitian(stack, path)
    else:
        # entry by entry, so that the first fault in file order is reported
        stack = np.concatenate([
            _file_hermitian(pairs_to_matrix(m, n, f"{path}: moments[{i}]")[None],
                            path, f"moments[{i}]")
            for i, m in enumerate(raw)])
    # the stack is checked finite and Hermitian, and symmetrized: only the
    # endpoints are left to MomentSequence's rule
    a, b = _check_interval(a, b)
    return MomentSequence._trusted(a, b, stack)


def write_problem(path, seq: MomentSequence) -> None:
    moments = _fill_list(_matrix_template(seq.N), _reals(seq.moments))
    _write_text(path, f'{{"a": {format_float(seq.a)}, "b": {format_float(seq.b)}, '
                      f'"N": {int(seq.N)}, "moments": {moments}}}\n')


def read_measure(path) -> DiscreteMatrixMeasure:
    """Parse a measure file into a canonical discrete matrix measure."""
    doc = _load_json(path)
    a = _get_float(doc, "a", path)
    b = _get_float(doc, "b", path)
    n = int(_get(doc, "N", int, path))
    raw = _get(doc, "atoms", list, path)
    try:
        empty = _empty_weights(n)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    weights = _parse_stack(
        [atom.get("W") if isinstance(atom, dict) else None for atom in raw], n)
    # without a stack, weights are parsed entry by entry in file order below
    positions = []
    parsed = []
    for i, atom in enumerate(raw):
        if not isinstance(atom, dict):
            raise FileFormatError(f"{path}: atoms[{i}] must be an object")
        positions.append(_get_float(atom, "x", f"{path}: atoms[{i}]"))
        if weights is None:
            parsed.append(pairs_to_matrix(
                _get(atom, "W", list, f"{path}: atoms[{i}]"), n, f"{path}: atoms[{i}].W"
            ))
    if weights is None:
        weights = np.stack(parsed) if parsed else empty
    try:
        return measure_from_atoms(a, b, np.array(positions), weights, N=n)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_measure(path, measure: DiscreteMatrixMeasure) -> None:
    k = measure.num_atoms
    n = measure.N
    atom = '{"x": %.16e, "W": ' + _matrix_template(n) + "}"
    values = np.concatenate(
        (np.asarray(measure.positions, dtype=float).reshape(k, 1),
         _reals(measure.weights).reshape(k, 2 * n * n)), axis=1)
    _write_text(path, f'{{"a": {format_float(measure.a)}, "b": {format_float(measure.b)}, '
                      f'"N": {int(n)}, "atoms": {_fill_list(atom, values)}}}\n')


def read_matrix_param(path) -> np.ndarray:
    """Parse a square matrix parameter file ({"matrix": rows of [re, im]})."""
    doc = _load_json(path)
    raw = _get(doc, "matrix", list, path)
    if not raw or not isinstance(raw[0], list):
        raise FileFormatError(f"{path}: matrix must be a nonempty list of rows")
    return pairs_to_matrix(raw, len(raw), f"{path}: matrix")
