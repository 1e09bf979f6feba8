"""Matrix JSON files: {"name", "rows", "cols", "data"} with row-major data.

Values are written with the ``%.17g`` format, which carries enough decimal
digits to reproduce every binary64 value exactly, so save/load round-trips
are bit-exact and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix

__all__ = ["dumps_matrix", "save_matrix", "load_matrix"]


def dumps_matrix(name: str, m: np.ndarray) -> str:
    # Python floats format faster than numpy scalars, with the same digits
    values = ", ".join(map("{:.17g}".format, m.ravel(order="C").tolist()))
    return (
        f'{{"name": {json.dumps(name)}, "rows": {m.shape[0]}, '
        f'"cols": {m.shape[1]}, "data": [{values}]}}\n'
    )


def save_matrix(path, name: str, m: np.ndarray) -> None:
    Path(path).write_text(dumps_matrix(name, as_matrix(m, name)), encoding="utf-8")


def load_matrix(path):
    """Read one matrix file; returns (name, matrix)."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    required = {"name", "rows", "cols", "data"}
    if not isinstance(obj, dict) or set(obj) != required:
        raise ValueError(f"{path}: matrix file must be an object with the keys {sorted(required)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in (rows, cols)):
        raise ValueError(f"{path}: rows/cols must be positive integers")
    if not isinstance(data, list):
        raise ValueError(f"{path}: data must be a list")
    if len(data) != rows * cols:
        raise ValueError(f"{path}: data length {len(data)} != rows*cols = {rows * cols}")
    try:
        values = np.array(data, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{path}: data must hold numbers: {exc}") from exc
    return obj["name"], as_matrix(values.reshape(rows, cols), obj["name"])
