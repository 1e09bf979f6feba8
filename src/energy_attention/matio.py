"""Matrix JSON files: {"name", "rows", "cols", "data"} with row-major data.

Values are written with the ``%.17g`` format, which carries enough decimal
digits to reproduce every binary64 value exactly, so save/load round-trips
are bit-exact and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .energy import ShapeError

__all__ = ["dumps_matrix", "save_matrix", "load_matrix"]


def _as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a fresh 2-D float64 array with finite entries."""
    m = np.array(data, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {m.ndim} dimension(s)")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def dumps_matrix(name: str, m: np.ndarray) -> str:
    # one %-format over the whole tuple builds no str per entry
    values = ("%.17g, " * m.size)[:-2] % tuple(m.ravel(order="C").tolist())
    return (
        f'{{"name": {json.dumps(name)}, "rows": {m.shape[0]}, '
        f'"cols": {m.shape[1]}, "data": [{values}]}}\n'
    )


def save_matrix(path, name: str, m: np.ndarray) -> None:
    Path(path).write_text(dumps_matrix(name, _as_matrix(m, name)), encoding="utf-8")


def load_matrix(path):
    """Read one matrix file; returns (name, matrix).

    ``data`` must be a flat list of numbers (integers within 64 bits), as
    judged by the dtype numpy infers for the whole list, not entry by
    entry. So a list mixing numbers and booleans is still promoted:
    ``[1.5, true]`` loads as ``[1.5, 1.0]``.
    """
    # the writer's %.17g spells -0.0 as "-0", which JSON reads as the int 0
    obj = json.loads(
        Path(path).read_text(encoding="utf-8"), parse_int=lambda s: -0.0 if s == "-0" else int(s)
    )
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
        values = np.asarray(data)
    except ValueError:  # nested lists of unequal lengths
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "iuf":
        raise ValueError(f"{path}: data must be a flat list of numbers")
    return obj["name"], _as_matrix(values.reshape(rows, cols), obj["name"])
