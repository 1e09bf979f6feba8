"""Matrix input coercion and Frobenius inner product and norm.

Matrices are 2-D C-contiguous ``numpy.float64`` arrays throughout the
package; products are numpy's own ``@``. Shape mismatches raise
:class:`ShapeError` naming both operand shapes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "frobenius_inner",
    "frobenius_norm",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a fresh 2-D float64 array with finite entries."""
    m = np.array(data, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {m.ndim} dimension(s)")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise inner product sum_ik a_ik b_ik == trace(a^T b)."""
    if a.shape != b.shape:
        raise ShapeError(f"frobenius_inner: shapes differ, {a.shape} vs {b.shape}")
    return float((a * b).sum())


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the Frobenius inner product of ``a`` with itself."""
    return float(np.sqrt((a * a).sum()))
