"""Scaled dot-product attention: projections, scores, row softmax, output.

The attention weights A are row-stochastic (each row sums to 1, entries in
(0, 1]) and the attention output AV places every output row inside the
convex hull of the value rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ShapeError

__all__ = [
    "ProjectionWeights",
    "AttentionContext",
    "project",
    "scaled_scores",
    "row_softmax",
    "attention_output",
    "build_context",
]


@dataclass(frozen=True)
class ProjectionWeights:
    """Query/key/value projection matrices sharing the embedding dim d.

    w_q, w_k are (d, d_k); w_v is (d, d_v).
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        if self.w_q.shape[0] != self.w_k.shape[0] or self.w_q.shape[0] != self.w_v.shape[0]:
            raise ShapeError(
                "projection weights must share the embedding dimension: "
                f"w_q {self.w_q.shape}, w_k {self.w_k.shape}, w_v {self.w_v.shape}"
            )
        if self.w_q.shape[1] != self.w_k.shape[1]:
            raise ShapeError(
                f"w_q and w_k must share d_k: {self.w_q.shape} vs {self.w_k.shape}"
            )

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_v(self) -> int:
        return self.w_v.shape[1]


@dataclass(frozen=True)
class AttentionContext:
    """Per-head bundle (Q, K, V, A, AV), read-only after construction.

    ``gram`` is B = (A^T A) o (V V^T) = L L^T for the linear score map L of
    the energy; it is formed on first use and kept, so heads that share a
    context share it and heads that never step never form it.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    a: np.ndarray
    av: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d_v(self) -> int:
        return self.v.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        b = self.a.T @ self.a
        b *= self.v @ self.v.T
        b.setflags(write=False)
        return b


def project(x: np.ndarray, w: ProjectionWeights):
    """Token projections (q, k, v) = (x w_q, x w_k, x w_v)."""
    if x.shape[1] != w.d:
        raise ShapeError(f"project: tokens are {x.shape} but weights expect d={w.d}")
    return x @ w.w_q, x @ w.w_k, x @ w.w_v


def scaled_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Score matrix S with S_mj = (q_m . k_j) / sqrt(d_k), d_k the columns of q and k."""
    d_k = q.shape[1]
    if d_k < 1 or k.shape[1] != d_k:
        raise ShapeError(
            f"scaled_scores: q {q.shape} and k {k.shape} must have the same positive column count"
        )
    s = q @ np.ascontiguousarray(k.T)
    s /= math.sqrt(d_k)
    return s


def row_softmax(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    The shift leaves each row's distribution unchanged while keeping every
    exponent <= 0, so entries stay representable for arbitrarily large
    scores. It works in one fresh n x n buffer and leaves ``s`` unchanged.
    """
    e = s - s.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def attention_output(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """AV: row i is the attention-weighted combination of value rows."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"attention_output: a must be square, got {a.shape}")
    if v.shape[0] != a.shape[1]:
        raise ShapeError(f"attention_output: values {v.shape} do not match a {a.shape}")
    return a @ v


def build_context(x: np.ndarray, w: ProjectionWeights) -> AttentionContext:
    """Run projections, scores, softmax and output once for a head."""
    q, k, v = project(x, w)
    a = row_softmax(scaled_scores(q, k))
    av = attention_output(a, v)
    for arr in (q, k, v, a, av):
        arr.setflags(write=False)
    return AttentionContext(q=q, k=k, v=v, a=a, av=av)
