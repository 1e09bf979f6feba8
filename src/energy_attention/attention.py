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

from .energy import ShapeError, _check_state, alignment_gram

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
    """Per-head bundle (V, A, AV), read-only after construction; Q, K and d_k are not kept.

    ``gram`` is the energy's Gram matrix B = L L^T (``energy.alignment_gram``),
    read-only, n^2 * 8 bytes. It is formed on first use and, like A, V and
    AV, lives as long as the context, so heads that share a context share
    it; a head uses it only when its step budget repays forming it
    (``dynamics.descend``).
    """

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
        b = alignment_gram(self.a, self.v)
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


def row_softmax(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction, written into ``out``.

    The shift leaves each row's distribution unchanged while keeping every
    exponent <= 0, so entries stay representable for arbitrarily large
    scores. With ``out`` None it works in one fresh n x n buffer and leaves
    ``s`` unchanged; ``build_context`` passes ``out=s`` to overwrite the
    scores instead, with the same arithmetic.
    """
    e = np.subtract(s, s.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def attention_output(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """AV: row i is the attention-weighted combination of value rows."""
    _check_state(a, None, v)
    return a @ v


def build_context(x: np.ndarray, w: ProjectionWeights) -> AttentionContext:
    """Run projections, scores, softmax and output once for a head.

    ``row_softmax(s, out=s)`` overwrites the freshly allocated scores, so a
    head holds one n x n buffer here; A equals
    ``row_softmax(scaled_scores(q, k))`` bit for bit.
    """
    q, k, v = project(x, w)
    s = scaled_scores(q, k)
    a = row_softmax(s, out=s)
    av = attention_output(a, v)
    for arr in (v, a, av):
        arr.setflags(write=False)
    return AttentionContext(v=v, a=a, av=av)
