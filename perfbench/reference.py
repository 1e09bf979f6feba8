"""Independent recomputation of the program's outputs, in plain numpy.

Nothing here imports ``energy_attention``. Every quantity is rebuilt from
the raw inputs along a route that differs from the library's where a
choice exists (for example u_j is summed from A * (Z V^T) rather than
from (A^T Z) * V), so a defect in the library cannot hide in a shared
helper.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix_normals(seed: int, count: int) -> np.ndarray:
    """First ``count`` N(0, 1) draws of a seeded SplitMix64 + Box-Muller stream.

    Word k is the SplitMix64 output after k increments of the state; each
    word pair (w1, w2) gives u1 = ((w1 >> 11) + 1) 2^-53 and
    u2 = (w2 >> 11) 2^-53, then r cos(2 pi u2) followed by r sin(2 pi u2)
    with r = sqrt(-2 ln u1). The integer part is vectorised (uint64
    arithmetic wraps mod 2^64); log, cos and sin go through ``math`` per
    element so the draws are bit-identical to a scalar implementation.
    """
    pairs = (count + 1) // 2
    z = np.uint64(seed) + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    u1 = ((z[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    logs = np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
    radius = np.sqrt(-2.0 * logs)
    angle = (2.0 * math.pi * u2).tolist()
    out = np.empty((pairs, 2))
    out[:, 0] = radius * np.fromiter(map(math.cos, angle), np.float64, pairs)
    out[:, 1] = radius * np.fromiter(map(math.sin, angle), np.float64, pairs)
    return out.ravel()[:count]


def problem_matrices(seed: int, n: int, d: int, d_k: int, d_v: int):
    """X, W_q, W_k, W_v drawn in that order from one stream, entries N(0, 1/d)."""
    shapes = ((n, d), (d, d_k), (d, d_k), (d, d_v))
    draws = splitmix_normals(seed, sum(r * c for r, c in shapes))
    scale = 1.0 / math.sqrt(d)
    out, pos = [], 0
    for rows, cols in shapes:
        out.append(scale * draws[pos : pos + rows * cols].reshape(rows, cols))
        pos += rows * cols
    return out


def attention(x, w_q, w_k, w_v):
    """Row-softmax attention weights A and values V for one head."""
    q, k, v = x @ w_q, x @ w_k, x @ w_v
    a = q @ k.T
    a /= math.sqrt(w_q.shape[1])
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a, v


def form_fns(kind: str, p: int | None = None):
    """(F, F') for an energy form."""
    if kind == "quadratic":
        return (lambda u: u * u), (lambda u: 2.0 * u)
    if kind == "polynomial":
        return (lambda u: u**p), (lambda u: p * u ** (p - 1))
    if kind == "exponential":
        return np.exp, np.exp
    raise ValueError(f"unknown form {kind!r}")


def scores(a, z, v):
    """u_j = sum_m A_mj (z_m . v_j)."""
    return np.einsum("mj,mj->j", a, z @ v.T)


def regularized(kind, p, a, v, z):
    """(E_R(Z), sum of |terms| of E_R, grad E_R(Z)) with c = u(AV)."""
    f, fp = form_fns(kind, p)
    u = scores(a, z, v)
    c = scores(a, a @ v, v)
    e, r = f(u), fp(c) * u
    grad = (a * (fp(u) - fp(c))[None, :]) @ v
    return float(e.sum() - r.sum()), float(np.abs(e).sum() + np.abs(r).sum()), grad


def grad_norm(kind, p, a, v, z) -> float:
    return float(np.linalg.norm(regularized(kind, p, a, v, z)[2]))
