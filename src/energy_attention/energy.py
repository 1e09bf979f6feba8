"""Every formula of the regularized energy E_R, whose stationary point is AV.

A state matrix Z (n x d_v) is scored against attention weights A and
values V through the linear score map L, the per-pattern alignment scores

    u_j(Z) = sum_m A_mj (z_m . v_j),

and an energy E(Z) = sum_j F(u_j) for a scalar form F: a power u^p, whose
degrees 1 and 2 are the linear and quadratic forms and take the same path,
or e^u. E alone is not stationary at Z = AV, so a linear regularizer
R(Z) = -sum_j F'(c_j) u_j(Z) with c_j = u_j(AV) is added; the regularized
gradient, with the adjoint L^T w = A diag(w) V,

    grad E_R = L^T (F'(u) - F'(c)) = A diag(F'(u_j) - F'(c_j)) V

then vanishes at Z = AV for every differentiable F. c = u(AV) costs
O(n^2 d_v). The descent reads the rest from here too: the line-search
remainder F(u - h) - F(u) + F'(u) h and the Gram matrix
B = L L^T = (A^T A) o (V V^T), which the attention context caches.

For F(u) = u, E_R is identically 0, so a degree-1 head descends (and the
probes check) ``linear_energy``/``linear_grad`` instead: the functional
-<Z, AV> + 0.5 <Z, Z>, whose gradient Z - AV vanishes at AV unregularized.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "frobenius_norm",
    "EXP_ARG_LIMIT",
    "ExpOverflowError",
    "EnergyForm",
    "EnergyEval",
    "LINEAR",
    "QUADRATIC",
    "EXPONENTIAL",
    "polynomial",
    "f_apply",
    "f_prime",
    "form_remainder",
    "alignment_scores",
    "alignment_adjoint",
    "alignment_gram",
    "reg_coeffs",
    "energy_sums",
    "regularized_energy",
    "linear_energy",
    "linear_grad",
]

# exp(700) ~ 1e304; beyond this double precision overflows to inf.
EXP_ARG_LIMIT = 700.0

_KINDS = ("linear", "quadratic", "polynomial", "exponential")

# rows per tile when V V^T is multiplied into A^T A; one tile of V V^T is
# 128 KiB, so no n x n V V^T is ever held
_GRAM_TILE = 128


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


def check_count(name: str, value, low: int = 1, high: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless value is a non-bool int in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        positive = (low, high) == (1, math.inf)
        rule = "a positive integer" if positive else f"an integer in [{low}, {high})"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise ValueError naming ``name`` unless value is a finite non-bool real, > 0 or >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {rule}, got {value!r}")


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum_ik a_ik^2)."""
    return float(np.sqrt((a * a).sum()))


class ExpOverflowError(FloatingPointError):
    """An exponential-energy argument exceeds the double-precision range."""


@dataclass(frozen=True)
class EnergyForm:
    """Scalar form F applied to each alignment score.

    kind is "linear" (F(u) = u), "quadratic" (u^2), "polynomial" (u^p, p >= 1), "exponential" (e^u).
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy form {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "polynomial":
            check_count("polynomial degree", self.p)
            # form_remainder needs every C(p, k) as a float; the largest is
            # C(p, p // 2) >= 2^p / (p + 1), past the float range from p = 1100
            if self.p >= 1100 or math.comb(self.p, self.p // 2) > sys.float_info.max:
                raise ValueError(
                    f"polynomial degree {self.p} is too large: its binomial coefficient "
                    f"C({self.p}, {self.p // 2}) exceeds the float range"
                )
        elif self.p is not None:
            raise ValueError(f"{self.kind} form takes no degree, got p={self.p!r}")

    @property
    def degree(self) -> int | None:
        """p of the power u^p that F is (linear 1, quadratic 2); None for e^u."""
        return {"linear": 1, "quadratic": 2, "polynomial": self.p}.get(self.kind)

    @property
    def label(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial(p={self.p})"
        return self.kind


LINEAR = EnergyForm("linear")
QUADRATIC = EnergyForm("quadratic")
EXPONENTIAL = EnergyForm("exponential")


def polynomial(p: int) -> EnergyForm:
    return EnergyForm("polynomial", p)


@dataclass(frozen=True)
class EnergyEval:
    """Full evaluation bundle at one state Z."""

    u: np.ndarray
    c: np.ndarray
    e: float
    r: float
    e_r: float
    grad: np.ndarray


def _checked_exp_args(u: np.ndarray) -> np.ndarray:
    if np.any(u > EXP_ARG_LIMIT):
        # the largest argument of the first state (row of a stack) past the limit
        states = u.reshape(-1, u.shape[-1]) if u.ndim else u.reshape(1, 1)
        worst = float(states[(states > EXP_ARG_LIMIT).any(axis=1).argmax()].max())
        raise ExpOverflowError(
            f"exponential energy argument {worst:.6g} exceeds the overflow "
            f"limit {EXP_ARG_LIMIT:g}"
        )
    return u


def _power(u: np.ndarray, k: int) -> np.ndarray:
    """u**k for an integer k >= 0 in a fresh array, by multiplication.

    Left-to-right binary exponentiation: at most 2 log2(k) multiplies per
    element instead of one libm ``pow`` call, within k ulp of the correctly
    rounded power.
    """
    if k < 2:
        return np.ones_like(u) if k == 0 else u.copy()
    out = u
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out *= u
    return out


def f_apply(form: EnergyForm, u):
    """F(u) for scalar or array u."""
    u = np.asarray(u, dtype=np.float64)
    p = form.degree
    out = np.exp(_checked_exp_args(u)) if p is None else _power(u, p)
    return out if out.ndim else float(out)


def f_prime(form: EnergyForm, u):
    """Exact derivative F'(u) for scalar or array u.

    Powers are formed by multiplication, not ``pow``, so F'(u) is within
    p ulp of the correctly rounded p u^(p-1).
    """
    u = np.asarray(u, dtype=np.float64)
    p = form.degree
    out = np.exp(_checked_exp_args(u)) if p is None else p * _power(u, p - 1)
    return out if out.ndim else float(out)


def form_remainder(form: EnergyForm, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """F(u - h) - F(u) + F'(u) h per score, without subtracting F values.

    Its rounding error thus scales with h, not F(u). An exponential argument
    past EXP_ARG_LIMIT gives inf, where ``f_apply`` raises.
    """
    p = form.degree
    if p is None:
        if np.any(u - h > EXP_ARG_LIMIT):
            return np.full_like(h, np.inf)
        return np.exp(u) * (np.expm1(-h) + h)
    # (u - h)^p expanded from its h^2 term on; the lower terms cancel, and
    # nothing is left for p = 1. Powers are running products, not libm pow.
    rest = np.zeros_like(h)
    u_powers = [np.ones_like(u)]
    for _ in range(p - 2):
        u_powers.append(u_powers[-1] * u)
    neg_h = -h
    neg_h_power = neg_h
    for k in range(2, p + 1):
        neg_h_power = neg_h_power * neg_h
        rest += math.comb(p, k) * u_powers[p - k] * neg_h_power
    return rest


def _check_state(a: np.ndarray, z: np.ndarray | None, v: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"attention weights must be square, got {a.shape}")
    if v.shape[0] != a.shape[0]:
        raise ShapeError(f"values {v.shape} do not match attention weights {a.shape}")
    if z is not None and z.shape[-2:] != v.shape:
        raise ShapeError(f"state {z.shape} must match the value shape {v.shape}")


def alignment_scores(a: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_j = sum_m A_mj (z_m . v_j), evaluated as ((Z^T A) column j) . v_j.

    Z^T A reads A in its stored row-major order; a stack of states is scored state by state.
    """
    _check_state(a, z, v)
    return ((np.swapaxes(z, -1, -2) @ a) * v.T).sum(axis=-2)


def alignment_adjoint(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L^T w = A diag(w) V; every gradient of E_R is L^T of its score weights."""
    return a @ (v * w[:, None])


def alignment_gram(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B = L L^T = (A^T A) o (V V^T), exactly symmetric for every n.

    A^T A is one symmetric product. V V^T is multiplied in by 128-row tiles,
    each off-diagonal tile formed once and applied to both mirror blocks.
    """
    b = a.T @ a
    n = a.shape[0]
    for i in range(0, n, _GRAM_TILE):
        rows = slice(i, i + _GRAM_TILE)
        vi = v[rows]
        b[rows, rows] *= vi @ vi.T
        for j in range(i + _GRAM_TILE, n, _GRAM_TILE):
            cols = slice(j, j + _GRAM_TILE)
            t = vi @ v[cols].T
            b[rows, cols] *= t
            b[cols, rows] *= t.T
    return b


def reg_coeffs(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_j = sum_m A_mj sum_l A_ml (v_l . v_j), i.e. u_j at Z = AV.

    Evaluated as ``alignment_scores`` at G = AV in O(n^2 d_v), so c equals
    u(AV) bit for bit and the gradient at AV is exactly 0; no n^3 product
    is formed.
    """
    _check_state(a, None, v)
    return alignment_scores(a, a @ v, v)


def energy_sums(form: EnergyForm, u: np.ndarray, fp_c: np.ndarray):
    """(E, R) = (sum_j F(u_j), -sum_j F'(c_j) u_j), summed over the last axis of u."""
    return f_apply(form, u).sum(axis=-1), -(fp_c * u).sum(axis=-1)


def regularized_energy(
    form: EnergyForm,
    a: np.ndarray,
    z: np.ndarray,
    v: np.ndarray,
    c: np.ndarray | None = None,
) -> EnergyEval:
    """Evaluate (u, c, E, R, E_R, grad E_R) at one state.

    ``c`` may be passed in when precomputed for a fixed (A, V); it is
    recomputed otherwise.
    """
    if c is None:
        c = reg_coeffs(a, v)
    u = alignment_scores(a, z, v)
    fp_u = f_prime(form, u)
    fp_c = f_prime(form, c)
    e, r = map(float, energy_sums(form, u, fp_c))
    grad = alignment_adjoint(a, fp_u - fp_c, v)
    return EnergyEval(u=u, c=c, e=e, r=r, e_r=e + r, grad=grad)


def linear_energy(z: np.ndarray, a: np.ndarray, v: np.ndarray):
    """-<Z, AV> + 0.5 <Z, Z> of one state (a float) or of each of a stack; least at Z = AV."""
    _check_state(a, z, v)
    av = a @ v
    e = -(z * av).sum(axis=(-2, -1)) + 0.5 * (z * z).sum(axis=(-2, -1))
    return e if e.ndim else float(e)


def linear_grad(z: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient Z - AV of ``linear_energy``; zero iff Z == AV."""
    _check_state(a, z, v)
    return z - a @ v
