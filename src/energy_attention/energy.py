"""Energy functionals whose stationary point is the attention output.

A state matrix Z (n x d_v) is scored against attention weights A and
values V through per-pattern alignment scores

    u_j(Z) = sum_m A_mj (z_m . v_j),

and an energy E(Z) = sum_j F(u_j) for a scalar form F (identity, square,
p-th power, exponential). E alone is not stationary at Z = AV, so a linear
regularizer

    R(Z) = -sum_j F'(c_j) u_j(Z),      c_j = u_j(AV),

is added; the regularized gradient

    grad E_R = A diag(F'(u_j) - F'(c_j)) V

then vanishes at Z = AV for every differentiable F. The coefficients c_j
depend only on (A, V) and are computed in O(n^2 d_v) via G = AV,
c_j = ((A^T G) row j) . v_j.

Separately, ``linear_energy``/``linear_grad`` implement the non-degenerate
linear functional -<Z, AV> + 0.5 <Z, Z>, whose gradient Z - AV vanishes at
AV without any regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, frobenius_inner

__all__ = [
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
    "alignment_scores",
    "reg_coeffs",
    "grad_unregularized",
    "regularized_energy",
    "linear_energy",
    "linear_grad",
]

# exp(700) ~ 1e304; beyond this double precision overflows to inf.
EXP_ARG_LIMIT = 700.0

_KINDS = ("linear", "quadratic", "polynomial", "exponential")


class ExpOverflowError(FloatingPointError):
    """An exponential-energy argument exceeds the double-precision range."""


@dataclass(frozen=True)
class EnergyForm:
    """Scalar form F applied to each alignment score.

    kind is one of "linear" (F(u) = u), "quadratic" (u^2),
    "polynomial" (u^p, degree p >= 1) or "exponential" (e^u).
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy form {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "polynomial":
            if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
                raise ValueError(f"polynomial degree must be an integer >= 1, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} form takes no degree, got p={self.p!r}")

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
        worst = float(np.max(u))
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
    if form.kind == "linear":
        out = u + 0.0
    elif form.kind == "quadratic":
        out = u * u
    elif form.kind == "polynomial":
        out = _power(u, form.p)
    else:
        out = np.exp(_checked_exp_args(u))
    return out if out.ndim else float(out)


def f_prime(form: EnergyForm, u):
    """Exact derivative F'(u) for scalar or array u.

    Polynomial powers are formed by multiplication, not ``pow``, so F'(u)
    is within p ulp of the correctly rounded p u^(p-1).
    """
    u = np.asarray(u, dtype=np.float64)
    if form.kind == "linear":
        out = np.ones_like(u)
    elif form.kind == "quadratic":
        out = 2.0 * u
    elif form.kind == "polynomial":
        out = form.p * _power(u, form.p - 1)
    else:
        out = np.exp(_checked_exp_args(u))
    return out if out.ndim else float(out)


def _check_weights_values(a: np.ndarray, v: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"attention weights must be square, got {a.shape}")
    if v.shape[0] != a.shape[0]:
        raise ShapeError(f"values {v.shape} do not match attention weights {a.shape}")


def _check_state(a: np.ndarray, z: np.ndarray, v: np.ndarray):
    _check_weights_values(a, v)
    if z.shape != v.shape:
        raise ShapeError(f"state {z.shape} must match the value shape {v.shape}")


def alignment_scores(a: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_j = sum_m A_mj (z_m . v_j), evaluated as ((Z^T A) column j) . v_j.

    Z^T A reads A in its stored row-major order.
    """
    _check_state(a, z, v)
    return ((z.T @ a) * v.T).sum(axis=0)


def reg_coeffs(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_j = sum_m A_mj sum_l A_ml (v_l . v_j), i.e. u_j at Z = AV.

    Evaluated as ``alignment_scores`` at G = AV in O(n^2 d_v), so c equals
    u(AV) bit for bit and the gradient at AV is exactly 0; no n^3 product
    is formed.
    """
    _check_weights_values(a, v)
    return alignment_scores(a, a @ v, v)


def grad_unregularized(
    form: EnergyForm, a: np.ndarray, z: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """(grad E)_ik = sum_j F'(u_j) A_ij V_jk."""
    u = alignment_scores(a, z, v)
    return a @ (v * f_prime(form, u)[:, None])


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
    e = float(f_apply(form, u).sum())
    r = -float((fp_c * u).sum())
    grad = a @ (v * (fp_u - fp_c)[:, None])
    return EnergyEval(u=u, c=c, e=e, r=r, e_r=e + r, grad=grad)


def linear_energy(z: np.ndarray, a: np.ndarray, v: np.ndarray) -> float:
    """-<Z, AV> + 0.5 <Z, Z>; minimized exactly at Z = AV."""
    _check_state(a, z, v)
    av = a @ v
    return -frobenius_inner(z, av) + 0.5 * frobenius_inner(z, z)


def linear_grad(z: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient Z - AV of ``linear_energy``; zero iff Z == AV."""
    _check_state(a, z, v)
    return z - a @ v
