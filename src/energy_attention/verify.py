"""Independent numerical oracles for the energy machinery.

Three cross-checks, each deliberately computed along a different route
than the code it verifies:

* central finite differences of the scalar energy against the analytic
  gradient,
* a stationarity probe of grad E_R at Z = AV,
* a brute-force evaluation of every index-sum formula with plain Python
  loops and ``math`` scalars (no matrix products at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    EXP_ARG_LIMIT,
    EnergyEval,
    EnergyForm,
    ExpOverflowError,
    frobenius_norm,
    reg_coeffs,
    regularized_energy,
)

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "GradCheckReport",
    "StationarityReport",
    "fd_gradient",
    "compare_gradients",
    "gradcheck",
    "stationarity_check",
    "bruteforce_energy",
]

# O(n^3 d_v) Python loops stay sub-second below this token count.
BRUTE_FORCE_MAX_N = 16


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, int]
    h: float
    passed: bool


@dataclass(frozen=True)
class StationarityReport:
    grad_norm_at_av: float
    scale: float
    passed: bool


def fd_gradient(energy_fn, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of Z.

    The step is scaled per entry, h_eff = h * (1 + |Z_ik|), so mixed
    magnitudes inside one iterate are probed at comparable relative
    resolution.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h}")
    grad = np.empty_like(z, dtype=np.float64)
    # a probe past the float range is reported below, not warned on
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(z.shape[0]):
            for k in range(z.shape[1]):
                step = h * (1.0 + abs(float(z[i, k])))
                z_plus = z.copy()
                z_plus[i, k] += step
                z_minus = z.copy()
                z_minus[i, k] -= step
                e_plus = energy_fn(z_plus)
                e_minus = energy_fn(z_minus)
                if not (math.isfinite(e_plus) and math.isfinite(e_minus)):
                    raise FloatingPointError(
                        f"finite-difference probe is non-finite at entry ({i}, {k})"
                    )
                grad[i, k] = (e_plus - e_minus) / (2.0 * step)
    return grad


def compare_gradients(
    analytic: np.ndarray, numeric: np.ndarray, h: float, tol: float
) -> GradCheckReport:
    """Entrywise comparison; relative error uses max(1, |analytic|)."""
    abs_err = np.abs(analytic - numeric)
    rel_err = abs_err / np.maximum(1.0, np.abs(analytic))
    worst_flat = int(np.argmax(rel_err))
    worst = np.unravel_index(worst_flat, rel_err.shape)
    max_rel = float(rel_err[worst])
    return GradCheckReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=max_rel,
        worst_index=(int(worst[0]), int(worst[1])),
        h=h,
        passed=max_rel <= tol,
    )


def gradcheck(
    form: EnergyForm,
    a: np.ndarray,
    v: np.ndarray,
    z: np.ndarray,
    h: float = 1e-6,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Analytic grad E_R versus finite differences of E_R at one state."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    c = reg_coeffs(a, v)
    analytic = regularized_energy(form, a, z, v, c=c).grad
    numeric = fd_gradient(lambda zz: regularized_energy(form, a, zz, v, c=c).e_r, z, h)
    return compare_gradients(analytic, numeric, h, tol)


def stationarity_check(
    form: EnergyForm,
    a: np.ndarray,
    v: np.ndarray,
    tol: float = 1e-8,
) -> StationarityReport:
    """Norm of grad E_R at Z = AV against tol * (1 + ||AV||_F).

    ``tol=0`` asks for an exact zero, which AV can meet.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    av = a @ v
    grad = regularized_energy(form, a, av, v, c=reg_coeffs(a, v)).grad
    grad_norm = frobenius_norm(grad)
    scale = 1.0 + frobenius_norm(av)
    return StationarityReport(
        grad_norm_at_av=grad_norm, scale=scale, passed=grad_norm <= tol * scale
    )


def _scalar_form(form: EnergyForm):
    if form.kind == "linear":
        return (lambda t: t), (lambda t: 1.0)
    if form.kind == "quadratic":
        return (lambda t: t * t), (lambda t: 2.0 * t)
    if form.kind == "polynomial":
        p = form.p
        return (lambda t: t**p), (lambda t: p * t ** (p - 1))

    def checked_exp(t):
        if t > EXP_ARG_LIMIT:
            raise ExpOverflowError(
                f"exponential energy argument {t:.6g} exceeds the overflow "
                f"limit {EXP_ARG_LIMIT:g}"
            )
        return math.exp(t)

    return checked_exp, checked_exp


def bruteforce_energy(
    form: EnergyForm, a: np.ndarray, z: np.ndarray, v: np.ndarray
) -> EnergyEval:
    """Literal index-sum evaluation of u, c, E, R, E_R and grad E_R.

    Quadruple loops over plain Python floats; no matrix shortcuts. Ground
    truth for the optimized paths, capped at BRUTE_FORCE_MAX_N tokens.
    """
    n = a.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute-force oracle is capped at {BRUTE_FORCE_MAX_N} tokens, got n={n}")
    if a.shape != (n, n) or z.shape != v.shape or v.shape[0] != n:
        raise ValueError(f"inconsistent shapes a={a.shape}, z={z.shape}, v={v.shape}")
    aw = a.tolist()
    zl = z.tolist()
    vl = v.tolist()
    d_v = len(vl[0])
    f, fp = _scalar_form(form)

    u = [0.0] * n
    for j in range(n):
        total = 0.0
        for m in range(n):
            for k in range(d_v):
                total += aw[m][j] * zl[m][k] * vl[j][k]
        u[j] = total

    c = [0.0] * n
    for j in range(n):
        total = 0.0
        for m in range(n):
            for l in range(n):
                for k in range(d_v):
                    total += aw[m][j] * aw[m][l] * vl[l][k] * vl[j][k]
        c[j] = total

    e = 0.0
    r = 0.0
    for j in range(n):
        e += f(u[j])
        r -= fp(c[j]) * u[j]

    grad = [[0.0] * d_v for _ in range(n)]
    for i in range(n):
        for k in range(d_v):
            total = 0.0
            for j in range(n):
                total += (fp(u[j]) - fp(c[j])) * aw[i][j] * vl[j][k]
            grad[i][k] = total

    return EnergyEval(
        u=np.array(u), c=np.array(c), e=e, r=r, e_r=e + r, grad=np.array(grad)
    )
