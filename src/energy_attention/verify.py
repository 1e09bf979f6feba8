"""Independent numerical oracles for the energy machinery.

Three cross-checks, each deliberately computed along a different route
than the code it verifies:

* central finite differences of the energy the head descends (E_R, or
  ``linear_energy`` for a degree-1 form, whose E_R is identically 0), on
  stacks of probe states, against the analytic gradient,
* a stationarity probe of that gradient at Z = AV,
* a brute-force evaluation of every index-sum formula with plain Python
  loops and ``math`` scalars (no matrix products at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyEval,
    EnergyForm,
    alignment_scores,
    check_real,
    energy_sums,
    f_prime,
    frobenius_norm,
    linear_energy,
    linear_grad,
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
_PROBE_CHUNK_BYTES = 128 * 1024  # of probe states per stacked call of fd_gradient's energies


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, int]
    passed: bool


@dataclass(frozen=True)
class StationarityReport:
    grad_norm_at_av: float
    scale: float
    passed: bool


def fd_gradient(energies, z: np.ndarray, h: float) -> np.ndarray:
    """Central differences of ``energies``, which maps a (p, n, d_v) stack of states to p energies.

    Entry (i, k) is probed at Z_ik +- h * (1 + |Z_ik|), so mixed magnitudes get comparable relative
    resolution. Probes go entry-major, plus before minus, in stacks of at most _PROBE_CHUNK_BYTES
    (one entry at least); a non-finite energy raises FloatingPointError naming the first entry in
    that order.
    """
    check_real("finite-difference step", h, positive=True)
    flat = z.ravel()
    steps = h * (1.0 + np.abs(flat))
    probed = np.column_stack([flat + steps, flat - steps]).ravel()  # states 2e, 2e + 1 probe e
    energy = np.empty(probed.size)
    chunk = 2 * max(1, _PROBE_CHUNK_BYTES // (16 * max(flat.size, 1)))
    # a probe past the float range is reported below, not warned on
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, probed.size, chunk):
            stop = min(start + chunk, probed.size)
            states = np.repeat(flat[None], stop - start, axis=0)
            states[np.arange(stop - start), np.arange(start, stop) // 2] = probed[start:stop]
            energy[start:stop] = energies(states.reshape(-1, *z.shape))
            bad = ~np.isfinite(energy[start:stop]).reshape(-1, 2).all(axis=1)
            if bad.any():
                i, k = np.unravel_index(start // 2 + int(bad.argmax()), z.shape)
                raise FloatingPointError(
                    f"finite-difference probe is non-finite at entry ({i}, {k})"
                )
        return ((energy[0::2] - energy[1::2]) / (2.0 * steps)).reshape(z.shape)


def compare_gradients(analytic: np.ndarray, numeric: np.ndarray, tol: float) -> GradCheckReport:
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
    """Analytic gradient versus finite differences of the energy the head descends, at one state."""
    check_real("tol", tol)
    if form.degree == 1:
        analytic, energies = linear_grad(z, a, v), lambda zs: linear_energy(zs, a, v)
    else:
        c = reg_coeffs(a, v)
        analytic = regularized_energy(form, a, z, v, c=c).grad
        fp_c = f_prime(form, c)  # E_R of each stacked state, summed as in regularized_energy
        energies = lambda zs: np.add(*energy_sums(form, alignment_scores(a, zs, v), fp_c))
    return compare_gradients(analytic, fd_gradient(energies, z, h), tol)


def stationarity_check(
    form: EnergyForm,
    a: np.ndarray,
    v: np.ndarray,
    tol: float = 1e-8,
) -> StationarityReport:
    """Norm of the head's gradient (grad E_R or ``linear_grad``) at AV against tol * (1 + ||AV||_F).

    The norm is exactly 0.0 for every form, so even ``tol=0`` passes: c is
    u(AV) from the same ``alignment_scores`` call on the same ``a @ v``, so
    F'(u) - F'(c) is exactly 0 (and ``linear_grad`` subtracts one product
    from itself). It checks the regularizer's algebra, not its rounding.
    """
    check_real("tol", tol)
    av = a @ v
    if form.degree == 1:
        grad = linear_grad(av, a, v)
    else:
        grad = regularized_energy(form, a, av, v, c=reg_coeffs(a, v)).grad
    grad_norm = frobenius_norm(grad)
    scale = 1.0 + frobenius_norm(av)
    return StationarityReport(
        grad_norm_at_av=grad_norm, scale=scale, passed=grad_norm <= tol * scale
    )


def _past_range(f, odd: bool):
    """f, with the OverflowError of ``math.exp`` or float ``**`` mapped to numpy's infinity.

    The infinity is negative where t < 0 and ``odd`` says f is an odd power there.
    """

    def g(t):
        try:
            return f(t)
        except OverflowError:
            return -math.inf if odd and t < 0 else math.inf

    return g


def _scalar_form(form: EnergyForm):
    """(F, F') on floats, by one formula per kind; none goes through ``form.degree``."""
    if form.kind == "exponential":
        exp = _past_range(math.exp, odd=False)
        return exp, exp
    if form.kind == "polynomial":
        p, odd = form.p, form.p % 2 == 1
        return _past_range(lambda t: t**p, odd), _past_range(lambda t: p * t ** (p - 1), not odd)
    return {
        "linear": ((lambda t: t), (lambda t: 1.0)),
        "quadratic": ((lambda t: t * t), (lambda t: 2.0 * t)),
    }[form.kind]


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
