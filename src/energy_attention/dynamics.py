"""Gradient-descent dynamics on the regularized energy, line-searched in u-space.

The update is Z <- Z - eta * grad E_R(Z), with optional gradient clipping.
E_R depends on Z only through the alignment scores u = L(Z), and L is
linear, so a step moves the scores to u(Z - a g) = u - a L(g). An accepted
step therefore costs two products with A: the gradient
A diag(F'(u) - F'(c)) V at the current scores, and the image delta = L(g)
of the (clipped) step. A line-search trial at step size a costs O(n): with
h = a delta its energy change is

    dE = sum_j [F(u_j - h_j) - F(u_j) + F'(u_j) h_j] - sum_j (F'(u_j) - F'(c_j)) h_j,

where the bracket is formed per form without subtracting two energies
(h^2 for the quadratic, e^u (expm1(-h) + h) for the exponential, the
binomial tail of (u - h)^p for polynomials). dE thus carries rounding error
proportional to the step, not to |E_R|, and a trial is accepted on
dE <= 0. The scores (O(n)) and Z (O(n d_v)) are updated only on an accepted
step; the recorded energies are the exact E_R(Z0) plus the accepted
changes, so with backtracking they never increase.

By default the step size backtracks: a working eta starts at the configured
value, is halved whenever a trial would raise E_R, doubled after a strictly
decreasing accepted step, and held on an exact tie. If 60 halvings find no
trial with dE <= 0 the run stops as "stalled". With backtracking disabled
the configured eta is honored verbatim, and a run whose energy rises for 10
consecutive iterations (or goes non-finite) is stopped and flagged as
diverged.

``linear_descent`` runs the same loop on the linear functional
-<Z, AV> + 0.5 <Z, Z>, whose scores are Z itself (L is the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionContext
from .energy import (
    EXP_ARG_LIMIT,
    EnergyForm,
    alignment_scores,
    f_prime,
    linear_energy,
    reg_coeffs,
    regularized_energy,
)
from .linalg import frobenius_norm

__all__ = [
    "DescentConfig",
    "DescentTrace",
    "descend",
    "linear_descent",
]

_DIVERGENCE_WINDOW = 10
_MAX_BACKTRACKS = 60

_STOP_REASONS = ("converged", "max_iters", "diverged", "stalled")


@dataclass(frozen=True)
class DescentConfig:
    eta: float = 0.01
    max_iters: int = 100
    grad_tol: float = 1e-8
    clip_norm: float | None = None
    backtracking: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if (
            isinstance(self.max_iters, bool)
            or not isinstance(self.max_iters, int)
            or self.max_iters < 1
        ):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0 and not NaN, got {self.grad_tol}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive when set, got {self.clip_norm}")


@dataclass(frozen=True)
class DescentTrace:
    """Per-iteration record; entry 0 describes the initial iterate.

    ``stop_reason`` is one of "converged", "max_iters", "diverged" or
    "stalled"; "stalled" means 60 halvings of the working step found no
    trial that did not raise the energy.
    """

    energies: tuple[float, ...]
    grad_norms: tuple[float, ...]
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in _STOP_REASONS:
            raise ValueError(
                f"stop_reason must be one of {_STOP_REASONS}, got {self.stop_reason!r}"
            )

    @property
    def iters(self) -> int:
        return len(self.energies) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


def _clipped(grad: np.ndarray, grad_norm: float, clip_norm: float | None) -> np.ndarray:
    if clip_norm is not None and grad_norm > clip_norm:
        return grad * (clip_norm / grad_norm)
    return grad


def _form_remainder(form: EnergyForm, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """F(u - h) - F(u) + F'(u) h per score, without subtracting F values."""
    if form.kind == "quadratic":
        return h * h
    if form.kind == "exponential":
        if np.any(u - h > EXP_ARG_LIMIT):
            # past the limit regularized_energy raises; here it is overflow
            return np.full_like(h, np.inf)
        return np.exp(u) * (np.expm1(-h) + h)
    rest = np.zeros_like(h)
    if form.kind == "polynomial":
        # (u - h)^p expanded from its h^2 term on; the lower terms cancel
        for k in range(2, form.p + 1):
            rest += math.comb(form.p, k) * u ** (form.p - k) * (-h) ** k
    return rest


def _line_search(remainder, u, delta, slope, eta, config):
    """(working eta, energy change) of the first acceptable trial step.

    A trial moves the scores by -eta * delta and changes the energy by
    sum(remainder) - eta * slope; it is not finite when the trial
    overflows, and None when 60 halvings found no change <= 0.
    """
    for _ in range(_MAX_BACKTRACKS if config.backtracking else 1):
        de = float(remainder(u, eta * delta).sum()) - eta * slope
        if not config.backtracking or de <= 0 or not math.isfinite(de):
            return eta, de
        eta *= 0.5
    return eta, None


def _descend_loop(
    z: np.ndarray,
    u: np.ndarray,
    e: float,
    w: np.ndarray,
    grad: np.ndarray,
    gradient: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    image: Callable[[np.ndarray], np.ndarray],
    remainder: Callable[[np.ndarray, np.ndarray], np.ndarray],
    config: DescentConfig,
):
    """Shared loop for the regularized and linear dynamics.

    The iterate is Z, its scores u = L(Z), its energy e, the score weights
    w = dE/du and the state gradient grad = L^T w. ``gradient(u)`` gives
    (w, grad) at new scores, ``image(step)`` gives L(step), and
    ``remainder(u, h)`` the per-score energy change beyond first order when
    the scores move by -h. Overflow after the start marks the trace
    diverged.
    """
    with np.errstate(over="ignore"):
        grad_norm = frobenius_norm(grad)
    energies = [e]
    grad_norms = [grad_norm]
    stop = None
    if not np.isfinite(grad_norm):
        stop = "diverged"
    elif grad_norm <= config.grad_tol:
        stop = "converged"
    rising_run = 0
    eta = config.eta

    while stop is None:
        if len(energies) > config.max_iters:
            stop = "max_iters"
            break
        step = _clipped(grad, grad_norm, config.clip_norm)
        delta = image(step)
        # inf/nan from a wild step flag divergence below; keep numpy quiet
        # instead of warning on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            eta, de = _line_search(remainder, u, delta, float((w * delta).sum()), eta, config)
            if de is None or not math.isfinite(de):
                stop = "stalled" if de is None else "diverged"
                break
            u_next = u - eta * delta
            e_next = e + de
            w_next, grad_next = gradient(u_next)
            next_norm = frobenius_norm(grad_next)
        # a gradient with finite entries can still overflow in norm during
        # an energy runaway; reject that iterate the same way
        if not (math.isfinite(e_next) and math.isfinite(next_norm)):
            stop = "diverged"
            break

        z = z - eta * step
        if config.backtracking and de < 0:
            # warm restart: grow the working step again after a clean
            # decrease so stiff and flat curvature regimes both progress
            eta *= 2.0
        rising_run = rising_run + 1 if de > 0 else 0
        u, e, w, grad, grad_norm = u_next, e_next, w_next, grad_next, next_norm
        energies.append(e)
        grad_norms.append(grad_norm)
        if grad_norm <= config.grad_tol:
            stop = "converged"
        elif rising_run >= _DIVERGENCE_WINDOW:
            stop = "diverged"

    return z, DescentTrace(tuple(energies), tuple(grad_norms), stop)


def descend(
    form: EnergyForm, ctx: AttentionContext, z0: np.ndarray, config: DescentConfig
):
    """Run the regularized dynamics from z0; returns (z_final, trace).

    E_R(Z0) is evaluated once in full (and may raise); every later energy
    is E_R(Z0) plus the accepted changes.
    """
    a, v = ctx.a, ctx.v
    c = reg_coeffs(a, v)
    fp_c = f_prime(form, c)
    start = regularized_energy(form, a, z0, v, c=c)

    def gradient(u):
        w = f_prime(form, u) - fp_c
        return w, a @ (v * w[:, None])

    return _descend_loop(
        z0,
        start.u,
        start.e_r,
        f_prime(form, start.u) - fp_c,
        start.grad,
        gradient,
        lambda step: alignment_scores(a, step, v),
        lambda u, h: _form_remainder(form, u, h),
        config,
    )


def linear_descent(ctx: AttentionContext, z0: np.ndarray, config: DescentConfig):
    """Descent on the linear functional; contracts to AV for 0 < eta < 2."""

    def gradient(z):
        w = z - ctx.av
        return w, w

    return _descend_loop(
        z0,
        z0,
        linear_energy(z0, ctx.a, ctx.v),
        *gradient(z0),
        gradient,
        lambda step: step,
        lambda z, h: 0.5 * h * h,
        config,
    )
