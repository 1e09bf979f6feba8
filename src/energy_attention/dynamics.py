"""Gradient-descent dynamics on the regularized energy.

The update is Z <- Z - eta * grad E_R(Z), with optional gradient clipping.
By default the step size backtracks: a working eta starts at the configured
value, is halved whenever a proposed step would raise E_R, doubled after a
strictly decreasing accepted step, and held on an exact tie. Energies along
an accepted trajectory are therefore never increasing, and the working eta
adapts to the local curvature in both directions. With backtracking
disabled the configured eta is honored verbatim, and a run whose energy
rises for 10 consecutive iterations (or goes non-finite) is stopped and
flagged as diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionContext
from .energy import (
    EnergyForm,
    ExpOverflowError,
    linear_energy,
    linear_grad,
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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0 and not NaN, got {self.grad_tol}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive when set, got {self.clip_norm}")


@dataclass(frozen=True)
class DescentTrace:
    """Per-iteration record; entry 0 describes the initial iterate."""

    energies: tuple[float, ...]
    grad_norms: tuple[float, ...]
    iters: int
    converged: bool
    diverged: bool = False


def _clipped(grad: np.ndarray, grad_norm: float, clip_norm: float | None) -> np.ndarray:
    if clip_norm is not None and grad_norm > clip_norm:
        return grad * (clip_norm / grad_norm)
    return grad


def _descend_loop(
    eval_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    z0: np.ndarray,
    config: DescentConfig,
):
    """Shared loop for the regularized and linear dynamics.

    ``eval_fn`` maps an iterate to (energy, gradient). The initial
    evaluation is allowed to raise; overflow after the first step marks
    the trace diverged instead.
    """
    z = z0
    e, grad = eval_fn(z)
    with np.errstate(over="ignore"):
        grad_norm = frobenius_norm(grad)
    energies = [e]
    grad_norms = [grad_norm]
    converged = grad_norm <= config.grad_tol
    diverged = not np.isfinite(grad_norm)
    rising_run = 0
    eta = config.eta

    while not converged and not diverged and len(energies) <= config.max_iters:
        step = _clipped(grad, grad_norm, config.clip_norm)
        accepted = False
        tries = _MAX_BACKTRACKS if config.backtracking else 1
        for _ in range(tries):
            z_next = z - eta * step
            try:
                # inf/nan from a wild step flag divergence below; keep
                # numpy quiet instead of warning on the way there
                with np.errstate(over="ignore", invalid="ignore"):
                    e_next, grad_next = eval_fn(z_next)
            except ExpOverflowError:
                diverged = True
                break
            with np.errstate(over="ignore"):
                next_norm = frobenius_norm(grad_next)
            # a gradient with finite entries can still overflow in norm
            # during an energy runaway; reject that iterate the same way
            if not (np.isfinite(e_next) and np.isfinite(next_norm)):
                diverged = True
                break
            if not config.backtracking or e_next <= e:
                accepted = True
                break
            eta *= 0.5
        if diverged or not accepted:
            break
        if config.backtracking and e_next < e:
            # warm restart: grow the working step again after a clean
            # decrease so stiff and flat curvature regimes both progress
            eta *= 2.0

        rising_run = rising_run + 1 if e_next > e else 0
        z, e, grad, grad_norm = z_next, e_next, grad_next, next_norm
        energies.append(e)
        grad_norms.append(grad_norm)
        if grad_norm <= config.grad_tol:
            converged = True
        elif rising_run >= _DIVERGENCE_WINDOW:
            diverged = True

    trace = DescentTrace(
        energies=tuple(energies),
        grad_norms=tuple(grad_norms),
        iters=len(energies) - 1,
        converged=converged,
        diverged=diverged,
    )
    return z, trace


def descend(
    form: EnergyForm, ctx: AttentionContext, z0: np.ndarray, config: DescentConfig
):
    """Run the regularized dynamics from z0; returns (z_final, trace)."""
    c = reg_coeffs(ctx.a, ctx.v)

    def eval_fn(z):
        ev = regularized_energy(form, ctx.a, z, ctx.v, c=c)
        return ev.e_r, ev.grad

    return _descend_loop(eval_fn, z0, config)


def linear_descent(ctx: AttentionContext, z0: np.ndarray, config: DescentConfig):
    """Descent on the linear functional; contracts to AV for 0 < eta < 2."""

    def eval_fn(z):
        return linear_energy(z, ctx.a, ctx.v), linear_grad(z, ctx.a, ctx.v)

    return _descend_loop(eval_fn, z0, config)
