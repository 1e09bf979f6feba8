"""Gradient-descent dynamics on the regularized energy, stepped in score space.

The update is Z <- Z - eta * grad E_R(Z), with optional gradient clipping.
E_R depends on Z only through the alignment scores u = L(Z), and its
gradient is L^T w with the score weights w = F'(u) - F'(c). A step of size
a with clip factor s moves the scores to u - a s B w, B = L L^T, so an
accepted step costs one product B w, which also gives the next gradient
norm sqrt(w^T B w). B w is a product with the context's cached Gram matrix
when the step budget repays forming it, max_iters (4 d_v - 2) >= n, and
L(L^T w), two products with A, below that; the two agree to rounding.
Z is formed once, as Z0 - L^T(sum_t a_t s_t w_t), and a stop is decided
at that formed Z on its explicit gradient norm; if that norm is above
grad_tol the run steps on. A line-search trial at step size a costs O(n):
with h = a s B w its energy change is dE = sum(form_remainder(u, h)) -
w . h, which carries rounding error proportional to the step, not to
|E_R|; a trial is accepted on dE <= 0. The recorded energies are the
exact E_R(Z0) plus the accepted changes, so with backtracking they never
increase.

By default the step size backtracks: a working eta starts at the configured
value, is halved whenever a trial would raise E_R, doubled after a strictly
decreasing accepted step, and held on an exact tie. If 60 halvings find no
trial with dE <= 0 the run stops as "stalled". With backtracking disabled
the configured eta is honored verbatim, and a run whose energy rises for 10
consecutive iterations (or goes non-finite) is stopped and flagged as
diverged.

A degree-1 form (F(u) = u), whose E_R is identically 0, binds the same maps
to the linear functional -<Z, AV> + 0.5 <Z, Z> instead: its scores are Z
itself (L and B are the identity), and it contracts to AV for 0 < eta < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionContext
from .energy import (
    EnergyForm,
    alignment_adjoint,
    alignment_scores,
    check_count,
    check_real,
    f_prime,
    form_remainder,
    frobenius_norm,
    linear_energy,
    reg_coeffs,
    regularized_energy,
)

__all__ = [
    "DescentConfig",
    "DescentTrace",
    "descend",
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
        check_real("eta", self.eta, positive=True)
        check_count("max_iters", self.max_iters)
        check_real("grad_tol", self.grad_tol)
        if self.clip_norm is not None:
            check_real("clip_norm", self.clip_norm, positive=True)


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


def descend(
    form: EnergyForm, ctx: AttentionContext, z0: np.ndarray, config: DescentConfig
):
    """Run the head's dynamics from z0; returns (z_final, trace).

    Each functional binds the same maps, which one loop reads: the iterate's
    scores u = scores(Z) and weights w = weights(u), its gradient lift(w),
    gram(w) = B w, and remainder(u, h), the per-score energy change beyond
    first order when the scores move by -h. The start's (u, e, grad) is
    evaluated once in full; every later energy is e plus the accepted
    changes. A start past the float range, or overflow after it, stops the
    run as diverged without a warning; an exponential start past
    EXP_ARG_LIMIT raises ExpOverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, v = ctx.a, ctx.v
        if form.degree == 1:
            u, e, grad = z0, linear_energy(z0, a, v), z0 - ctx.av
            scores = lift = gram = lambda x: x
            weights = lambda u: u - ctx.av
            remainder = lambda u, h: 0.5 * h * h
        else:
            c = reg_coeffs(a, v)
            fp_c = f_prime(form, c)
            start = regularized_energy(form, a, z0, v, c=c)
            u, e, grad = start.u, start.e_r, start.grad
            scores = lambda z: alignment_scores(a, z, v)
            weights = lambda u: f_prime(form, u) - fp_c
            lift = lambda w: alignment_adjoint(a, w, v)
            remainder = lambda u, h: form_remainder(form, u, h)
            # B costs n^3/2 multiply-adds once and saves (2 d_v - 1) n^2 on each
            # product B w against L(L^T w). The budget alone decides, so a head's
            # bits never depend on whether a neighbour already formed a shared B.
            if config.max_iters * (4 * ctx.d_v - 2) >= ctx.n:
                gram = lambda w: ctx.gram @ w
            else:
                gram = lambda w: scores(lift(w))

        w = weights(u)
        grad_norm = frobenius_norm(grad)
        energies, grad_norms = [e], [grad_norm]
        z, bw, moved = z0, None, np.zeros_like(w)  # z is None once a step moved it
        stop = None if math.isfinite(grad_norm) else "diverged"
        rising_run = 0
        eta = config.eta

        def formed():
            # carried scores drift from the formed Z's by B's rounding times
            # |moved|, and sqrt(w^T B w) loses digits as ||L^T w|| shrinks
            z = z0 - lift(moved)
            u = scores(z)
            w = weights(u)
            return z, u, w, frobenius_norm(lift(w))

        while stop is None:
            over_budget = len(energies) > config.max_iters
            if z is None and (grad_norm <= config.grad_tol or over_budget):
                z, u, w, grad_norm = formed()
                grad_norms[-1], bw = grad_norm, None
            if grad_norm <= config.grad_tol or over_budget:
                stop = "converged" if grad_norm <= config.grad_tol else "max_iters"
                break
            if bw is None:
                bw = gram(w)
            clip = 1.0
            if config.clip_norm is not None and grad_norm > config.clip_norm:
                clip = config.clip_norm / grad_norm
            delta = clip * bw
            eta, de = _line_search(remainder, u, delta, float((w * delta).sum()), eta, config)
            if de is None or not math.isfinite(de):
                stop = "stalled" if de is None else "diverged"
                break
            u_next = u - eta * delta
            e_next = e + de
            w_next = weights(u_next)
            bw_next = gram(w_next)
            next_norm = math.sqrt(max(float((w_next * bw_next).sum()), 0.0))
            # the norm can still overflow during an energy runaway; reject that
            # iterate the same way
            if not (math.isfinite(e_next) and math.isfinite(next_norm)):
                stop = "diverged"
                break

            moved += (eta * clip) * w
            if config.backtracking and de < 0:
                # warm restart: grow the working step again after a clean
                # decrease so stiff and flat curvature regimes both progress
                eta *= 2.0
            rising_run = rising_run + 1 if de > 0 else 0
            z, u, e, w, bw, grad_norm = None, u_next, e_next, w_next, bw_next, next_norm
            energies.append(e)
            grad_norms.append(grad_norm)
            if rising_run >= _DIVERGENCE_WINDOW:
                stop = "diverged"

        if z is None:
            z, _, _, grad_norms[-1] = formed()
        return z, DescentTrace(tuple(energies), tuple(grad_norms), stop)
