"""Attention heads: closed-form linear head and iterative non-linear heads.

A head projects tokens, forms the attention context, and produces a state
matrix Z. The linear head returns Z = AV directly. Non-linear heads start
the descent at Z0 = AV, which is already stationary for every form, so the
unperturbed run converges at iteration 0; setting ``perturb_sigma`` > 0
adds seeded Gaussian noise to Z0 to make the dynamics observable.

``run_head`` is the one entry point from tokens and weights: it builds the
head's context and calls ``solve_head``, which does the work from a built
context. Heads that share tokens and weights (every head of one ``run``
command) build the context once and call ``solve_head`` for each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionContext, ProjectionWeights, build_context
from .dynamics import DescentConfig, DescentTrace, descend
from .energy import EnergyForm, linear_energy
from .linalg import ShapeError
from .rng import GaussianStream

__all__ = ["HeadSpec", "HeadOutput", "solve_head", "run_head"]


@dataclass(frozen=True)
class HeadSpec:
    d: int
    d_k: int
    d_v: int
    form: EnergyForm
    descent: DescentConfig = field(default_factory=DescentConfig)
    perturb_sigma: float = 0.0
    perturb_seed: int = 0

    def __post_init__(self):
        for name in ("d", "d_k", "d_v"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.perturb_sigma) and self.perturb_sigma >= 0):
            raise ValueError(f"perturb_sigma must be finite and >= 0, got {self.perturb_sigma}")
        seed = self.perturb_seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValueError(f"perturb_seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class HeadOutput:
    z: np.ndarray
    trace: DescentTrace
    context: AttentionContext


def solve_head(ctx: AttentionContext, spec: HeadSpec) -> HeadOutput:
    """Head output from a built context, dispatching on the energy form.

    The linear form gives Z = AV with no descent iterations; every other
    form descends the regularized energy from Z0 = AV (+ seeded noise).
    Heads that read the same tokens through the same weights can share
    one context.
    """
    if ctx.q.shape[1] != spec.d_k or ctx.d_v != spec.d_v:
        raise ShapeError(
            f"context (d_k={ctx.q.shape[1]}, d_v={ctx.d_v}) does not match head spec "
            f"(d_k={spec.d_k}, d_v={spec.d_v})"
        )
    if spec.form.kind == "linear":
        z = ctx.av
        trace = DescentTrace(
            energies=(linear_energy(z, ctx.a, ctx.v),),
            grad_norms=(0.0,),
            stop_reason="converged",
        )
        return HeadOutput(z=z, trace=trace, context=ctx)
    z0 = ctx.av
    if spec.perturb_sigma > 0.0:
        noise = GaussianStream(spec.perturb_seed).matrix(ctx.n, spec.d_v)
        z0 = ctx.av + spec.perturb_sigma * noise
    z, trace = descend(spec.form, ctx, z0, spec.descent)
    return HeadOutput(z=z, trace=trace, context=ctx)


def run_head(x: np.ndarray, w: ProjectionWeights, spec: HeadSpec) -> HeadOutput:
    """Build the head's context from tokens and weights and solve it."""
    if w.d != spec.d:
        raise ShapeError(f"weights have d={w.d} but the head spec has d={spec.d}")
    return solve_head(build_context(x, w), spec)
