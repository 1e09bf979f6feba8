"""Attention heads: closed-form linear head and iterative non-linear heads.

A head projects tokens, forms the attention context, and produces a state
matrix Z. The linear head runs ``linear_descent`` from Z0 = AV, where its
gradient is exactly zero, so it returns AV itself after zero iterations.
Non-linear heads start the descent at Z0 = AV, which is already stationary
for every form, so the unperturbed run converges at iteration 0; setting
``perturb_sigma`` > 0 adds seeded Gaussian noise to Z0 to make the
dynamics observable.

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
from .dynamics import DescentConfig, DescentTrace, descend, linear_descent
from .energy import EnergyForm, ShapeError
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
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

    The linear form runs ``linear_descent`` from Z0 = AV and so returns
    AV after zero iterations; every other form descends the regularized
    energy from Z0 = AV (+ seeded noise). Heads that read the same tokens
    through the same weights can share one context.
    """
    if ctx.q.shape[1] != spec.d_k or ctx.d_v != spec.d_v:
        raise ShapeError(
            f"context (d_k={ctx.q.shape[1]}, d_v={ctx.d_v}) does not match head spec "
            f"(d_k={spec.d_k}, d_v={spec.d_v})"
        )
    if spec.form.kind == "linear":
        z, trace = linear_descent(ctx, ctx.av, spec.descent)
    else:
        z0 = ctx.av
        if spec.perturb_sigma > 0.0:
            noise = GaussianStream(spec.perturb_seed).matrix(ctx.n, spec.d_v)
            # a start past the float range stops the descent as diverged
            with np.errstate(over="ignore", invalid="ignore"):
                z0 = ctx.av + spec.perturb_sigma * noise
        z, trace = descend(spec.form, ctx, z0, spec.descent)
    return HeadOutput(z=z, trace=trace, context=ctx)


def run_head(x: np.ndarray, w: ProjectionWeights, spec: HeadSpec) -> HeadOutput:
    """Check the weights against the spec, then build the context and solve it."""
    if (w.d, w.d_k, w.d_v) != (spec.d, spec.d_k, spec.d_v):
        raise ShapeError(
            f"weights (d={w.d}, d_k={w.d_k}, d_v={w.d_v}) do not match the head spec "
            f"(d={spec.d}, d_k={spec.d_k}, d_v={spec.d_v})"
        )
    return solve_head(build_context(x, w), spec)
