"""Attention heads: descent from Z0 = AV on the energy of the head's form.

A head projects tokens, forms the attention context, and produces a state
matrix Z. Every head starts the descent at Z0 = AV, which is stationary
for every form, so the unperturbed run converges at iteration 0. Setting
``perturb_sigma`` > 0 adds seeded Gaussian noise to Z0 to make the
dynamics observable, except for a degree-1 head (F(u) = u, the linear
form): it draws no noise and so returns AV itself after zero iterations,
the standard attention output.

``run_head`` is the one entry point from tokens and weights: it builds the
head's context and calls ``solve_head``, which does the work from a built
context. An output holds Z and its trace; a caller that needs A, V or AV, or
that shares one context among heads (as ``run`` does), builds the context and
calls ``solve_head``. A context's cached values live as long as the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionContext, ProjectionWeights, build_context
from .dynamics import DescentConfig, HeadOutput, descend
from .energy import EnergyForm, ShapeError, check_count, check_real
from .rng import GaussianStream

__all__ = ["HeadSpec", "solve_head", "run_head"]


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
            check_count(name, getattr(self, name))
        if not isinstance(self.form, EnergyForm):
            raise ValueError(f"form must be an EnergyForm, got {self.form!r}")
        if not isinstance(self.descent, DescentConfig):
            raise ValueError(f"descent must be a DescentConfig, got {self.descent!r}")
        check_real("perturb_sigma", self.perturb_sigma)
        check_count("perturb_seed", self.perturb_seed, 0, 2**64)


def solve_head(ctx: AttentionContext, spec: HeadSpec) -> HeadOutput:
    """Descend from Z0 = AV (+ seeded noise) on a built context; returns ``descend``'s output.

    A degree-1 head draws no noise, so it returns AV after zero
    iterations. Heads that read the same tokens through the same weights
    can share one context, and with it any B it caches.
    """
    if ctx.d_k != spec.d_k or ctx.d_v != spec.d_v:
        raise ShapeError(
            f"context (d_k={ctx.d_k}, d_v={ctx.d_v}) does not match head spec "
            f"(d_k={spec.d_k}, d_v={spec.d_v})"
        )
    z0 = ctx.av
    if spec.perturb_sigma > 0.0 and spec.form.degree != 1:
        noise = GaussianStream(spec.perturb_seed).matrix(ctx.n, spec.d_v)
        # a start past the float range stops the descent as diverged
        with np.errstate(over="ignore", invalid="ignore"):
            z0 = ctx.av + spec.perturb_sigma * noise
    return descend(spec.form, ctx, z0, spec.descent)


def run_head(x: np.ndarray, w: ProjectionWeights, spec: HeadSpec) -> HeadOutput:
    """Check the weights against the spec, then build the context and solve it.

    No other head can reach the context, so it goes once the head is solved.
    """
    if (w.d, w.d_k, w.d_v) != (spec.d, spec.d_k, spec.d_v):
        raise ShapeError(
            f"weights (d={w.d}, d_k={w.d_k}, d_v={w.d_v}) do not match the head spec "
            f"(d={spec.d}, d_k={spec.d_k}, d_v={spec.d_v})"
        )
    return solve_head(build_context(x, w), spec)
