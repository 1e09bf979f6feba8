"""Shared seeded-instance builders for the test suite."""

import numpy as np

import energy_attention as ea
from energy_attention.rng import GaussianStream


def gaussian_head_inputs(seed, n, d, d_k, d_v, scale=None):
    """Seeded token/weight matrices with the CLI generator's N(0, 1/d) scaling."""
    stream = GaussianStream(seed)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    x = stream.matrix(n, d, scale)
    w = ea.ProjectionWeights(
        stream.matrix(d, d_k, scale),
        stream.matrix(d, d_k, scale),
        stream.matrix(d, d_v, scale),
    )
    return x, w


def unregularized_grad(form, a, z, v):
    """grad E = L^T F'(u(Z)), the energy's gradient without the regularizer R."""
    return ea.energy.alignment_adjoint(a, ea.f_prime(form, ea.alignment_scores(a, z, v)), v)


def stacked(energy_fn):
    """``fd_gradient``'s stack form of a one-state energy: one call per state."""
    return lambda states: [energy_fn(z) for z in states]


def context(a, v, av=None):
    """A hand-built context over A and V whose AV is ``av``, a @ v unless given."""
    return ea.AttentionContext(v=v, a=a, av=a @ v if av is None else av)


def offset_context(seed=7, n=6, d_v=2, offset=0.5):
    """A context whose read-only AV is a @ v plus seeded noise.

    Code that multiplies A by V itself, rather than read ``ctx.av``, sees
    another AV than the context's and so fails a check made at ``ctx.av``.
    """
    ctx = ea.build_context(*gaussian_head_inputs(seed, n, 8, 4, d_v))
    av = ctx.a @ ctx.v + offset * GaussianStream(seed + 1).matrix(n, d_v)
    av.setflags(write=False)
    return context(ctx.a, ctx.v, av)


def random_attention(rng, n, sharpness=1.0):
    """Row-stochastic attention weights from random scores."""
    return ea.row_softmax(sharpness * rng.normal(size=(n, n)))


def curvature_condition(ctx):
    """Condition number of the curvature proxy (A^T A) o (V V^T).

    The regularized energy's Hessian spectrum is governed by this Hadamard
    product; its positive eigenvalue spread bounds how fast plain gradient
    descent can converge.
    """
    b = (ctx.a.T @ ctx.a) * (ctx.v @ ctx.v.T)
    evals = np.linalg.eigvalsh(b)
    top = float(evals.max())
    positive = evals[evals > 1e-12 * top]
    return top / float(positive.min())


def wellconditioned_head_seeds(count, threshold=60.0):
    """First ``count`` seeds whose head instances have bounded conditioning.

    First-order descent needs on the order of kappa * log(g0/tol)
    iterations, so descent-recovery tests with a fixed iteration budget
    draw instances whose curvature condition number stays below
    ``threshold``. Returns (seed, n, d_v) triples; d=8, d_k=4 throughout.
    """
    picked = []
    seed = 0
    while len(picked) < count:
        n = 2 + seed % 15
        d_v = 1 + seed % 4
        x, w = gaussian_head_inputs(seed, n, 8, 4, d_v)
        ctx = ea.build_context(x, w)
        if curvature_condition(ctx) <= threshold:
            picked.append((seed, n, d_v))
        seed += 1
    return picked
