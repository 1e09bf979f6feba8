import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import energy_attention as ea
from energy_attention.dynamics import DescentConfig, DescentTrace, descend, gram_repays
from energy_attention.energy import (
    EXPONENTIAL,
    QUADRATIC,
    form_remainder,
    frobenius_norm,
    polynomial,
)

from helpers import gaussian_head_inputs, offset_context, wellconditioned_head_seeds

ALL_FORMS = [ea.LINEAR, QUADRATIC, polynomial(1), polynomial(3), EXPONENTIAL]


def small_context(seed=5, n=4, d=8, d_k=2, d_v=2):
    x, w = gaussian_head_inputs(seed, n, d, d_k, d_v)
    return ea.build_context(x, w)


def hand_context():
    """Identity attention over two tokens with value column (1, 2)."""
    v = np.array([[1.0], [2.0]])
    a = np.eye(2)
    return ea.AttentionContext(v=v, a=a, av=a @ v)


@pytest.mark.parametrize("form", [QUADRATIC] + [polynomial(p) for p in range(1, 9)])
def test_form_remainder_matches_exact_rationals(form):
    # F(u - h) - F(u) + F'(u) h in exact arithmetic; the computed remainder
    # may err by a few ulp of each of its binomial terms
    p = form.degree
    rng = np.random.default_rng(p)
    u = rng.standard_normal(64) * 10.0 ** rng.uniform(-2, 2, 64)
    h = u * 10.0 ** rng.uniform(-6, 0, 64) * rng.choice([-1.0, 1.0], 64)
    got = form_remainder(form, u, h)
    for uj, hj, rj in zip(u, h, got):
        fu, fh = Fraction(uj), Fraction(hj)
        exact = (fu - fh) ** p - fu**p + p * fu ** (p - 1) * fh
        terms = sum(math.comb(p, k) * abs(fu) ** (p - k) * abs(fh) ** k for k in range(2, p + 1))
        assert abs(Fraction(rj) - exact) <= 2 * p * Fraction(np.finfo(float).eps) * terms


class TestDescentConfig:
    def test_defaults(self):
        cfg = DescentConfig()
        assert cfg.eta == 0.01 and cfg.max_iters == 100
        assert cfg.grad_tol == 1e-8 and cfg.clip_norm is None and cfg.backtracking

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": -1.0},
            {"max_iters": 0},
            {"grad_tol": -1e-9},
            {"clip_norm": 0.0},
            {"eta": float("inf")},
            {"eta": float("nan")},
            {"grad_tol": float("nan")},
            # would stop every run as converged at iteration 0
            {"grad_tol": float("inf")},
            {"max_iters": 2.5},
            {"max_iters": True},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DescentConfig(**kwargs)


def one_step(eta, clip_norm=None):
    """A single fixed-eta update: no tolerance stop, no backtracking."""
    return DescentConfig(eta=eta, max_iters=1, grad_tol=0.0, clip_norm=clip_norm, backtracking=False)


# grad_tol = 0 descents at eta = 0.5 as (form, (n, d_v, sigma), config, forms
# B), for the three maps descend binds: the Gram product B w, L(L^T w) below
# B's budget threshold (31 (4 d_v - 2) < n), and the degree-1 functional. At
# n = 64, d_v = 1 the scores are small, so only a wide start keeps the clip
# active on p = 4.
CARRIED_CASES = [
    pytest.param(
        form, start, DescentConfig(eta=0.5, max_iters=budget, grad_tol=0.0, clip_norm=clip),
        forms_gram, id=f"{prefix}{form.label}-{clip}",
    )
    for prefix, start, budget, forms_gram in (
        ("", (16, 4, 0.5), 200, True),
        ("below-threshold-", (64, 1, 4.0), 31, False),
    )
    for form in (QUADRATIC, polynomial(4), EXPONENTIAL)
    for clip in (None, 0.005)
] + [
    pytest.param(
        ea.LINEAR, (16, 4, 0.5),
        DescentConfig(eta=0.5, max_iters=200, grad_tol=0.0, backtracking=backtracking),
        False, id=f"linear-backtracking={backtracking}",
    )
    for backtracking in (True, False)
]


def carried_descent(form, start, cfg):
    """(context, trace, energy, gradient norm) of a descent, the last two
    evaluated afresh at its returned Z."""
    n, d_v, sigma = start
    x, w = gaussian_head_inputs(3, n, 8, 4, d_v)
    ctx = ea.build_context(x, w)
    z0 = ctx.av + sigma * ea.GaussianStream(3).matrix(n, d_v)
    z, trace = descend(form, ctx, z0, cfg)
    if form.degree == 1:
        return ctx, trace, ea.linear_energy(z, ctx.av), frobenius_norm(z - ctx.av)
    ev = ea.regularized_energy(form, ctx.a, z, ctx.v, c=ea.reg_coeffs(ctx.a, ctx.av, ctx.v))
    return ctx, trace, ev.e_r, frobenius_norm(ev.grad)


class TestDescendStep:
    def test_stationary_point_is_fixed(self):
        ctx = hand_context()
        for form in ALL_FORMS:
            z, trace = descend(form, ctx, ctx.av, one_step(0.1))
            np.testing.assert_array_equal(z, ctx.av)
            assert trace.grad_norms == (0.0,)

    def test_quadratic_step_from_origin(self):
        ctx = hand_context()
        z, trace = descend(QUADRATIC, ctx, np.zeros((2, 1)), one_step(0.1))
        assert trace.iters == 1
        np.testing.assert_allclose(z, [[0.2], [1.6]])
        assert trace.grad_norms[0] == pytest.approx(np.sqrt(260.0), rel=1e-15)

    def test_clipping_preserves_direction_and_caps_length(self):
        ctx = hand_context()
        z, trace = descend(QUADRATIC, ctx, np.zeros((2, 1)), one_step(0.1, clip_norm=1.0))
        assert trace.iters == 1
        assert trace.grad_norms[0] == pytest.approx(np.sqrt(260.0), rel=1e-15)
        # step length eta * clip_norm along the gradient direction
        assert frobenius_norm(z) == pytest.approx(0.1, rel=1e-12)
        grad_dir = np.array([[-2.0], [-16.0]]) / np.sqrt(260.0)
        np.testing.assert_allclose(z, -0.1 * grad_dir, rtol=1e-12)


class TestDescend:
    def test_stationary_start_converges_immediately(self):
        ctx = small_context()
        for form in ALL_FORMS:
            z, trace = descend(form, ctx, ctx.av, DescentConfig())
            assert trace.converged and trace.iters == 0
            assert trace.stop_reason == "converged"
            assert len(trace.energies) == len(trace.grad_norms) == 1
            np.testing.assert_array_equal(z, ctx.av)

    def test_attention_output_is_exactly_stationary(self):
        # c is u(AV) evaluated through the same products, so the gradient at
        # AV is exactly 0 and even a zero tolerance stops at iteration 0
        ctx = small_context(n=64, d_k=4, d_v=16)
        for form in ALL_FORMS:
            _, trace = descend(form, ctx, ctx.av, DescentConfig(grad_tol=0.0))
            assert trace.grad_norms == (0.0,) and trace.stop_reason == "converged"

    def test_perturbed_quadratic_recovers_stationarity(self):
        seed, n, d_v = wellconditioned_head_seeds(1)[0]
        x, w = gaussian_head_inputs(seed, n, 8, 4, d_v)
        ctx = ea.build_context(x, w)
        z0 = ctx.av + 0.1 * ea.GaussianStream(99).matrix(n, d_v)
        cfg = DescentConfig(eta=0.1, max_iters=500, grad_tol=1e-6)
        z, trace = descend(QUADRATIC, ctx, z0, cfg)
        assert trace.converged
        assert np.all(np.diff(trace.energies) <= 1e-12)
        assert trace.grad_norms[-1] <= 1e-6

    def test_oversized_fixed_step_flags_divergence(self):
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(1).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=1e4, max_iters=100, grad_tol=0.0, backtracking=False)
        _, trace = descend(QUADRATIC, ctx, z0, cfg)
        assert trace.diverged and not trace.converged
        assert trace.stop_reason == "diverged"

    def test_nonfinite_iterate_flags_divergence(self):
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(1).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=1e150, max_iters=100, grad_tol=0.0, backtracking=False)
        _, trace = descend(QUADRATIC, ctx, z0, cfg)
        assert trace.diverged
        assert all(np.isfinite(e) for e in trace.energies)

    def test_odd_degree_runaway_leaves_finite_trace(self):
        # E = sum u_j^3 is unbounded below; a perturbed run can race downhill
        # until values overflow, which must end in a divergence flag rather
        # than inf entries in the trace
        ctx = small_context(seed=7, n=6, d=8, d_k=4, d_v=2)
        z0 = ctx.av + 0.05 * ea.GaussianStream(8).matrix(6, 2)
        cfg = DescentConfig(eta=0.05, max_iters=500, grad_tol=1e-6)
        _, trace = descend(polynomial(3), ctx, z0, cfg)
        assert trace.diverged and not trace.converged
        assert all(np.isfinite(e) for e in trace.energies)
        assert all(np.isfinite(g) for g in trace.grad_norms)

    def test_trace_lengths_match_iteration_count(self):
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(2).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=1e-4, max_iters=7, grad_tol=0.0)
        _, trace = descend(QUADRATIC, ctx, z0, cfg)
        assert trace.iters == 7 and trace.stop_reason == "max_iters"
        assert len(trace.energies) == len(trace.grad_norms) == 8

    def test_descent_is_deterministic(self):
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(3).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=0.05, max_iters=50, grad_tol=1e-10)
        z1, t1 = descend(EXPONENTIAL, ctx, z0, cfg)
        z2, t2 = descend(EXPONENTIAL, ctx, z0, cfg)
        assert t1 == t2
        np.testing.assert_array_equal(z1, z2)

    @pytest.mark.parametrize(
        "cfg",
        [
            DescentConfig(eta=0.5, max_iters=400, grad_tol=1e-10),
            DescentConfig(eta=0.02, max_iters=30, clip_norm=0.01, backtracking=False),
        ],
    )
    def test_quadratic_descends_as_degree_two_bit_for_bit(self, cfg):
        ctx = small_context(n=48, d=16, d_k=8, d_v=8)
        z0 = ctx.av + 0.1 * ea.GaussianStream(4).matrix(ctx.n, ctx.d_v)
        (z, trace), (z2, trace2) = (descend(f, ctx, z0, cfg) for f in (QUADRATIC, polynomial(2)))
        assert trace.iters > 0 and trace.stop_reason == trace2.stop_reason
        for got, want in ((z, z2), (trace.energies, trace2.energies), (trace.grad_norms, trace2.grad_norms)):
            np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

    @pytest.mark.parametrize("backtracking", [False, True])
    def test_exponential_overflow_flags_divergence(self, backtracking):
        # from -z0 a step of eta = 1e6 pushes scores past the float range of
        # e^u; the trial's energy change is inf, which ends the run as diverged
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(1).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=1e6, max_iters=100, grad_tol=0.0, backtracking=backtracking)
        _, trace = descend(EXPONENTIAL, ctx, -z0, cfg)
        assert trace.stop_reason == "diverged" and trace.diverged
        assert all(np.isfinite(e) for e in trace.energies)

    def test_unreachable_decrease_stops_as_stalled(self):
        # no trial within 60 halvings of eta = 1e30 lowers E_R
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(1).matrix(ctx.n, ctx.d_v)
        z, trace = descend(QUADRATIC, ctx, z0, DescentConfig(eta=1e30, max_iters=100))
        assert trace.stop_reason == "stalled"
        assert not trace.converged and not trace.diverged and trace.iters == 0
        np.testing.assert_array_equal(z, z0)

    def test_flat_energy_does_not_stall_backtracking(self):
        # E_R is flat to machine precision long before the gradient reaches
        # 1e-11 on this instance; deciding acceptance by subtracting two
        # energies let rounding reject every step until max_iters ran out
        x, w = gaussian_head_inputs(15, 2, 8, 4, 4)
        spec = ea.HeadSpec(
            d=8, d_k=4, d_v=4, form=QUADRATIC,
            descent=DescentConfig(eta=0.5, max_iters=5000, grad_tol=1e-11),
            perturb_sigma=0.1, perturb_seed=0,
        )
        trace = ea.run_head(x, w, spec).trace
        fixed = ea.run_head(
            x, w, replace(spec, descent=replace(spec.descent, backtracking=False))
        ).trace
        assert trace.stop_reason == "converged" and trace.converged
        assert fixed.converged and trace.iters <= fixed.iters

    @pytest.mark.parametrize("form, start, cfg, forms_gram", CARRIED_CASES)
    def test_carried_energy_and_gradient_match_recomputation(self, form, start, cfg, forms_gram):
        # the loop carries u, E_R and the gradient from step to step; after
        # the whole budget they must still describe the returned Z
        ctx, trace, energy, grad_norm = carried_descent(form, start, cfg)
        assert trace.iters == cfg.max_iters
        assert ("gram" in vars(ctx)) == forms_gram
        if cfg.clip_norm is not None:
            assert trace.grad_norms[0] > cfg.clip_norm
        assert abs(trace.energies[-1] - energy) <= 1e-9 * (1.0 + abs(energy))
        assert trace.grad_norms[-1] == pytest.approx(grad_norm, rel=1e-6)
        assert np.all(np.diff(trace.energies) <= 0.0)

    @pytest.mark.parametrize("form, start, cfg, forms_gram", CARRIED_CASES)
    def test_last_grad_norm_is_taken_at_the_returned_z(self, form, start, cfg, forms_gram):
        # steps carry the scores through B, whose rounding the summed step
        # weights amplify; the last norm must still describe the returned Z
        ctx, trace, _, fresh = carried_descent(form, start, cfg)
        assert ("gram" in vars(ctx)) == forms_gram
        assert trace.grad_norms[-1] == pytest.approx(fresh, rel=1e-12)

    def test_stop_is_decided_on_the_explicit_gradient_norm(self):
        # a Gram matrix that understates every w^T B w must not end the run
        # as converged: each candidate stop is checked at the formed Z
        ctx = small_context()
        z0 = ctx.av + 0.1 * ea.GaussianStream(1).matrix(ctx.n, ctx.d_v)
        ctx.__dict__["gram"] = ctx.gram * 1e-12
        z, trace = descend(QUADRATIC, ctx, z0, DescentConfig(eta=0.5, max_iters=20, grad_tol=1e-6))
        c = ea.reg_coeffs(ctx.a, ctx.av, ctx.v)
        fresh = frobenius_norm(ea.regularized_energy(QUADRATIC, ctx.a, z, ctx.v, c=c).grad)
        assert trace.stop_reason == "max_iters" and trace.iters == 20
        assert trace.grad_norms[-1] == fresh > 1e-6

    def test_backtracking_keeps_energy_monotone_for_convex_forms(self):
        ctx = small_context(seed=8)
        z0 = ctx.av + 0.5 * ea.GaussianStream(4).matrix(ctx.n, ctx.d_v)
        for form in (QUADRATIC, EXPONENTIAL):
            _, trace = descend(form, ctx, z0, DescentConfig(eta=0.5, max_iters=200, grad_tol=1e-9))
            assert np.all(np.diff(trace.energies) <= 1e-12)


class TestGramBudgetRule:
    """B is formed iff max_iters (4 d_v - 2) >= n; else B w is L(L^T w)."""

    def test_rule_is_an_integer_comparison(self):
        assert gram_repays(32, 64, 1) and not gram_repays(31, 64, 1)
        # 2^53 + 1 tokens: a float product would round the budget up to n
        assert not gram_repays(2**52, 2**53 + 1, 1)

    @staticmethod
    def start():
        # n = 64, d_v = 1: the threshold is 64 / 2 = 32 steps
        ctx = small_context(n=64, d_v=1)
        return ctx, ctx.av + 0.1 * ea.GaussianStream(2).matrix(ctx.n, ctx.d_v)

    @pytest.mark.parametrize("max_iters, forms_gram", [(32, True), (31, False)])
    def test_threshold_decides_whether_b_is_formed(self, max_iters, forms_gram):
        ctx, z0 = self.start()
        _, trace = descend(QUADRATIC, ctx, z0, DescentConfig(eta=0.5, max_iters=max_iters))
        assert trace.iters > 0
        assert ("gram" in vars(ctx)) == forms_gram

    @pytest.mark.parametrize(
        "form", [QUADRATIC, polynomial(4), EXPONENTIAL], ids=lambda f: f.label
    )
    def test_below_threshold_trace_matches_the_gram_path(self, form):
        ctx, z0 = self.start()
        cfg = DescentConfig(eta=0.5, max_iters=5, grad_tol=0.0)
        _, short = descend(form, ctx, z0, cfg)
        assert "gram" not in vars(ctx) and short.iters == 5
        _, long = descend(form, ctx, z0, replace(cfg, max_iters=40))
        assert "gram" in vars(ctx)
        assert np.allclose(short.energies, long.energies[:6], rtol=1e-12, atol=0.0)
        assert np.allclose(short.grad_norms, long.grad_norms[:6], rtol=1e-12, atol=0.0)


class TestOneAttentionOutput:
    """descend reads the context's AV; it never multiplies A by V itself."""

    def test_linear_start_energy_is_taken_at_the_context_av(self):
        ctx = offset_context()
        z0 = np.ones((ctx.n, ctx.d_v))
        _, trace = descend(ea.LINEAR, ctx, z0, DescentConfig(eta=0.5, max_iters=3))
        assert trace.energies[0] == ea.linear_energy(z0, ctx.av)
        assert trace.energies[0] != ea.linear_energy(z0, ctx.a @ ctx.v)

    @pytest.mark.parametrize("form", [QUADRATIC, polynomial(3), EXPONENTIAL], ids=lambda f: f.label)
    def test_nonlinear_head_is_stationary_at_the_context_av(self, form):
        # c is u(ctx.av), so the gradient there is exactly 0
        ctx = offset_context()
        _, trace = descend(form, ctx, ctx.av, DescentConfig(grad_tol=0.0))
        assert trace.converged and trace.iters == 0 and trace.grad_norms == (0.0,)


class TestLinearDescent:
    @pytest.mark.parametrize("backtracking", [True, False])
    def test_polynomial_one_descends_the_linear_functional(self, backtracking):
        ctx = small_context()
        z0 = ctx.av + 0.5 * ea.GaussianStream(3).matrix(ctx.n, ctx.d_v)
        cfg = DescentConfig(eta=0.3, max_iters=20, grad_tol=1e-9, backtracking=backtracking)
        z, trace = descend(polynomial(1), ctx, z0, cfg)
        z_lin, trace_lin = descend(ea.LINEAR, ctx, z0, cfg)
        assert z.tobytes() == z_lin.tobytes() and repr(trace) == repr(trace_lin)
        assert trace.iters > 0 and trace.energies[-1] < trace.energies[0]

    def test_start_at_attention_output(self):
        ctx = small_context()
        z, trace = descend(ea.LINEAR, ctx, np.array(ctx.av), DescentConfig())
        assert trace.converged and trace.iters == 0

    def test_unit_step_is_exact(self):
        ctx = small_context()
        z0 = np.zeros((ctx.n, ctx.d_v))
        z, trace = descend(ea.LINEAR, ctx, z0, DescentConfig(eta=1.0, max_iters=10, grad_tol=1e-12))
        assert trace.iters == 1
        np.testing.assert_array_equal(z, ctx.av)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.7])
    def test_geometric_contraction(self, eta):
        # 10 steps keep the smallest expected error above the rounding floor
        ctx = small_context()
        z0 = np.zeros((ctx.n, ctx.d_v))
        cfg = DescentConfig(eta=eta, max_iters=10, grad_tol=0.0, backtracking=False)
        _, trace = descend(ea.LINEAR, ctx, z0, cfg)
        base = trace.grad_norms[0]
        for t, grad_norm in enumerate(trace.grad_norms):
            expected = abs(1.0 - eta) ** t * base
            assert grad_norm == pytest.approx(expected, rel=1e-9)


def test_descend_returns_a_head_output():
    ctx = small_context()
    out = descend(QUADRATIC, ctx, ctx.av, DescentConfig())
    assert isinstance(out, ea.HeadOutput)
    assert out.z is out[0] and out.trace is out[1] and out.trace.converged


def test_trace_dataclass_shape():
    trace = DescentTrace(energies=(1.0,), grad_norms=(0.0,), stop_reason="converged")
    assert trace.iters == 0 and trace.converged and not trace.diverged


@pytest.mark.parametrize(
    "stop_reason, converged, diverged",
    [
        ("converged", True, False),
        ("max_iters", False, False),
        ("diverged", False, True),
        ("stalled", False, False),
    ],
)
def test_trace_flags_follow_stop_reason(stop_reason, converged, diverged):
    trace = DescentTrace(energies=(3.0, 2.0, 1.0), grad_norms=(1.0, 0.5, 0.25), stop_reason=stop_reason)
    assert (trace.iters, trace.converged, trace.diverged) == (2, converged, diverged)


def test_trace_rejects_unknown_stop_reason():
    with pytest.raises(ValueError):
        DescentTrace(energies=(1.0,), grad_norms=(0.0,), stop_reason="finished")
