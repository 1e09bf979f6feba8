import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import energy_attention as ea
from energy_attention import heads
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    ShapeError,
    polynomial,
)
from energy_attention.heads import HeadSpec, run_head, solve_head

from helpers import gaussian_head_inputs, wellconditioned_head_seeds


def spec_for(form, d=8, d_k=2, d_v=2, **descent_kwargs):
    descent = ea.DescentConfig(**descent_kwargs) if descent_kwargs else ea.DescentConfig()
    return HeadSpec(d=d, d_k=d_k, d_v=d_v, form=form, descent=descent)


def solved(x, w, spec):
    """(context, output) of one head; the output holds Z and the trace, not the context."""
    ctx = ea.build_context(x, w)
    return ctx, solve_head(ctx, spec)


class TestLinearHead:
    def test_single_token_returns_value_row(self):
        x, w = gaussian_head_inputs(1, 1, 8, 2, 2)
        ctx, out = solved(x, w, spec_for(LINEAR))
        np.testing.assert_array_equal(out.z, ctx.v)

    def test_zero_tokens_give_zero_output(self):
        x, w = gaussian_head_inputs(2, 3, 8, 2, 2)
        ctx, out = solved(np.zeros_like(x), w, spec_for(LINEAR))
        np.testing.assert_array_equal(out.z, np.zeros((3, 2)))
        np.testing.assert_allclose(ctx.a, np.full((3, 3), 1.0 / 3.0))

    def test_output_matches_attention_product_bitwise(self):
        x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
        ctx, out = solved(x, w, spec_for(LINEAR))
        recomputed = ea.attention_output(ctx.a, ctx.v)
        assert np.array_equal(out.z, recomputed)

    def test_zero_iteration_trace(self):
        x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
        ctx, out = solved(x, w, spec_for(LINEAR))
        assert out.trace.iters == 0 and out.trace.converged
        assert out.trace.grad_norms == (0.0,)
        assert out.trace.energies == (ea.linear_energy(ctx.av, ctx.av),)
        assert out.z is ctx.av


class TestDegreeOneHead:
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_polynomial_one_is_the_linear_head_bit_for_bit(self, sigma):
        # F(u) = u either way: no noise is drawn and Z = AV after 0 steps
        x, w = gaussian_head_inputs(7, 6, 8, 2, 2)
        ctx = ea.build_context(x, w)
        linear, degree_one = (
            solve_head(ctx, HeadSpec(d=8, d_k=2, d_v=2, form=form, perturb_sigma=sigma, perturb_seed=7))
            for form in (LINEAR, polynomial(1))
        )
        assert degree_one.z.tobytes() == linear.z.tobytes()
        assert degree_one.z is ctx.av
        # repr tells -0.0 from 0.0 and keeps every digit
        assert repr(degree_one.trace) == repr(linear.trace)
        assert degree_one.trace.stop_reason == "converged" and degree_one.trace.energies[0] < 0.0


class TestNonlinearHead:
    def test_unperturbed_start_is_stationary(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        for form in (QUADRATIC, polynomial(3), EXPONENTIAL):
            ctx, out = solved(x, w, spec_for(form))
            assert out.trace.converged and out.trace.iters == 0
            np.testing.assert_array_equal(out.z, ctx.av)

    def test_perturbed_quadratic_descends_back(self):
        seed, n, d_v = wellconditioned_head_seeds(1)[0]
        x, w = gaussian_head_inputs(seed, n, 8, 4, d_v)
        spec = HeadSpec(
            d=8, d_k=4, d_v=d_v, form=QUADRATIC,
            descent=ea.DescentConfig(eta=0.1, max_iters=500, grad_tol=1e-6),
            perturb_sigma=0.1, perturb_seed=seed + 1,
        )
        out = run_head(x, w, spec)
        assert out.trace.converged
        assert np.all(np.diff(out.trace.energies) <= 1e-12)
        assert out.trace.grad_norms[-1] <= 1e-6

    def test_perturbation_is_seeded(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        spec = HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=0.1, perturb_seed=12)
        first = run_head(x, w, spec)
        second = run_head(x, w, spec)
        np.testing.assert_array_equal(first.z, second.z)
        assert first.trace == second.trace

    def test_overflowing_scale_diverges_at_iteration_0(self):
        # the scores at AV leave the float range of e^u; the head stops as a
        # quadratic one does, with its start as the output and no warning
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2, scale=40.0)
        ctx, out = solved(x, w, spec_for(EXPONENTIAL))
        assert out.trace.diverged and out.trace.iters == 0
        assert not math.isfinite(out.trace.grad_norms[0])
        np.testing.assert_array_equal(out.z, ctx.av)

    def test_token_dim_mismatch(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        with pytest.raises(ShapeError):
            run_head(x[:, :5], w, spec_for(QUADRATIC))


class TestRunHead:
    def test_embedding_dim_mismatch_rejected(self):
        x, w = gaussian_head_inputs(6, 4, 8, 2, 2)
        with pytest.raises(ShapeError):
            run_head(x, w, HeadSpec(d=6, d_k=2, d_v=2, form=QUADRATIC))

    def test_dk_weight_mismatch(self):
        x, w = gaussian_head_inputs(5, 4, 8, 2, 2)
        with pytest.raises(ShapeError):
            run_head(x, w, spec_for(QUADRATIC, d_k=3))

    @pytest.mark.parametrize("dims", [{"d": 6}, {"d_k": 3}, {"d_v": 1}])
    def test_spec_mismatch_is_found_before_the_context_is_built(self, monkeypatch, dims):
        x, w = gaussian_head_inputs(5, 4, 8, 2, 2)
        calls = []
        monkeypatch.setattr(heads, "build_context", lambda *args: calls.append(args))
        with pytest.raises(ShapeError):
            run_head(x, w, spec_for(QUADRATIC, **dims))
        assert calls == []

    @pytest.mark.parametrize("form", [LINEAR, QUADRATIC, polynomial(4), EXPONENTIAL])
    def test_output_pins_no_context(self, monkeypatch, form):
        # the context run_head builds goes, with A, V, AV and any B cached
        # on it, once the head is solved; the output keeps Z and the trace
        x, w = gaussian_head_inputs(8, 5, 8, 2, 3)
        refs = []

        def tracked_build_context(*args):
            ctx = ea.build_context(*args)
            refs.append(weakref.ref(ctx))
            return ctx

        monkeypatch.setattr(heads, "build_context", tracked_build_context)
        spec = HeadSpec(
            d=8, d_k=2, d_v=3, form=form,
            descent=ea.DescentConfig(eta=0.1, max_iters=20),
            perturb_sigma=0.1, perturb_seed=1,
        )
        out = run_head(x, w, spec)
        assert out._fields == ("z", "trace")
        assert len(refs) == 1 and refs[0]() is None
        assert out.z.shape == (5, 3) and (out.trace.iters > 0) == (form != LINEAR)

    def test_only_a_stepping_head_forms_the_gram_matrix(self):
        # a run_head output holds no context, so each head gets a context
        # built here and kept past solve_head
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        for spec in (spec_for(LINEAR), spec_for(QUADRATIC)):
            ctx = ea.build_context(x, w)
            solve_head(ctx, spec)
            assert "gram" not in ctx.__dict__
        spec = HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=0.1, perturb_seed=1)
        ctx = ea.build_context(x, w)
        solve_head(ctx, spec)
        assert "gram" in ctx.__dict__


class TestSolveHead:
    @pytest.mark.parametrize("form", [LINEAR, QUADRATIC, polynomial(4), EXPONENTIAL])
    def test_shared_context_matches_run_head(self, form):
        x, w = gaussian_head_inputs(8, 5, 8, 2, 3)
        ctx = ea.build_context(x, w)
        for seed in (1, 2):
            spec = HeadSpec(
                d=8, d_k=2, d_v=3, form=form,
                descent=ea.DescentConfig(eta=0.1, max_iters=20),
                perturb_sigma=0.1, perturb_seed=seed,
            )
            shared, alone = solve_head(ctx, spec), run_head(x, w, spec)
            assert np.array_equal(shared.z, alone.z)
            assert shared.trace == alone.trace
            # 20 * (4 d_v - 2) >= n: a stepping head forms B. The shared
            # context keeps it for the next head; run_head's own context
            # goes with its B once the head is solved, and no bit moves
            assert ("gram" in vars(ctx)) == (form != LINEAR)
            assert shared.z.tobytes() == alone.z.tobytes()
            assert repr(shared.trace) == repr(alone.trace)

    def test_small_budget_head_ignores_a_gram_matrix_formed_before(self):
        # below the budget threshold a head never uses B, even one that a
        # neighbour on the same context already formed
        x, w = gaussian_head_inputs(8, 64, 8, 2, 1)
        ctx = ea.build_context(x, w)
        big = HeadSpec(
            d=8, d_k=2, d_v=1, form=QUADRATIC,
            descent=ea.DescentConfig(eta=0.5, max_iters=40),
            perturb_sigma=0.1, perturb_seed=1,
        )
        solve_head(ctx, big)
        assert "gram" in vars(ctx)
        small = replace(big, descent=replace(big.descent, max_iters=5), perturb_seed=2)
        shared, alone = solve_head(ctx, small), run_head(x, w, small)
        assert shared.trace.iters > 0
        assert shared.z.tobytes() == alone.z.tobytes()
        assert repr(shared.trace) == repr(alone.trace)

    def test_context_must_match_spec(self):
        x, w = gaussian_head_inputs(8, 5, 8, 2, 3)
        ctx = ea.build_context(x, w)
        for d_k, d_v in ((2, 1), (3, 3)):
            with pytest.raises(ShapeError):
                solve_head(ctx, HeadSpec(d=8, d_k=d_k, d_v=d_v, form=LINEAR))


class TestHeadSpec:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HeadSpec(d=0, d_k=2, d_v=2, form=QUADRATIC)

    @pytest.mark.parametrize("name", ["d", "d_k", "d_v"])
    @pytest.mark.parametrize("value", [0, 2.5, True, "3"])
    def test_dimensions_must_be_positive_integers(self, name, value):
        dims = {"d": 8, "d_k": 2, "d_v": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value!r}$"):
            HeadSpec(**dims, form=QUADRATIC)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"form": "quadratic"}, "form must be an EnergyForm, got 'quadratic'"),
            ({"descent": {"eta": 0.1}}, "descent must be a DescentConfig, got {'eta': 0.1}"),
        ],
    )
    def test_form_and_descent_types_are_checked(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeadSpec(**{"d": 8, "d_k": 2, "d_v": 2, "form": QUADRATIC, **overrides})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_perturb_seed_must_be_a_uint64(self, seed):
        with pytest.raises(ValueError):
            HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=0.1, perturb_seed=seed)
