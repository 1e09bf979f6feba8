import numpy as np
import pytest

import energy_attention as ea
from energy_attention.energy import EXPONENTIAL, LINEAR, QUADRATIC, ExpOverflowError, polynomial
from energy_attention.heads import (
    HeadSpec,
    linear_head,
    multi_head,
    nonlinear_head,
    run_head,
    solve_head,
)
from energy_attention.linalg import ShapeError

from helpers import gaussian_head_inputs, wellconditioned_head_seeds


def spec_for(form, d=8, d_k=2, d_v=2, **descent_kwargs):
    descent = ea.DescentConfig(**descent_kwargs) if descent_kwargs else ea.DescentConfig()
    return HeadSpec(d=d, d_k=d_k, d_v=d_v, form=form, descent=descent)


class TestLinearHead:
    def test_single_token_returns_value_row(self):
        x, w = gaussian_head_inputs(1, 1, 8, 2, 2)
        out = linear_head(x, w, spec_for(LINEAR))
        np.testing.assert_array_equal(out.z, out.context.v)

    def test_zero_tokens_give_zero_output(self):
        x, w = gaussian_head_inputs(2, 3, 8, 2, 2)
        out = linear_head(np.zeros_like(x), w, spec_for(LINEAR))
        np.testing.assert_array_equal(out.z, np.zeros((3, 2)))
        np.testing.assert_allclose(out.context.a, np.full((3, 3), 1.0 / 3.0))

    def test_output_matches_attention_product_bitwise(self):
        x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
        out = linear_head(x, w, spec_for(LINEAR))
        recomputed = ea.attention_output(out.context.a, out.context.v)
        assert np.array_equal(out.z, recomputed)

    def test_zero_iteration_trace(self):
        x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
        out = linear_head(x, w, spec_for(LINEAR))
        assert out.trace.iters == 0 and out.trace.converged
        assert out.trace.grad_norms == (0.0,)
        assert len(out.trace.energies) == 1

    def test_rejects_nonlinear_form(self):
        x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
        with pytest.raises(ValueError):
            linear_head(x, w, spec_for(QUADRATIC))


class TestNonlinearHead:
    def test_unperturbed_start_is_stationary(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        for form in (QUADRATIC, polynomial(3), EXPONENTIAL):
            out = nonlinear_head(x, w, spec_for(form))
            assert out.trace.converged and out.trace.iters == 0
            np.testing.assert_array_equal(out.z, out.context.av)

    def test_linear_form_delegates_to_closed_form(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        via_dispatch = nonlinear_head(x, w, spec_for(LINEAR))
        direct = linear_head(x, w, spec_for(LINEAR))
        np.testing.assert_array_equal(via_dispatch.z, direct.z)
        assert via_dispatch.trace == direct.trace

    def test_perturbed_quadratic_descends_back(self):
        seed, n, d_v = wellconditioned_head_seeds(1)[0]
        x, w = gaussian_head_inputs(seed, n, 8, 4, d_v)
        spec = HeadSpec(
            d=8, d_k=4, d_v=d_v, form=QUADRATIC,
            descent=ea.DescentConfig(eta=0.1, max_iters=500, grad_tol=1e-6),
            perturb_sigma=0.1, perturb_seed=seed + 1,
        )
        out = nonlinear_head(x, w, spec)
        assert out.trace.converged
        assert np.all(np.diff(out.trace.energies) <= 1e-12)
        assert out.trace.grad_norms[-1] <= 1e-6

    def test_perturbation_is_seeded(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        spec = HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=0.1, perturb_seed=12)
        first = nonlinear_head(x, w, spec)
        second = nonlinear_head(x, w, spec)
        np.testing.assert_array_equal(first.z, second.z)
        assert first.trace == second.trace

    def test_overflowing_scale_raises_diagnostic(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2, scale=40.0)
        with pytest.raises(ExpOverflowError):
            nonlinear_head(x, w, spec_for(EXPONENTIAL))

    def test_token_dim_mismatch(self):
        x, w = gaussian_head_inputs(4, 4, 8, 2, 2)
        with pytest.raises(ShapeError):
            nonlinear_head(x[:, :5], w, spec_for(QUADRATIC))


class TestMultiHead:
    def test_single_head_identity(self):
        x, w = gaussian_head_inputs(6, 4, 8, 2, 2)
        spec = spec_for(QUADRATIC)
        alone = run_head(x, w, spec).z
        stacked = multi_head(x, [(w, spec)])
        np.testing.assert_array_equal(stacked, alone)

    def test_duplicate_heads_duplicate_columns(self):
        x, w = gaussian_head_inputs(6, 4, 8, 2, 2)
        spec = spec_for(LINEAR)
        out = multi_head(x, [(w, spec), (w, spec)])
        np.testing.assert_array_equal(out[:, :2], out[:, 2:])

    def test_mixed_value_widths_concatenate(self):
        x, w2 = gaussian_head_inputs(6, 4, 8, 2, 2)
        _, w3 = gaussian_head_inputs(7, 4, 8, 2, 3)
        out = multi_head(x, [(w2, spec_for(QUADRATIC, d_v=2)), (w3, spec_for(QUADRATIC, d_v=3))])
        assert out.shape == (4, 5)

    def test_first_head_block_is_bit_identical_to_solo_run(self):
        x, w2 = gaussian_head_inputs(6, 4, 8, 2, 2)
        _, w3 = gaussian_head_inputs(7, 4, 8, 2, 3)
        solo = run_head(x, w2, spec_for(QUADRATIC, d_v=2)).z
        stacked = multi_head(x, [(w2, spec_for(QUADRATIC, d_v=2)), (w3, spec_for(QUADRATIC, d_v=3))])
        assert np.array_equal(stacked[:, :2], solo)

    def test_inconsistent_embedding_dim_rejected(self):
        x, w = gaussian_head_inputs(6, 4, 8, 2, 2)
        bad_spec = HeadSpec(d=6, d_k=2, d_v=2, form=QUADRATIC)
        with pytest.raises(ShapeError):
            multi_head(x, [(w, spec_for(QUADRATIC)), (w, bad_spec)])

    def test_empty_head_list_rejected(self):
        x, _ = gaussian_head_inputs(6, 4, 8, 2, 2)
        with pytest.raises(ValueError):
            multi_head(x, [])


class TestSolveHead:
    @pytest.mark.parametrize("form", [LINEAR, QUADRATIC, polynomial(4), EXPONENTIAL])
    def test_shared_context_matches_run_head(self, form):
        x, w = gaussian_head_inputs(8, 5, 8, 2, 3)
        ctx = ea.build_context(x, w, 2)
        for seed in (1, 2):
            spec = HeadSpec(
                d=8, d_k=2, d_v=3, form=form,
                descent=ea.DescentConfig(eta=0.1, max_iters=20),
                perturb_sigma=0.1, perturb_seed=seed,
            )
            shared, alone = solve_head(ctx, spec), run_head(x, w, spec)
            assert shared.context is ctx
            assert np.array_equal(shared.z, alone.z)
            assert shared.trace == alone.trace

    def test_context_must_match_spec(self):
        x, w = gaussian_head_inputs(8, 5, 8, 2, 3)
        ctx = ea.build_context(x, w, 2)
        for d_k, d_v in ((2, 1), (3, 3)):
            with pytest.raises(ShapeError):
                solve_head(ctx, HeadSpec(d=8, d_k=d_k, d_v=d_v, form=LINEAR))


class TestHeadSpec:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HeadSpec(d=0, d_k=2, d_v=2, form=QUADRATIC)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            HeadSpec(d=8, d_k=2, d_v=2, form=QUADRATIC, perturb_sigma=sigma)
