import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from energy_attention import attention
from energy_attention.attention import (
    AttentionContext,
    ProjectionWeights,
    attention_output,
    build_context,
    project,
    row_softmax,
    scaled_scores,
)
from energy_attention.energy import ShapeError, alignment_scores

from helpers import gaussian_head_inputs


def weights(w_q, w_k, w_v):
    return ProjectionWeights(np.asarray(w_q, float), np.asarray(w_k, float), np.asarray(w_v, float))


class TestProject:
    def test_identity_tokens(self):
        w = weights([[2.0, 0.0], [0.0, 3.0]], np.eye(2), np.eye(2))
        q, _, _ = project(np.eye(2), w)
        np.testing.assert_array_equal(q, [[2.0, 0.0], [0.0, 3.0]])

    def test_zero_tokens(self):
        w = weights(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 1)))
        q, k, v = project(np.zeros((3, 2)), w)
        assert not q.any() and not k.any() and not v.any()

    def test_direct_product(self):
        w = weights(np.eye(2), np.eye(2), [[1.0], [2.0]])
        _, _, v = project(np.array([[1.0, 1.0]]), w)
        np.testing.assert_array_equal(v, [[3.0]])

    def test_token_dim_mismatch(self):
        w = weights(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            project(np.zeros((2, 3)), w)


class TestProjectionWeights:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weights(np.eye(2), np.eye(3), np.eye(2))

    def test_dk_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weights(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 1)))


class TestScaledScores:
    def test_zero_scores(self):
        assert not scaled_scores(np.zeros((2, 4)), np.zeros((2, 4))).any()

    def test_all_ones(self):
        q = np.ones((2, 4))
        np.testing.assert_allclose(scaled_scores(q, q), np.full((2, 2), 2.0))

    def test_orthogonal(self):
        s = scaled_scores(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(s, [[0.0]])

    def test_zero_dk_rejected(self):
        with pytest.raises(ShapeError):
            scaled_scores(np.zeros((1, 0)), np.zeros((1, 0)))

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scaled_scores(np.zeros((2, 3)), np.zeros((2, 2)))


class TestRowSoftmax:
    def test_uniform_from_zeros(self):
        np.testing.assert_allclose(row_softmax(np.zeros((2, 2))), np.full((2, 2), 0.5))

    def test_log_two_row(self):
        a = row_softmax(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(a, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-15)

    def test_constant_row(self):
        a = row_softmax(np.full((1, 3), 17.25))
        np.testing.assert_allclose(a, np.full((1, 3), 1.0 / 3.0), rtol=1e-15)

    def test_extreme_scores_stay_finite(self):
        a = row_softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.isfinite(a).all()
        assert a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_three_temporary_form_and_keeps_input(self):
        rng = np.random.default_rng(0)
        for shape, scale in (((1, 1), 1.0), ((5, 7), 3.0), ((64, 64), 40.0), ((3, 9), 1e300)):
            s = rng.standard_normal(shape) * scale
            before = s.copy()
            shifted = s - s.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            assert np.array_equal(row_softmax(s), e / e.sum(axis=1, keepdims=True))
            assert np.array_equal(s, before)


class TestAttentionOutput:
    def test_identity_weights(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(attention_output(np.eye(2), v), v)

    def test_uniform_weights_average(self):
        v = np.array([[1.0], [3.0], [5.0]])
        out = attention_output(np.full((3, 3), 1.0 / 3.0), v)
        np.testing.assert_allclose(out, np.full((3, 1), 3.0))

    def test_hand_product(self):
        out = attention_output(np.full((2, 2), 0.5), np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[2.0], [2.0]])

    def test_value_rows_must_match_weights(self):
        with pytest.raises(ShapeError) as err:
            attention_output(np.eye(2), np.zeros((3, 1)))
        assert "(3, 1)" in str(err.value) and "(2, 2)" in str(err.value)


class TestBuildContext:
    def test_single_token_attends_to_itself(self):
        x = np.array([[0.3, -1.2]])
        w = weights(np.eye(2), np.eye(2), [[1.0], [2.0]])
        ctx = build_context(x, w)
        np.testing.assert_array_equal(ctx.a, [[1.0]])

    def test_zero_tokens_give_uniform_attention(self):
        w = weights(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 1)))
        ctx = build_context(np.zeros((3, 2)), w)
        np.testing.assert_allclose(ctx.a, np.full((3, 3), 1.0 / 3.0))
        assert not ctx.av.any()

    def test_seeded_rows_sum_to_one(self):
        x, w = gaussian_head_inputs(5, 4, 8, 2, 2)
        ctx = build_context(x, w)
        row_sums = np.array([sum(ctx.a[i, j] for j in range(4)) for i in range(4)])
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(ctx.av, ctx.a @ ctx.v, atol=1e-12)

    def test_context_is_read_only(self):
        x, w = gaussian_head_inputs(5, 4, 8, 2, 2)
        ctx = build_context(x, w)
        with pytest.raises(ValueError):
            ctx.av[0, 0] = 1.0

    @pytest.mark.parametrize("n", [4, 129])
    def test_weights_equal_row_softmax_of_the_scores_bit_for_bit(self, n):
        # build_context runs the softmax in the scores' buffer; row_softmax
        # in a fresh one, leaving its input as it was
        x, w = gaussian_head_inputs(n, n, 16, 4, 3)
        ctx = build_context(x, w)
        q, k, _ = project(x, w)
        s = scaled_scores(q, k)
        s_before = s.copy()
        assert np.array_equal(ctx.a, row_softmax(s))
        assert np.array_equal(s, s_before)

    def test_softmax_runs_through_row_softmax_once(self, monkeypatch):
        # the softmax layer is one function, so a wrapper on it sees every
        # call; it writes A over the scores, the head's one n x n buffer
        calls = []

        def counting_row_softmax(s, out=None):
            calls.append((s, out))
            return row_softmax(s, out=out)

        monkeypatch.setattr(attention, "row_softmax", counting_row_softmax)
        x, w = gaussian_head_inputs(5, 4, 8, 2, 2)
        ctx = build_context(x, w)
        assert len(calls) == 1
        assert calls[0][0] is ctx.a and calls[0][1] is ctx.a


class TestGram:
    @pytest.mark.parametrize(
        "n, d_v",
        # n around and past one 128-row tile of V V^T exercises the full,
        # partial and mirrored off-diagonal tiles
        [(1, 1), (2, 4), (7, 3), (16, 16)]
        + [(n, d_v) for n in (127, 128, 129, 300) for d_v in (1, 16)],
    )
    def test_equals_score_map_times_its_adjoint(self, n, d_v):
        # column j of B = L L^T is L applied to L^T e_j = A diag(e_j) V
        x, w = gaussian_head_inputs(n + d_v, n, 8, 4, d_v)
        ctx = build_context(x, w)
        assert np.array_equal(ctx.gram, ctx.gram.T)
        assert not ctx.gram.flags.writeable
        columns = [
            alignment_scores(ctx.a, ctx.a @ (ctx.v * e_j[:, None]), ctx.v)
            for e_j in np.eye(n)
        ]
        expected = np.stack(columns, axis=1)
        scale = np.abs(expected).max()
        assert np.abs(ctx.gram - expected).max() <= 1e-13 * scale

    def test_symmetric_read_only_and_formed_once(self):
        x, w = gaussian_head_inputs(3, 9, 8, 4, 2)
        ctx = build_context(x, w)
        assert "gram" not in ctx.__dict__
        b = ctx.gram
        assert np.array_equal(b, b.T)
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 1.0
        assert ctx.gram is b


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 6)),
        elements=st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
    )
)
@settings(max_examples=150, deadline=None)
def test_row_stochastic_with_positive_entries(s):
    # within-row gaps below ~700 keep every exp() above the underflow line
    a = row_softmax(s)
    assert (a > 0.0).all()
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 6)),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
)
@settings(max_examples=150, deadline=None)
def test_row_sums_survive_extreme_scores(s):
    a = row_softmax(s)
    assert np.isfinite(a).all() and (a >= 0.0).all()
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


@given(
    scores=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 6)),
        elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    ),
    shift=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_softmax_shift_invariance(scores, shift):
    base = row_softmax(scores)
    shifted = row_softmax(scores + shift)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_output_rows_stay_in_value_hull(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = row_softmax(rng.normal(size=(n, n)))
    v = rng.normal(size=(n, d_v))
    out = attention_output(a, v)
    lo = v.min(axis=0) - 1e-12
    hi = v.max(axis=0) + 1e-12
    assert (out >= lo).all() and (out <= hi).all()


def test_context_dataclass_accessors():
    x, w = gaussian_head_inputs(9, 3, 8, 5, 2)
    ctx = build_context(x, w)
    assert isinstance(ctx, AttentionContext)
    assert ctx.n == 3 and ctx.d_k == 5 and ctx.d_v == 2
    # the head reads Q and K only through A
    assert not hasattr(ctx, "q") and not hasattr(ctx, "k")
