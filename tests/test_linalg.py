import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from energy_attention.linalg import ShapeError, as_matrix, frobenius_inner, frobenius_norm

I2 = np.eye(2)

well_scaled = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
dims = st.integers(min_value=1, max_value=8)


def mat(rows, cols):
    return arrays(np.float64, (rows, cols), elements=well_scaled)


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_copies_input(self):
        src = np.ones((2, 2))
        m = as_matrix(src)
        m[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestFrobeniusInner:
    def test_identity_pair(self):
        assert frobenius_inner(I2, I2) == 2.0

    def test_zero_operand(self):
        assert frobenius_inner(np.array([[1.0, -3.0]]), np.zeros((1, 2))) == 0.0

    def test_direct_sum(self):
        assert frobenius_inner(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])) == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_inner(np.zeros((2, 2)), np.zeros((2, 3)))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert frobenius_norm(I2) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0], [4.0]])) == 5.0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_inner_product_equals_trace(data):
    rows, cols = data.draw(dims), data.draw(dims)
    a = data.draw(mat(rows, cols))
    b = data.draw(mat(rows, cols))
    inner = frobenius_inner(a, b)
    trace = float(np.diagonal(a.T @ b).sum())
    assert abs(inner - trace) <= 1e-12 * (1.0 + abs(inner))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_norm_squared_equals_self_inner(data):
    m = data.draw(mat(data.draw(dims), data.draw(dims)))
    norm_sq = frobenius_norm(m) ** 2
    inner = frobenius_inner(m, m)
    assert abs(norm_sq - inner) <= 1e-12 * (1.0 + inner)
