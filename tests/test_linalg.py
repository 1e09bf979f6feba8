"""Matrix helpers: the Frobenius norm (energy.py) and input coercion (matio.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from energy_attention.energy import ShapeError, frobenius_norm
from energy_attention.matio import _as_matrix

I2 = np.eye(2)

well_scaled = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
dims = st.integers(min_value=1, max_value=8)


def mat(rows, cols):
    return arrays(np.float64, (rows, cols), elements=well_scaled)


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            _as_matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _as_matrix([[1.0, np.nan]])

    def test_copies_input(self):
        src = np.ones((2, 2))
        m = _as_matrix(src)
        m[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert frobenius_norm(I2) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0], [4.0]])) == 5.0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_norm_squared_equals_self_inner(data):
    m = data.draw(mat(data.draw(dims), data.draw(dims)))
    norm_sq = frobenius_norm(m) ** 2
    inner = float(np.diagonal(m.T @ m).sum())
    assert abs(norm_sq - inner) <= 1e-12 * (1.0 + inner)
