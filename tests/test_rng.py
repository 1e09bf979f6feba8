import math

import numpy as np
import pytest

from energy_attention.rng import GaussianStream

_MASK64 = (1 << 64) - 1


class ScalarStream:
    """Reference SplitMix64 + Box-Muller, one Python-integer word at a time.

    This is the algorithm the vectorised ``GaussianStream`` must reproduce
    bit for bit: each word pair (w1, w2) gives u1 = ((w1 >> 11) + 1) 2^-53
    and u2 = (w2 >> 11) 2^-53, then r cos(2 pi u2) followed by
    r sin(2 pi u2) with r = sqrt(-2 ln u1).
    """

    def __init__(self, seed):
        self.state = seed
        self.spare = None

    def word(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def normal(self):
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1 = ((self.word() >> 11) + 1) * 2.0**-53
        u2 = (self.word() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self.spare = radius * math.sin(angle)
        return radius * math.cos(angle)

    def matrix(self, rows, cols, scale=1.0):
        return np.array([[scale * self.normal() for _ in range(cols)] for _ in range(rows)])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_same_seed_reproduces_stream():
    a = GaussianStream(123).matrix(5, 7)
    b = GaussianStream(123).matrix(5, 7)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = GaussianStream(1).matrix(4, 4)
    b = GaussianStream(2).matrix(4, 4)
    assert not np.array_equal(a, b)


def test_draw_order_is_stable():
    oracle = ScalarStream(9)
    first = [oracle.normal() for _ in range(6)]
    merged = GaussianStream(9).matrix(2, 3).ravel().tolist()
    assert first == merged


@pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
def test_odd_sized_calls_carry_the_spare(seed):
    # odd draw counts leave a cached sine that the next call must start with
    stream, oracle = GaussianStream(seed), ScalarStream(seed)
    for rows, cols in ((3, 3), (1, 1), (2, 5), (1, 1), (4, 2)):
        assert_bits_equal(stream.matrix(rows, cols), oracle.matrix(rows, cols))


def test_state_wraps_at_the_top_seed():
    stream, oracle = GaussianStream(2**64 - 1), ScalarStream(2**64 - 1)
    for rows, cols in ((5, 7), (3, 1), (2, 2)):
        assert_bits_equal(stream.matrix(rows, cols), oracle.matrix(rows, cols))


def test_scaled_draws_match_the_scalar_algorithm():
    stream, oracle = GaussianStream(31), ScalarStream(31)
    for rows, cols, scale in ((4, 3, 0.125), (3, 5, 1.0 / math.sqrt(7)), (1, 1, 2.5)):
        assert_bits_equal(stream.matrix(rows, cols, scale), oracle.matrix(rows, cols, scale))


def test_moments_are_roughly_standard_normal():
    sample = GaussianStream(42).matrix(200, 50).ravel()
    assert abs(sample.mean()) < 0.05
    assert abs(sample.std() - 1.0) < 0.05


def test_scale_is_applied():
    base = GaussianStream(7).matrix(3, 3)
    scaled = GaussianStream(7).matrix(3, 3, scale=2.5)
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-15)


def test_seed_range_validated():
    with pytest.raises(ValueError):
        GaussianStream(-1)
    with pytest.raises(ValueError):
        GaussianStream(2**64)


def test_entries_are_finite():
    assert np.isfinite(GaussianStream(0).matrix(50, 50)).all()
