import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energy_attention as ea
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    EnergyForm,
    ExpOverflowError,
    alignment_scores,
    f_apply,
    f_prime,
    form_remainder,
    grad_unregularized,
    linear_energy,
    linear_grad,
    polynomial,
    reg_coeffs,
    regularized_energy,
)

from helpers import random_attention

I2 = np.eye(2)
V12 = np.array([[1.0], [2.0]])
AV12 = I2 @ V12  # == V12

A_UNIFORM = np.full((2, 2), 0.5)
V13 = np.array([[1.0], [3.0]])
AV13 = A_UNIFORM @ V13  # [[2], [2]]

ALL_FORMS = [LINEAR, QUADRATIC, polynomial(1), polynomial(2), polynomial(3), polynomial(4), EXPONENTIAL]


class TestEnergyForm:
    def test_polynomial_needs_positive_integer_degree(self):
        with pytest.raises(ValueError):
            polynomial(0)
        with pytest.raises(ValueError):
            EnergyForm("polynomial", None)

    def test_non_polynomial_rejects_degree(self):
        with pytest.raises(ValueError):
            EnergyForm("quadratic", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnergyForm("cubic-spline")

    def test_degree_is_capped_where_its_binomials_leave_the_float_range(self):
        # C(1029, 514) < max float < C(1030, 515)
        rest = form_remainder(polynomial(1029), np.array([0.5]), np.array([1e-3]))
        assert np.isfinite(rest).all()
        for p in (1030, 10**9):
            with pytest.raises(ValueError, match=r"exceeds the float range"):
                polynomial(p)

    def test_labels(self):
        assert QUADRATIC.label == "quadratic"
        assert polynomial(3).label == "polynomial(p=3)"


class TestScalarForms:
    def test_quadratic(self):
        assert f_apply(QUADRATIC, 3.0) == 9.0
        assert f_prime(QUADRATIC, 3.0) == 6.0

    def test_cubic(self):
        assert f_apply(polynomial(3), 2.0) == 8.0
        assert f_prime(polynomial(3), 2.0) == 12.0

    def test_exponential_at_zero(self):
        assert f_apply(EXPONENTIAL, 0.0) == 1.0
        assert f_prime(EXPONENTIAL, 0.0) == 1.0

    def test_linear_is_identity_with_unit_slope(self):
        assert f_apply(LINEAR, -2.5) == -2.5
        assert f_prime(LINEAR, -2.5) == 1.0

    def test_degree_one_slope_is_one_everywhere(self):
        u = np.array([-3.0, 0.0, 7.0])
        np.testing.assert_array_equal(f_prime(polynomial(1), u), np.ones(3))

    def test_exponential_overflow_reports_argument(self):
        with pytest.raises(ExpOverflowError) as err:
            f_apply(EXPONENTIAL, 701.0)
        assert "701" in str(err.value)


def mixed_magnitudes(seed, size=200):
    """Signed values spread over six decades, plus exact zeros and ones."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    return np.concatenate([u, [0.0, -0.0, 1.0, -1.0]])


class TestPolynomialRounding:
    # powers are formed by multiplication, not pow: each stays within p ulp
    # of the correctly rounded value of the exact rational power
    @pytest.mark.parametrize("p", range(1, 9))
    def test_value_is_within_p_ulp(self, p):
        u = mixed_magnitudes(p)
        got = f_apply(polynomial(p), u)
        exact = np.array([float(Fraction(x) ** p) for x in u])
        assert np.all(np.abs(got - exact) <= p * np.finfo(float).eps * np.abs(exact))

    @pytest.mark.parametrize("p", range(1, 9))
    def test_slope_is_within_p_ulp(self, p):
        u = mixed_magnitudes(10 + p)
        got = f_prime(polynomial(p), u)
        exact = np.array([float(p * Fraction(x) ** (p - 1)) for x in u])
        assert np.all(np.abs(got - exact) <= p * np.finfo(float).eps * np.abs(exact))

    def test_scalar_input_gives_a_float(self):
        assert f_apply(polynomial(5), 2.0) == 32.0
        assert f_prime(polynomial(5), -2.0) == 80.0
        assert isinstance(f_prime(polynomial(1), 3.0), float)

    def test_degree_one_value_is_a_copy(self):
        u = np.array([1.5, -0.0])
        out = f_apply(polynomial(1), u)
        np.testing.assert_array_equal(out, u)
        assert not np.shares_memory(out, u)


class TestAlignmentScores:
    def test_identity_attention(self):
        np.testing.assert_allclose(alignment_scores(I2, V12, V12), [1.0, 4.0])

    def test_zero_state(self):
        np.testing.assert_array_equal(alignment_scores(I2, np.zeros((2, 1)), V12), [0.0, 0.0])

    def test_uniform_attention(self):
        np.testing.assert_allclose(alignment_scores(A_UNIFORM, AV13, V13), [2.0, 6.0])


class TestRegCoeffs:
    def test_identity_attention(self):
        np.testing.assert_allclose(reg_coeffs(I2, V12), [1.0, 4.0])

    def test_zero_values(self):
        np.testing.assert_array_equal(reg_coeffs(I2, np.zeros((2, 1))), [0.0, 0.0])

    def test_uniform_attention(self):
        np.testing.assert_allclose(reg_coeffs(A_UNIFORM, V13), [2.0, 6.0])


class TestEnergy:
    def test_quadratic_hand_value(self):
        assert regularized_energy(QUADRATIC, I2, AV12, V12).e == 17.0

    def test_polynomial_of_zero_state(self):
        for p in (1, 2, 3, 4):
            assert regularized_energy(polynomial(p), I2, np.zeros((2, 1)), V12).e == 0.0

    def test_exponential_hand_value(self):
        expected = np.exp(1.0) + np.exp(4.0)
        assert regularized_energy(EXPONENTIAL, I2, AV12, V12).e == pytest.approx(expected, rel=1e-15)


class TestLinearFunctional:
    def test_value_and_gradient_at_av(self):
        assert linear_energy(AV12, I2, V12) == -2.5
        np.testing.assert_array_equal(linear_grad(AV12, I2, V12), np.zeros((2, 1)))

    def test_zero_state(self):
        z = np.zeros((2, 1))
        assert linear_energy(z, I2, V12) == 0.0
        np.testing.assert_array_equal(linear_grad(z, I2, V12), -AV12)

    def test_zero_values_minimized_at_origin(self):
        z = np.zeros((2, 1))
        v = np.zeros((2, 1))
        assert linear_energy(z, I2, v) == 0.0
        np.testing.assert_array_equal(linear_grad(z, I2, v), np.zeros((2, 1)))


class TestRegularizer:
    def test_quadratic_hand_value(self):
        c = reg_coeffs(I2, V12)
        assert regularized_energy(QUADRATIC, I2, AV12, V12, c=c).r == -34.0

    def test_linear_in_state(self):
        z = np.zeros((2, 1))
        for form in ALL_FORMS:
            c = reg_coeffs(I2, V12)
            assert regularized_energy(form, I2, z, V12, c=c).r == 0.0

    def test_cubic_hand_value(self):
        c = reg_coeffs(I2, V12)
        assert regularized_energy(polynomial(3), I2, AV12, V12, c=c).r == -195.0


class TestGradients:
    def test_zero_at_av_for_every_form(self):
        c = reg_coeffs(I2, V12)
        for form in ALL_FORMS:
            grad = regularized_energy(form, I2, AV12, V12, c=c).grad
            np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_quadratic_at_origin(self):
        c = reg_coeffs(I2, V12)
        grad = regularized_energy(QUADRATIC, I2, np.zeros((2, 1)), V12, c=c).grad
        np.testing.assert_allclose(grad, [[-2.0], [-16.0]])

    def test_degree_one_gradient_vanishes_everywhere(self):
        rng = np.random.default_rng(3)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        c = reg_coeffs(a, v)
        for _ in range(5):
            z = rng.normal(size=(4, 2))
            grad = regularized_energy(polynomial(1), a, z, v, c=c).grad
            np.testing.assert_array_equal(grad, np.zeros((4, 2)))

    def test_unregularized_quadratic_at_av(self):
        grad = grad_unregularized(QUADRATIC, I2, AV12, V12)
        np.testing.assert_allclose(grad, [[2.0], [16.0]])


class TestRegularizedEnergy:
    def test_quadratic_bundle_at_av(self):
        ev = regularized_energy(QUADRATIC, I2, AV12, V12)
        assert (ev.e, ev.r, ev.e_r) == (17.0, -34.0, -17.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_cubic_bundle_at_av(self):
        ev = regularized_energy(polynomial(3), I2, AV12, V12)
        assert (ev.e, ev.r, ev.e_r) == (65.0, -195.0, -130.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_uniform_attention_bundle(self):
        ev = regularized_energy(QUADRATIC, A_UNIFORM, AV13, V13)
        assert (ev.e, ev.r, ev.e_r) == (40.0, -80.0, -40.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_e_r_is_sum_of_parts(self):
        rng = np.random.default_rng(11)
        a = random_attention(rng, 3)
        v = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        for form in ALL_FORMS:
            ev = regularized_energy(form, a, z, v)
            assert ev.e_r == ev.e + ev.r

    def test_quadratic_matches_degree_two(self):
        rng = np.random.default_rng(4)
        a = random_attention(rng, 5)
        v = rng.normal(size=(5, 3))
        z = rng.normal(size=(5, 3))
        quad = regularized_energy(QUADRATIC, a, z, v)
        poly2 = regularized_energy(polynomial(2), a, z, v)
        assert quad.e == pytest.approx(poly2.e, rel=1e-12)
        assert quad.r == pytest.approx(poly2.r, rel=1e-12)
        np.testing.assert_allclose(quad.grad, poly2.grad, atol=1e-12)

    def test_degree_one_matches_linear_form_energy(self):
        rng = np.random.default_rng(5)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        degree_one = regularized_energy(polynomial(1), a, z, v).e
        assert degree_one == pytest.approx(regularized_energy(LINEAR, a, z, v).e, rel=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_alignment_at_av_equals_reg_coeffs(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = random_attention(rng, n)
    v = rng.normal(size=(n, d_v))
    u_at_av = alignment_scores(a, a @ v, v)
    c = reg_coeffs(a, v)
    np.testing.assert_allclose(u_at_av, c, atol=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_stationarity_of_regularized_gradient(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = random_attention(rng, n)
    v = rng.normal(size=(n, d_v))
    av = a @ v
    c = reg_coeffs(a, v)
    scale = 1.0 + np.sqrt((av * av).sum())
    for form in ALL_FORMS:
        grad = regularized_energy(form, a, av, v, c=c).grad
        assert np.sqrt((grad * grad).sum()) <= 1e-8 * scale


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_av_is_global_minimum_of_convex_forms(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = random_attention(rng, n)
    v = rng.normal(size=(n, d_v))
    av = a @ v
    delta = rng.normal(size=(n, d_v))
    for form in (QUADRATIC, EXPONENTIAL):
        at_min = regularized_energy(form, a, av, v).e_r
        nearby = regularized_energy(form, a, av + delta, v).e_r
        assert nearby >= at_min - 1e-9


def test_overflow_propagates_through_bundle():
    v_big = np.array([[30.0], [30.0]])
    with pytest.raises(ExpOverflowError):
        regularized_energy(EXPONENTIAL, I2, 40.0 * v_big, v_big)


def test_public_reexports():
    assert ea.QUADRATIC is QUADRATIC
    assert ea.energy is importlib.import_module("energy_attention.energy")
    assert ea.polynomial(2).kind == "polynomial"
