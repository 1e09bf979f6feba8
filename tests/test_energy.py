import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import energy_attention as ea
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    EnergyForm,
    alignment_scores,
    energy_sums,
    f_apply,
    f_prime,
    form_remainder,
    frobenius_norm,
    linear_energy,
    polynomial,
    reg_coeffs,
    regularized_energy,
)

from helpers import random_attention, unregularized_grad

I2 = np.eye(2)
V12 = np.array([[1.0], [2.0]])
AV12 = I2 @ V12  # == V12

A_UNIFORM = np.full((2, 2), 0.5)
V13 = np.array([[1.0], [3.0]])
AV13 = A_UNIFORM @ V13  # [[2], [2]]

ALL_FORMS = [LINEAR, QUADRATIC, polynomial(1), polynomial(2), polynomial(3), polynomial(4), EXPONENTIAL]


def evaluate(form, a, z, v):
    """``regularized_energy`` at z with c = u(AV) taken at AV = a @ v."""
    return regularized_energy(form, a, z, v, c=reg_coeffs(a, a @ v, v))


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

    def test_exponential_past_the_float_range_is_inf(self):
        # the float range of e^u ends near u = 709.78
        assert math.isfinite(f_apply(EXPONENTIAL, 709.0))
        with np.errstate(over="ignore"):
            assert f_apply(EXPONENTIAL, 710.0) == f_prime(EXPONENTIAL, 710.0) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            f_apply(EXPONENTIAL, 710.0)


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


    def test_a_stack_of_states_scores_like_each_state_alone(self):
        rng = np.random.default_rng(9)
        a, v = random_attention(rng, 13), rng.normal(size=(13, 3))
        states = rng.normal(size=(5, 13, 3))
        c = reg_coeffs(a, a @ v, v)
        u = alignment_scores(a, states, v)
        e, r = energy_sums(polynomial(4), u, f_prime(polynomial(4), c))
        for s, z in enumerate(states):
            one = regularized_energy(polynomial(4), a, z, v, c=c)
            assert u[s].tobytes() == one.u.tobytes()
            assert np.array([e[s], r[s]]).tobytes() == np.array([one.e, one.r]).tobytes()

    def test_stack_must_end_in_the_value_shape(self):
        with pytest.raises(ea.ShapeError):
            alignment_scores(I2, np.zeros((3, 1, 2)), V12)


class TestRegCoeffs:
    def test_identity_attention(self):
        np.testing.assert_allclose(reg_coeffs(I2, AV12, V12), [1.0, 4.0])

    def test_zero_values(self):
        np.testing.assert_array_equal(reg_coeffs(I2, np.zeros((2, 1)), np.zeros((2, 1))), [0.0, 0.0])

    def test_uniform_attention(self):
        np.testing.assert_allclose(reg_coeffs(A_UNIFORM, AV13, V13), [2.0, 6.0])


class TestEnergy:
    def test_quadratic_hand_value(self):
        assert evaluate(QUADRATIC, I2, AV12, V12).e == 17.0

    def test_polynomial_of_zero_state(self):
        for p in (1, 2, 3, 4):
            assert evaluate(polynomial(p), I2, np.zeros((2, 1)), V12).e == 0.0

    def test_exponential_hand_value(self):
        expected = np.exp(1.0) + np.exp(4.0)
        assert evaluate(EXPONENTIAL, I2, AV12, V12).e == pytest.approx(expected, rel=1e-15)


class TestLinearFunctional:
    def test_value_and_gradient_at_av(self):
        assert linear_energy(AV12, AV12) == -2.5
        np.testing.assert_array_equal(AV12 - AV12, np.zeros((2, 1)))

    def test_zero_state(self):
        z = np.zeros((2, 1))
        assert linear_energy(z, AV12) == 0.0
        np.testing.assert_array_equal(z - AV12, -AV12)

    def test_zero_values_minimized_at_origin(self):
        z = np.zeros((2, 1))
        v = np.zeros((2, 1))
        assert linear_energy(z, I2 @ v) == 0.0
        np.testing.assert_array_equal(z - I2 @ v, np.zeros((2, 1)))

    def test_a_stack_of_states_gives_each_state_its_energy(self):
        rng = np.random.default_rng(8)
        a, v = random_attention(rng, 13), rng.normal(size=(13, 3))
        av = a @ v
        states = rng.normal(size=(4, 13, 3))
        energies = linear_energy(states, av)
        assert energies.shape == (4,)
        for e, z in zip(energies, states):
            one = linear_energy(z, av)
            assert type(one) is float
            assert_same_bits(one, -float((z * av).sum()) + 0.5 * float((z * z).sum()))
            assert_same_bits(e, one)


class TestRegularizer:
    def test_quadratic_hand_value(self):
        c = reg_coeffs(I2, AV12, V12)
        assert regularized_energy(QUADRATIC, I2, AV12, V12, c=c).r == -34.0

    def test_linear_in_state(self):
        z = np.zeros((2, 1))
        for form in ALL_FORMS:
            c = reg_coeffs(I2, AV12, V12)
            assert regularized_energy(form, I2, z, V12, c=c).r == 0.0

    def test_cubic_hand_value(self):
        c = reg_coeffs(I2, AV12, V12)
        assert regularized_energy(polynomial(3), I2, AV12, V12, c=c).r == -195.0


class TestGradients:
    def test_zero_at_av_for_every_form(self):
        c = reg_coeffs(I2, AV12, V12)
        for form in ALL_FORMS:
            grad = regularized_energy(form, I2, AV12, V12, c=c).grad
            np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_quadratic_at_origin(self):
        c = reg_coeffs(I2, AV12, V12)
        grad = regularized_energy(QUADRATIC, I2, np.zeros((2, 1)), V12, c=c).grad
        np.testing.assert_allclose(grad, [[-2.0], [-16.0]])

    def test_degree_one_gradient_vanishes_everywhere(self):
        rng = np.random.default_rng(3)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        c = reg_coeffs(a, a @ v, v)
        for _ in range(5):
            z = rng.normal(size=(4, 2))
            grad = regularized_energy(polynomial(1), a, z, v, c=c).grad
            np.testing.assert_array_equal(grad, np.zeros((4, 2)))

    def test_unregularized_quadratic_at_av(self):
        grad = unregularized_grad(QUADRATIC, I2, AV12, V12)
        np.testing.assert_allclose(grad, [[2.0], [16.0]])


class TestRegularizedEnergy:
    def test_quadratic_bundle_at_av(self):
        ev = evaluate(QUADRATIC, I2, AV12, V12)
        assert (ev.e, ev.r, ev.e_r) == (17.0, -34.0, -17.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_cubic_bundle_at_av(self):
        ev = evaluate(polynomial(3), I2, AV12, V12)
        assert (ev.e, ev.r, ev.e_r) == (65.0, -195.0, -130.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_uniform_attention_bundle(self):
        ev = evaluate(QUADRATIC, A_UNIFORM, AV13, V13)
        assert (ev.e, ev.r, ev.e_r) == (40.0, -80.0, -40.0)
        np.testing.assert_array_equal(ev.grad, np.zeros((2, 1)))

    def test_e_r_is_sum_of_parts(self):
        rng = np.random.default_rng(11)
        a = random_attention(rng, 3)
        v = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        for form in ALL_FORMS:
            ev = evaluate(form, a, z, v)
            assert ev.e_r == ev.e + ev.r

    def test_quadratic_matches_degree_two(self):
        rng = np.random.default_rng(4)
        a = random_attention(rng, 5)
        v = rng.normal(size=(5, 3))
        z = rng.normal(size=(5, 3))
        quad = evaluate(QUADRATIC, a, z, v)
        poly2 = evaluate(polynomial(2), a, z, v)
        for field in ("e", "r", "e_r", "grad"):
            assert_same_bits(getattr(quad, field), getattr(poly2, field))

    def test_degree_one_matches_linear_form_energy(self):
        rng = np.random.default_rng(5)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        degree_one = evaluate(polynomial(1), a, z, v)
        linear = evaluate(LINEAR, a, z, v)
        for field in ("e", "r", "e_r", "grad"):
            assert_same_bits(getattr(degree_one, field), getattr(linear, field))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def score_pairs(seed):
    """Every pair (u, h) of signed mixed magnitudes, zeros of both signs, +-inf, nan
    and values whose square or cube leaves the float range."""
    edge = [np.inf, -np.inf, np.nan, 1.3e154, -1.35e154, 5e102, -6e102, 1e308, -1.7e308, 5e-324]
    points = np.concatenate([mixed_magnitudes(seed, size=30), edge])
    return np.repeat(points, points.size), np.tile(points, points.size)


class TestDegreePath:
    # linear and quadratic are evaluated as the powers of degree 1 and 2
    def test_each_form_names_its_degree(self):
        assert (LINEAR.degree, QUADRATIC.degree, EXPONENTIAL.degree) == (1, 2, None)
        assert [polynomial(p).degree for p in (1, 2, 7)] == [1, 2, 7]

    @pytest.mark.parametrize("p", [1, 2])
    def test_named_form_is_its_polynomial_bit_for_bit(self, p):
        named, power = (LINEAR, QUADRATIC)[p - 1], polynomial(p)
        u, h = score_pairs(p)
        with np.errstate(all="ignore"):
            for got, want in (
                (f_apply(named, u), f_apply(power, u)),
                (f_prime(named, u), f_prime(power, u)),
                (form_remainder(named, u, h), form_remainder(power, u, h)),
            ):
                assert_same_bits(got, want)

    def test_degree_path_keeps_the_per_form_formulas(self):
        # u, 1 and 0 for the linear form; u u, 2 u and h h for the quadratic,
        # where a nan step's remainder is a nan of either sign
        u, h = score_pairs(3)
        with np.errstate(all="ignore"):
            assert_same_bits(f_apply(LINEAR, u), u)
            assert_same_bits(f_prime(LINEAR, u), np.ones_like(u))
            assert_same_bits(form_remainder(LINEAR, u, h), np.zeros_like(h))
            assert_same_bits(f_apply(QUADRATIC, u), u * u)
            assert_same_bits(f_prime(QUADRATIC, u), 2.0 * u)
            rest, square = form_remainder(QUADRATIC, u, h), h * h
        np.testing.assert_array_equal(np.isnan(rest), np.isnan(h))
        assert_same_bits(rest[~np.isnan(h)], square[~np.isnan(h)])

    def test_linear_form_keeps_the_sign_of_zero(self):
        # F(u) = u is a copy of u, as for polynomial(1); -0.0 stays -0.0
        assert math.copysign(1.0, f_apply(LINEAR, -0.0)) == -1.0
        out = f_apply(LINEAR, np.array([-0.0, 0.0]))
        np.testing.assert_array_equal(np.signbit(out), [True, False])


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_alignment_at_av_equals_reg_coeffs(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = random_attention(rng, n)
    v = rng.normal(size=(n, d_v))
    u_at_av = alignment_scores(a, a @ v, v)
    c = reg_coeffs(a, a @ v, v)
    np.testing.assert_allclose(u_at_av, c, atol=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_stationarity_of_regularized_gradient(seed):
    rng = np.random.default_rng(seed)
    n, d_v = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    a = random_attention(rng, n)
    v = rng.normal(size=(n, d_v))
    av = a @ v
    c = reg_coeffs(a, av, v)
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
        at_min = evaluate(form, a, av, v).e_r
        nearby = evaluate(form, a, av + delta, v).e_r
        assert nearby >= at_min - 1e-9


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
    dims = st.integers(min_value=1, max_value=8)
    well_scaled = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    m = data.draw(arrays(np.float64, (data.draw(dims), data.draw(dims)), elements=well_scaled))
    norm_sq = frobenius_norm(m) ** 2
    inner = float(np.diagonal(m.T @ m).sum())
    assert abs(norm_sq - inner) <= 1e-12 * (1.0 + inner)


def test_exponential_overflow_is_inf_entry_by_entry():
    # every entry of a stack is e^u, inf only where u leaves the float range
    stack = np.array([[0.0, 1.0], [701.0, 709.0], [900.0, -900.0]])
    with np.errstate(over="ignore"):
        want = np.exp(stack)
        got = f_apply(EXPONENTIAL, stack), f_prime(EXPONENTIAL, stack.reshape(3, 1, 2))
    assert np.isinf(want).tolist() == [[False, False], [False, False], [True, False]]
    for out in got:
        assert_same_bits(out.reshape(3, 2), want)


def test_exponential_remainder_past_the_float_range_is_not_finite():
    # a trial that takes a score past the float range changes the energy by
    # inf (or nan where e^u is 0 or inf), which the line search ends as diverged
    u = np.array([0.0, 0.0, -800.0, 710.0])
    h = np.array([-705.0, -711.0, -1600.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        rest = form_remainder(EXPONENTIAL, u, h)
    assert math.isfinite(rest[0]) and rest[0] > 0.0
    assert rest[1] == math.inf and np.isnan(rest[2:]).all()


def test_overflow_gives_a_non_finite_bundle():
    v_big = np.array([[30.0], [30.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        out = evaluate(EXPONENTIAL, I2, 40.0 * v_big, v_big)
    assert out.e == math.inf
    assert not math.isfinite(out.e_r) and not np.isfinite(out.grad).any()


def test_public_reexports():
    assert ea.QUADRATIC is QUADRATIC
    assert ea.energy is importlib.import_module("energy_attention.energy")
    assert ea.polynomial(2).kind == "polynomial"
