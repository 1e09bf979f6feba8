import numpy as np
import pytest

import energy_attention as ea
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    frobenius_norm,
    grad_unregularized,
    polynomial,
    reg_coeffs,
    regularized_energy,
)
from energy_attention.verify import (
    BRUTE_FORCE_MAX_N,
    bruteforce_energy,
    compare_gradients,
    fd_gradient,
    gradcheck,
    stationarity_check,
)

from helpers import random_attention

I2 = np.eye(2)
V12 = np.array([[1.0], [2.0]])

ALL_FORMS = [LINEAR, QUADRATIC, polynomial(1), polynomial(2), polynomial(3), polynomial(4), EXPONENTIAL]


class TestFdGradient:
    def test_quadratic_energy_is_exact(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 2))
        fd = fd_gradient(lambda m: 0.5 * float((m * m).sum()), z, 1e-6)
        np.testing.assert_allclose(fd, z, atol=1e-8)

    def test_constant_energy(self):
        fd = fd_gradient(lambda m: 4.25, np.ones((2, 2)), 1e-6)
        np.testing.assert_array_equal(fd, np.zeros((2, 2)))

    def test_matches_hand_computed_gradient(self):
        c = reg_coeffs(I2, V12)
        fd = fd_gradient(
            lambda z: regularized_energy(QUADRATIC, I2, z, V12, c=c).e_r,
            np.zeros((2, 1)),
            1e-6,
        )
        np.testing.assert_allclose(fd, [[-2.0], [-16.0]], rtol=1e-5)

    def test_nonfinite_probe_names_entry(self):
        with pytest.raises(FloatingPointError) as err:
            fd_gradient(lambda m: float("inf"), np.zeros((2, 2)), 1e-6)
        assert "(0, 0)" in str(err.value)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda m: 0.0, np.zeros((1, 1)), 0.0)

    @pytest.mark.parametrize("h", [float("inf"), float("nan")])
    def test_rejects_non_finite_step(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            fd_gradient(lambda m: 0.0, np.zeros((1, 1)), h)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_tolerance_must_be_finite_and_non_negative(tol):
    rng = np.random.default_rng(0)
    a, v = random_attention(rng, 3), rng.normal(size=(3, 2))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        gradcheck(QUADRATIC, a, v, a @ v, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        stationarity_check(QUADRATIC, a, v, tol=tol)


class TestGradcheck:
    def test_degree_one_form_passes_trivially(self):
        rng = np.random.default_rng(1)
        a = random_attention(rng, 3)
        v = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        report = gradcheck(polynomial(1), a, v, z)
        assert report.passed and report.max_abs_err == 0.0

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_random_instances_pass(self, form):
        rng = np.random.default_rng(2)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 3))
        report = gradcheck(form, a, v, z, h=1e-6, tol=1e-5)
        assert report.passed, f"{form.label}: {report}"

    def test_sign_flip_fault_is_detected(self):
        rng = np.random.default_rng(3)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        c = reg_coeffs(a, v)
        analytic = regularized_energy(QUADRATIC, a, z, v, c=c).grad
        numeric = fd_gradient(lambda m: regularized_energy(QUADRATIC, a, m, v, c=c).e_r, z, 1e-6)
        report = compare_gradients(-analytic, numeric, h=1e-6, tol=1e-5)
        assert not report.passed
        i, k = report.worst_index
        assert 0 <= i < 4 and 0 <= k < 2

    def test_step_size_window_is_consistent(self):
        rng = np.random.default_rng(4)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        coarse = gradcheck(EXPONENTIAL, a, v, z, h=1e-6, tol=1e-5)
        fine = gradcheck(EXPONENTIAL, a, v, z, h=1e-7, tol=1e-5)
        assert coarse.passed and fine.passed


def unregularized_probe(form, a, v, tol=1e-8):
    """(norm of the raw energy gradient at AV, whether it is <= tol * (1 + ||AV||_F))."""
    grad_norm = frobenius_norm(grad_unregularized(form, a, a @ v, v))
    return grad_norm, grad_norm <= tol * (1.0 + frobenius_norm(a @ v))


class TestStationarityCheck:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_regularized_gradient_vanishes(self, form):
        rng = np.random.default_rng(5)
        a = random_attention(rng, 5)
        v = rng.normal(size=(5, 3))
        report = stationarity_check(form, a, v, tol=1e-8)
        assert report.passed

    def test_unregularized_quadratic_fails_on_hand_case(self):
        grad_norm, passed = unregularized_probe(QUADRATIC, I2, V12)
        assert not passed
        assert grad_norm == pytest.approx(np.sqrt(260.0), rel=1e-12)

    @pytest.mark.parametrize("form", [QUADRATIC, polynomial(2), polynomial(3), EXPONENTIAL])
    def test_unregularized_nonlinear_forms_fail_generically(self, form):
        rng = np.random.default_rng(6)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        grad_norm, passed = unregularized_probe(form, a, v)
        assert not passed and grad_norm > 1e-3

    def test_zero_values_pass_trivially(self):
        grad_norm, passed = unregularized_probe(QUADRATIC, I2, np.zeros((2, 1)))
        assert passed and grad_norm == 0.0


class TestBruteForce:
    def test_single_token_single_term(self):
        a = np.array([[1.0]])
        z = np.array([[2.0]])
        v = np.array([[3.0]])
        result = bruteforce_energy(QUADRATIC, a, z, v)
        assert result.u[0] == 6.0
        assert result.e == 36.0

    def test_hand_case_bundle(self):
        result = bruteforce_energy(QUADRATIC, I2, V12, V12)
        assert (result.e, result.r, result.e_r) == (17.0, -34.0, -17.0)
        np.testing.assert_array_equal(result.u, [1.0, 4.0])
        np.testing.assert_array_equal(result.c, [1.0, 4.0])
        np.testing.assert_array_equal(result.grad, np.zeros((2, 1)))

    def test_size_cap_enforced(self):
        n = BRUTE_FORCE_MAX_N + 1
        with pytest.raises(ValueError):
            bruteforce_energy(QUADRATIC, np.eye(n), np.zeros((n, 1)), np.zeros((n, 1)))

    @pytest.mark.parametrize("trial", range(100))
    def test_fast_path_matches_oracle(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(1, 6))
        d_v = int(rng.integers(1, 4))
        form = ALL_FORMS[trial % len(ALL_FORMS)]
        a = random_attention(rng, n)
        v = rng.normal(size=(n, d_v))
        z = rng.normal(size=(n, d_v))
        fast = regularized_energy(form, a, z, v)
        brute = bruteforce_energy(form, a, z, v)
        tol = 1e-10
        assert abs(fast.e - brute.e) <= tol * max(1.0, abs(brute.e))
        assert abs(fast.r - brute.r) <= tol * max(1.0, abs(brute.r))
        np.testing.assert_allclose(fast.u, brute.u, rtol=tol, atol=tol)
        np.testing.assert_allclose(fast.c, brute.c, rtol=tol, atol=tol)
        np.testing.assert_allclose(fast.grad, brute.grad, rtol=tol, atol=tol)
