import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import energy_attention as ea
from energy_attention import verify
from energy_attention.attention import build_context
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    frobenius_norm,
    linear_energy,
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

from helpers import (
    context,
    gaussian_head_inputs,
    offset_context,
    random_attention,
    stacked,
    unregularized_grad,
)

I2 = np.eye(2)
V12 = np.array([[1.0], [2.0]])

ALL_FORMS = [LINEAR, QUADRATIC, polynomial(1), polynomial(2), polynomial(3), polynomial(4), EXPONENTIAL]
# (form, t) where math.exp or float ** raises OverflowError at a score t and numpy gives inf
PAST_THE_FLOAT_RANGE = {
    "exp-800": (EXPONENTIAL, 800.0),
    "p3-1e110": (polynomial(3), 1e110),
    "p3-minus-1e110": (polynomial(3), -1e110),  # u^3 = -inf
    "p4-1e80": (polynomial(4), 1e80),
}


class TestFdGradient:
    def test_quadratic_energy_is_exact(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 2))
        fd = fd_gradient(stacked(lambda m: 0.5 * float((m * m).sum())), z, 1e-6)
        np.testing.assert_allclose(fd, z, atol=1e-8)

    def test_constant_energy(self):
        fd = fd_gradient(lambda m: 4.25, np.ones((2, 2)), 1e-6)
        np.testing.assert_array_equal(fd, np.zeros((2, 2)))

    def test_matches_hand_computed_gradient(self):
        c = reg_coeffs(I2, I2 @ V12, V12)
        fd = fd_gradient(
            stacked(lambda z: regularized_energy(QUADRATIC, I2, z, V12, c=c).e_r),
            np.zeros((2, 1)),
            1e-6,
        )
        np.testing.assert_allclose(fd, [[-2.0], [-16.0]], rtol=1e-5)

    def test_nonfinite_probe_names_entry(self):
        with pytest.raises(FloatingPointError) as err:
            fd_gradient(lambda m: float("inf"), np.zeros((2, 2)), 1e-6)
        assert "(0, 0)" in str(err.value)

    def test_empty_state_has_an_empty_gradient(self):
        assert fd_gradient(stacked(lambda m: 0.0), np.zeros((0, 3)), 1e-6).shape == (0, 3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda m: 0.0, np.zeros((1, 1)), 0.0)

    @pytest.mark.parametrize("h", [float("inf"), float("nan")])
    def test_rejects_non_finite_step(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            fd_gradient(lambda m: 0.0, np.zeros((1, 1)), h)


def per_state_fd(energy_fn, z, h):
    """Central differences with one energy call per probe state, entry-major."""
    grad = np.empty_like(z)
    for i in range(z.shape[0]):
        for k in range(z.shape[1]):
            step = h * (1.0 + abs(float(z[i, k])))
            z_plus, z_minus = z.copy(), z.copy()
            z_plus[i, k] += step
            z_minus[i, k] -= step
            grad[i, k] = (energy_fn(z_plus) - energy_fn(z_minus)) / (2.0 * step)
    return grad


def scripted_energies(outcomes):
    """Energies of the probes of Z = 0 at h = 1: ``outcomes`` keyed by (flat entry, sign), else 0."""

    def energies(states):
        flat = states.reshape(len(states), -1)
        keys = [(int(e), int(row[e])) for row, e in zip(flat, np.abs(flat).argmax(axis=1))]
        return [outcomes.get(key, 0.0) for key in keys]

    return energies


class TestStackedProbes:
    @pytest.mark.parametrize("states_per_chunk", [None, 1, 10])
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda form: form.label)
    def test_gradcheck_equals_a_per_state_loop_bit_for_bit(self, monkeypatch, form, states_per_chunk):
        # a stack holds whole entries: one state's bytes give one entry a
        # stack, ten give five entries, which divides neither n d_v below
        captured = []

        def spy(energies, z, h):
            captured.append(real_fd_gradient(energies, z, h))
            return captured[-1]

        real_fd_gradient = verify.fd_gradient
        monkeypatch.setattr(verify, "fd_gradient", spy)
        for seed, n, d_v in ((3, 48, 8), (4, 13, 3)):
            if states_per_chunk is not None:
                monkeypatch.setattr(verify, "_PROBE_CHUNK_BYTES", states_per_chunk * 8 * n * d_v)
            x, w = gaussian_head_inputs(seed, n, 16, 8, d_v)
            ctx = build_context(x, w)
            z = ea.GaussianStream(seed + 100).matrix(n, d_v)
            c = reg_coeffs(ctx.a, ctx.av, ctx.v)
            if form.degree == 1:  # the energy a degree-1 head descends; its E_R is 0
                expected = per_state_fd(lambda m: linear_energy(m, ctx.av), z, 1e-6)
            else:
                expected = per_state_fd(
                    lambda m: regularized_energy(form, ctx.a, m, ctx.v, c=c).e_r, z, 1e-6
                )
            gradcheck(form, ctx, z)
            np.testing.assert_array_equal(captured[-1].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("states_per_chunk", [2, 6, 8])
    @pytest.mark.parametrize(
        "outcomes, entry",
        [
            # entry 1's minus probe is non-finite before entry 2's plus probe
            ({(1, -1): np.inf, (2, 1): np.nan}, (0, 1)),
            ({(1, -1): np.nan, (2, 1): np.inf}, (0, 1)),
            # an entry is checked only once both its probes are evaluated
            ({(1, 1): np.inf, (1, -1): np.nan}, (0, 1)),
            ({(2, -1): -np.inf, (3, 1): np.nan}, (1, 0)),
            ({(3, -1): np.inf, (2, 1): np.inf}, (1, 0)),
        ],
    )
    def test_errors_name_what_the_per_state_order_reaches_first(
        self, monkeypatch, states_per_chunk, outcomes, entry
    ):
        # a non-finite energy is one error, whatever its value and stack
        monkeypatch.setattr(verify, "_PROBE_CHUNK_BYTES", states_per_chunk * 8 * 4)
        with pytest.raises(FloatingPointError, match=rf"non-finite at entry \({entry[0]}, {entry[1]}\)$"):
            fd_gradient(scripted_energies(outcomes), np.zeros((2, 2)), 1.0)

    def test_probe_stacks_stay_small(self):
        rng = np.random.default_rng(0)
        n, d_v = 256, 8
        a = random_attention(rng, n)
        v, z = rng.normal(size=(n, d_v)), rng.normal(size=(n, d_v))
        tracemalloc.start()
        try:
            gradcheck(QUADRATIC, context(a, v), z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one stack of all 4096 probe states would take 64 MiB
        assert peak < 2 * 2**20


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_tolerance_must_be_finite_and_non_negative(tol):
    rng = np.random.default_rng(0)
    a, v = random_attention(rng, 3), rng.normal(size=(3, 2))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        gradcheck(QUADRATIC, context(a, v), a @ v, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        stationarity_check(QUADRATIC, context(a, v), tol=tol)


class TestGradcheck:
    def test_degree_one_form_probes_the_linear_functional(self):
        # E_R of F(u) = u is 0 at every state, so a probe of it could not fail
        rng = np.random.default_rng(1)
        a = random_attention(rng, 3)
        v = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        report = gradcheck(polynomial(1), context(a, v), z)
        assert report.passed and report.max_abs_err > 0.0
        assert not gradcheck(polynomial(1), context(a, v), z, tol=0.0).passed

    def test_degree_one_form_equals_the_linear_form(self):
        x, w = gaussian_head_inputs(7, 6, 8, 2, 2)
        ctx = build_context(x, w)
        for seed in range(3):
            z = ctx.av + 0.5 * ea.GaussianStream(seed).matrix(6, 2)
            for tol in (1e-5, 0.0):
                assert gradcheck(polynomial(1), ctx, z, tol=tol) == gradcheck(LINEAR, ctx, z, tol=tol)
        assert stationarity_check(polynomial(1), ctx) == stationarity_check(LINEAR, ctx)

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_random_instances_pass(self, form):
        rng = np.random.default_rng(2)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 3))
        report = gradcheck(form, context(a, v), z, h=1e-6, tol=1e-5)
        assert report.passed, f"{form.label}: {report}"

    def test_sign_flip_fault_is_detected(self):
        rng = np.random.default_rng(3)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        c = reg_coeffs(a, a @ v, v)
        analytic = regularized_energy(QUADRATIC, a, z, v, c=c).grad
        numeric = fd_gradient(stacked(lambda m: regularized_energy(QUADRATIC, a, m, v, c=c).e_r), z, 1e-6)
        report = compare_gradients(-analytic, numeric, tol=1e-5)
        assert not report.passed
        i, k = report.worst_index
        assert 0 <= i < 4 and 0 <= k < 2

    def test_sign_flipped_linear_gradient_is_detected(self, monkeypatch):
        # the linear form's E_R is 0 at every state, so its probe differences
        # linear_energy; flipping that energy flips the numeric gradient
        # against the analytic Z - AV
        rng = np.random.default_rng(3)
        a = random_attention(rng, 4)
        v, z = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        assert gradcheck(LINEAR, context(a, v), z).passed
        monkeypatch.setattr(verify, "linear_energy", lambda zs, av: -linear_energy(zs, av))
        assert not gradcheck(LINEAR, context(a, v), z).passed

    def test_step_size_window_is_consistent(self):
        rng = np.random.default_rng(4)
        a = random_attention(rng, 4)
        v = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        coarse = gradcheck(EXPONENTIAL, context(a, v), z, h=1e-6, tol=1e-5)
        fine = gradcheck(EXPONENTIAL, context(a, v), z, h=1e-7, tol=1e-5)
        assert coarse.passed and fine.passed


def unregularized_probe(form, a, v, tol=1e-8):
    """(norm of the raw energy gradient at AV, whether it is <= tol * (1 + ||AV||_F))."""
    grad_norm = frobenius_norm(unregularized_grad(form, a, a @ v, v))
    return grad_norm, grad_norm <= tol * (1.0 + frobenius_norm(a @ v))


class TestStationarityCheck:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_regularized_gradient_vanishes(self, form):
        rng = np.random.default_rng(5)
        a = random_attention(rng, 5)
        v = rng.normal(size=(5, 3))
        report = stationarity_check(form, context(a, v), tol=1e-8)
        assert report.passed

    def test_linear_form_probes_the_linear_gradient(self, monkeypatch):
        # a degree-1 probe takes Z - AV at AV, never grad E_R: a fault in the
        # E_R path fails a quadratic probe and leaves the linear one at 0
        rng = np.random.default_rng(5)
        ctx = context(random_attention(rng, 5), rng.normal(size=(5, 3)))
        assert stationarity_check(LINEAR, ctx, tol=0.0).grad_norm_at_av == 0.0
        faulty = lambda *args, **kwargs: replace(regularized_energy(*args, **kwargs), grad=np.ones((5, 3)))
        monkeypatch.setattr(verify, "regularized_energy", faulty)
        assert stationarity_check(LINEAR, ctx, tol=0.0).grad_norm_at_av == 0.0
        assert not stationarity_check(QUADRATIC, ctx).passed

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


class TestOneAttentionOutput:
    """Both probes read the context's AV; neither multiplies A by V itself."""

    @pytest.mark.parametrize("form", [LINEAR, QUADRATIC, EXPONENTIAL], ids=lambda f: f.label)
    def test_stationarity_is_measured_at_the_context_av(self, form):
        ctx = offset_context()
        report = stationarity_check(form, ctx, tol=0.0)
        assert report.scale == 1.0 + frobenius_norm(ctx.av)
        assert report.scale != 1.0 + frobenius_norm(ctx.a @ ctx.v)
        assert report.grad_norm_at_av == 0.0 and report.passed

    @pytest.mark.parametrize("form", [LINEAR, QUADRATIC], ids=lambda f: f.label)
    def test_gradcheck_differences_the_energy_of_the_context_av(self, form):
        ctx = offset_context()
        z = ctx.av + ea.GaussianStream(11).matrix(ctx.n, ctx.d_v)
        assert gradcheck(form, ctx, z).passed


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

    @pytest.mark.parametrize("trial", [*range(100), *PAST_THE_FLOAT_RANGE])
    def test_fast_path_matches_oracle(self, trial):
        if trial in PAST_THE_FLOAT_RANGE:
            # a = I4, v = ones and z = t * ones: every score is t, and E leaves
            # the float range while c and R stay finite
            form, t = PAST_THE_FLOAT_RANGE[trial]
            a, v = np.eye(4), np.ones((4, 1))
            z = t * v
        else:
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(1, 6))
            d_v = int(rng.integers(1, 4))
            form = ALL_FORMS[trial % len(ALL_FORMS)]
            a = random_attention(rng, n)
            v = rng.normal(size=(n, d_v))
            z = rng.normal(size=(n, d_v))
        with np.errstate(over="ignore", invalid="ignore"):
            fast = regularized_energy(form, a, z, v, c=reg_coeffs(a, a @ v, v))
        brute = bruteforce_energy(form, a, z, v)
        tol = 1e-10
        for got, want in ((fast.e, brute.e), (fast.r, brute.r), (fast.e_r, brute.e_r)):
            assert got == want or (math.isfinite(want) and abs(got - want) <= tol * max(1.0, abs(want)))
        assert math.isfinite(brute.r) and math.isfinite(brute.e) == (trial not in PAST_THE_FLOAT_RANGE)
        np.testing.assert_allclose(fast.u, brute.u, rtol=tol, atol=tol)
        np.testing.assert_allclose(fast.c, brute.c, rtol=tol, atol=tol)
        finite = np.isfinite(brute.grad)
        np.testing.assert_array_equal(np.isfinite(fast.grad), finite)
        np.testing.assert_allclose(fast.grad[finite], brute.grad[finite], rtol=tol, atol=tol)
