"""The names and outputs that the benchmark in perfbench/ reads, at smoke size.

An op of the benchmark fails when it raises, when the check of its output
fails, or when a descent-large head hits its step budget; a wrapped name
that no longer resolves drops the per-layer metrics that read it. These
tests run the benchmark's own workloads and tracer without changing them.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_passes_its_check_twice(tmp_path, name):
    # the second pass checks that cli-pipeline's report is byte-identical
    # to the first one of its seed
    workload = WORKLOADS[name](SEED, tmp_path, smoke=True)
    for _ in range(2):
        for inst in workload.pool:
            assert workload.check(inst, workload.op(inst)) == (None, False)


def test_tracer_resolves_every_wrapped_name():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


# The per-layer metrics that one traced smoke pass at SEED measures above 0.
# Every other metric reads 0 on that workload, because the workload never
# calls the layer, except two known zeros: dynamics.accept_ratio everywhere,
# and heads.run_head_s (with heads.self_s) on cli-pipeline, whose heads are
# solved through solve_head rather than run_head.
_ATTENTION = (
    "attention.build_context_s",
    "attention.contexts",
    "attention.output_s",
    "attention.project_s",
    "attention.scores_s",
    "attention.softmax_s",
)
_ENERGY = (
    "energy.alignment_s",
    "energy.eval_bytes_computed",
    "energy.eval_gbps_computed",
    "energy.eval_madds_computed",
    "energy.eval_s",
    "energy.eval_us",
    "energy.evals",
    "energy.reg_coeffs_s",
)
_DYNAMICS = (
    "dynamics.descend_s",
    "dynamics.evals_per_step",
    "dynamics.self_s",
    "dynamics.step_ms",
    "dynamics.steps",
    "linalg.norm_calls",
    "linalg.norm_s",
)
_RNG = ("rng.draws", "rng.matrix_s", "rng.ns_per_draw")
MEASURED = {
    "descent-large": _ATTENTION + _ENERGY + _DYNAMICS + _RNG + ("heads.run_head_s", "heads.self_s"),
    "cli-pipeline": _ATTENTION + _ENERGY + _DYNAMICS + _RNG + (
        "cli.gen_s",
        "cli.run_s",
        "cli.self_s",
        "matio.bytes",
        "matio.load_s",
        "matio.mb_per_s",
        "matio.save_s",
    ),
    "verify-probes": _ATTENTION + _ENERGY + _RNG + (
        "cli.gradcheck_s",
        "cli.self_s",
        "cli.stationarity_s",
        "verify.fd_evals",
        "verify.gradcheck_s",
        "verify.stationarity_s",
    ),
}


def test_measured_lists_cover_every_workload():
    assert sorted(MEASURED) == sorted(WORKLOADS)
    assert [len(MEASURED[name]) for name in sorted(MEASURED)] == [31, 26, 23]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_measured_layer_metric_reads_above_zero(tmp_path, name):
    # a call moved off a name the tracer patches reads 0, not absent
    workload = WORKLOADS[name](SEED, tmp_path, smoke=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for inst in workload.pool:
            workload.op(inst)
    finally:
        tracer.uninstall()
    present, absent = spans.layer_metrics(tracer, passes=1)
    assert absent == []
    zero = [metric for metric in MEASURED[name] if not present[metric][0] > 0]
    assert zero == []
