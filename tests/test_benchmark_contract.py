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
