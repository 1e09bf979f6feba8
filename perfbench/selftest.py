"""Self-tests of the benchmark: smoke sizes, injected bad results, absent metrics.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import energy_attention.heads  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = BENCH_DIR / ".work" / "selftest"


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class SmokeRuns(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        want_e2e = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
        want_layer = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
        for workload in [w["name"] for w in CONTRACT["workloads"]]:
            with self.subTest(workload=workload):
                plain, traced = smoke(workload, 0), smoke(workload, 1)
                for result in (plain, traced):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(units(plain), want_e2e)
                self.assertEqual(units(traced), want_layer)

    def test_counts_repeat_for_a_fixed_seed(self):
        first, second = smoke("descent-large", 1), smoke("descent-large", 1)
        for name in ("dynamics.steps", "energy.evals", "rng.draws"):
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"])
            self.assertGreater(first["metrics"][name]["value"], 0)

    def test_fails_without_the_package(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "verify-probes", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checkers(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_head_moved_off_the_stationary_set_is_rejected(self):
        wl = workloads.DescentLarge(5, WORK, smoke=True)
        inst = wl.pool[0]
        out = wl.op(inst)
        self.assertEqual(wl.check(inst, out), (None, False))
        reason, incorrect = workloads.check_head(inst, out.z + 1e-2, out.trace)
        self.assertTrue(incorrect)
        self.assertIn("grad norm", reason)

    def test_report_with_one_changed_byte_is_rejected(self):
        wl = workloads.CliPipeline(5, WORK, smoke=True)
        inst = wl.pool[0]
        self.assertEqual(wl.check(inst, wl.op(inst)), (None, False))
        body = bytearray((inst.dir / "report.json").read_bytes())
        pos = body.index(b'"energy_final": ') + len(b'"energy_final": ') + 3
        body[pos] = ord("1") if body[pos] != ord("1") else ord("2")
        self.assertTrue(workloads.check_report(bytes(body), inst.first_report, inst.config))
        (inst.dir / "report.json").write_bytes(bytes(body))
        self.assertTrue(wl.check(inst, (0, 0))[1])


class Tracing(unittest.TestCase):
    def test_missing_wrapped_name_is_absent_not_zero(self):
        original = energy_attention.heads.descend
        del energy_attention.heads.descend
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            energy_attention.heads.descend = original
        metrics, absent = spans.layer_metrics(tracer, passes=1)
        self.assertIn("heads.descend", tracer.missing)
        for name in ("dynamics.descend_s", "dynamics.steps", "dynamics.accept_ratio"):
            self.assertIn(name, absent)
            self.assertNotIn(name, metrics)
        self.assertIn("energy.evals", metrics)

    def test_uninstall_restores_every_name(self):
        before = energy_attention.heads.build_context
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(energy_attention.heads.build_context, before)
        tracer.uninstall()
        self.assertIs(energy_attention.heads.build_context, before)
        self.assertFalse(tracer.missing)


if __name__ == "__main__":
    unittest.main()
