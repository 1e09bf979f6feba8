"""Benchmark of the energy_attention package: head solves, CLI pipeline, oracle probes.

    python3 perfbench/run.py --workload descent-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one did not, and 2 when the
package cannot be found next to this directory. See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

VERSION = "1"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("descent-large", "cli-pipeline", "verify-probes")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10


def import_package():
    """Import energy_attention from this checkout's src/, never from elsewhere."""
    init = ROOT / "src" / "energy_attention" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import energy_attention

    if Path(energy_attention.__file__).resolve() != init.resolve():
        print(f"error: imported {energy_attention.__file__}, expected {init}", file=sys.stderr)
        sys.exit(2)


def run_passes(workload, seconds=None, passes=None, tracer=None):
    """Closed loop over the pool in a fixed order, whole passes only.

    With ``passes`` given, runs exactly that many. Otherwise runs passes
    until one more would end after ``seconds``; at least one pass runs, so
    every instance counts equally. Returns ([(instance, seconds, reason,
    incorrect)], passes run).
    """
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        for index, inst in enumerate(workload.pool):
            if tracer is not None:
                tracer.op = len(records)
            t = time.perf_counter()
            try:
                out = workload.op(inst)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                dt = time.perf_counter() - t
                records.append((index, dt, f"raised {type(exc).__name__}: {exc}", False))
                continue
            dt = time.perf_counter() - t
            reason, incorrect = workload.check(inst, out)
            records.append((index, dt, reason, incorrect))
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif now - start + (now - pass_start) > seconds:
            break
    return records, done


def latency_stats(records):
    """Median, tail and throughput over the ops that succeeded."""
    ok = sorted(dt for _, dt, reason, _ in records if reason is None)
    if not ok:
        return None
    if len(ok) > TAIL_BEYOND:
        tail = ok[len(ok) - TAIL_BEYOND - 1]
        tail_pct = 100.0 * (len(ok) - TAIL_BEYOND) / len(ok)
    else:
        tail, tail_pct = ok[-1], 100.0
    return {
        "op_p50_ms": statistics.median(ok) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": tail_pct,
        "samples": len(ok),
        "ops_per_s": len(ok) / sum(dt for _, dt, _, _ in records),
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def failure_lines(records):
    reasons = Counter(reason for _, _, reason, _ in records if reason is not None)
    return [f"failed x{count}: {reason}" for reason, count in reasons.most_common()]


def run_all(args) -> int:
    """Run every workload in its own process; print each table and a combined line."""
    combined, worst = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        combined[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        worst = max(worst, proc.returncode)
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)

    import_package()
    import machine
    import spans
    from workloads import WORKLOADS

    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, args.smoke)
        workload.check(workload.pool[0], workload.op(workload.pool[0]))  # warm-up op
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            # untraced reference for the overhead, then the same passes traced
            plain, passes = run_passes(workload, seconds=args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = run_passes(workload, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
            records = plain + traced
        else:
            records, passes = run_passes(workload, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": passes,
        "pool": len(workload.pool),
        "machine": machine.notes(args.seed, VERSION),
        "failures": [
            {"op": i, "instance": inst, "reason": reason, "incorrect": incorrect}
            for i, (inst, _, reason, incorrect) in enumerate(records)
            if reason is not None
        ],
    }
    if args.trace:
        plain_stats, traced_stats = latency_stats(plain), latency_stats(traced)
        layer, absent = spans.layer_metrics(tracer, passes)
        metrics = dict(layer)
        if plain_stats and traced_stats:
            overhead = traced_stats["op_p50_ms"] - plain_stats["op_p50_ms"]
            metrics["trace.overhead_p50_ms"] = (overhead, "ms")
            metrics["trace.overhead_pct"] = (100.0 * overhead / plain_stats["op_p50_ms"], "%")
        result.update(
            absent=absent,
            missing_wrapped_names=sorted(tracer.missing),
            span_count=tracer.span_count(),
            spans={name: dict(zip(("calls", "total_s", "self_s"), row))
                   for name, row in tracer.totals().items()},
            untraced=plain_stats,
            traced=traced_stats,
        )
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        stats = latency_stats(records)
        metrics = {"setup_s": (statistics.median(setups), "s")}
        if stats:
            metrics.update(
                op_p50_ms=(stats["op_p50_ms"], "ms"),
                op_tail_ms=(stats["op_tail_ms"], "ms"),
                ops_per_s=(stats["ops_per_s"], "1/s"),
            )
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        result.update(setups_s=setups, latency=stats,
                      latencies_ms=[dt * 1e3 for _, dt, _, _ in records])

    attempted = len(records)
    failed = sum(reason is not None for _, _, reason, _ in records)
    correct = failed < attempted and not any(incorrect for _, _, _, incorrect in records)
    result.update(correct=correct, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  pool {len(workload.pool)}  "
          f"passes {passes}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if not args.trace and result["latency"]:
        lat = result["latency"]
        print(f"  op_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for line in failure_lines(records):
        print(f"  {line}")
    if args.trace and result["absent"]:
        print(f"  absent (wrapped name missing): {', '.join(result['absent'])}")
    print(f"  machine {json.dumps(result['machine'])}")
    print(f"  full result: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
