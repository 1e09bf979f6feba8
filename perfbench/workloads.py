"""The three workloads: instance pools, one op each, and the output checks.

Each workload builds a fixed pool of instances from the workload seed
(numpy's own generator; the program only ever sees the generated inputs)
and defines one op on an instance. ``check`` runs outside the timed
interval and returns ``(reason, incorrect)``: ``reason`` is None for a
good op, otherwise why it failed; ``incorrect`` marks an output that
disagrees with the independent recomputation in ``reference``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import energy_attention as ea
import reference
from energy_attention import cli

SIGMA = 0.1
# odd p is left out on purpose: u^p is unbounded below and diverges by design
DESCENT_FORMS = (("quadratic", None), ("polynomial", 4), ("exponential", None))
PROBE_FORMS = (("linear", None),) + DESCENT_FORMS


def _form_json(kind, p):
    return {"kind": kind, "p": p} if p is not None else {"kind": kind}


def _seed64(rng) -> int:
    return int(rng.integers(0, 2**63))


# --------------------------------------------------------------- descent-large


@dataclass
class HeadInstance:
    x: np.ndarray
    w: tuple[np.ndarray, np.ndarray, np.ndarray]
    g0: float
    spec: ea.HeadSpec


class DescentLarge:
    """One op is one ``ea.run_head`` solved to 1e-3 of its initial gradient norm."""

    name = "descent-large"
    D, D_K, D_V = 64, 16, 16
    ETA = 0.5
    BUDGET = 400
    REL_TOL = 1e-3

    def __init__(self, seed: int, work_dir: Path, smoke: bool):
        n, size = (128, 3) if smoke else (1024, 144)
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(self.D)
        self.pool = []
        for i in range(size):
            kind, p = DESCENT_FORMS[i % len(DESCENT_FORMS)]
            x = rng.standard_normal((n, self.D)) * scale
            w = tuple(
                rng.standard_normal(shape) * scale
                for shape in ((self.D, self.D_K), (self.D, self.D_K), (self.D, self.D_V))
            )
            perturb_seed = _seed64(rng)
            a, v = reference.attention(x, *w)
            noise = reference.splitmix_normals(perturb_seed, n * self.D_V).reshape(n, self.D_V)
            g0 = reference.grad_norm(kind, p, a, v, a @ v + SIGMA * noise)
            spec = ea.HeadSpec(
                d=self.D,
                d_k=self.D_K,
                d_v=self.D_V,
                form=ea.EnergyForm(kind, p),
                descent=ea.DescentConfig(
                    eta=self.ETA, max_iters=self.BUDGET, grad_tol=self.REL_TOL * g0
                ),
                perturb_sigma=SIGMA,
                perturb_seed=perturb_seed,
            )
            self.pool.append(HeadInstance(x, w, g0, spec))

    def op(self, inst: HeadInstance):
        # looked up on the package at call time so the traced run sees it
        return ea.run_head(inst.x, ea.ProjectionWeights(*inst.w), inst.spec)

    def check(self, inst: HeadInstance, out):
        return check_head(inst, out.z, out.trace)


def check_head(inst: HeadInstance, z: np.ndarray, trace):
    """Recompute A, u, c and grad E_R from (x, W, Z) and compare with the trace."""
    tol = inst.spec.descent.grad_tol
    problems = []
    if not np.isfinite(z).all():
        return "final Z has non-finite entries", True
    a, v = reference.attention(inst.x, *inst.w)
    e_r, e_scale, grad = reference.regularized(inst.spec.form.kind, inst.spec.form.p, a, v, z)
    g = float(np.linalg.norm(grad))
    if abs(trace.grad_norms[0] - inst.g0) > 1e-6 * inst.g0:
        problems.append(f"initial grad norm {trace.grad_norms[0]:.6g} != recomputed {inst.g0:.6g}")
    if abs(trace.grad_norms[-1] - g) > 1e-6 * max(g, tol):
        problems.append(f"final grad norm {trace.grad_norms[-1]:.6g} != recomputed {g:.6g}")
    if abs(trace.energies[-1] - e_r) > 1e-9 * (1.0 + e_scale):
        problems.append(f"final E_R {trace.energies[-1]!r} != recomputed {e_r!r}")
    rises = [k for k in range(1, len(trace.energies)) if trace.energies[k] > trace.energies[k - 1]]
    if rises:
        problems.append(f"energy rose at step {rises[0]}")
    if problems:
        return "; ".join(problems), True
    if trace.diverged:
        return "diverged", False
    if not trace.converged:
        if trace.iters >= inst.spec.descent.max_iters:
            return f"budget: {trace.iters} steps without reaching tolerance", False
        return f"stalled: stopped after {trace.iters} steps, neither converged nor diverged", False
    if g > tol * (1.0 + 1e-6):
        return f"reported converged but recomputed grad norm {g:.6g} > tolerance {tol:.6g}", True
    return None, False


# ---------------------------------------------------------------- cli-pipeline


@dataclass
class PipelineInstance:
    dir: Path
    config: dict
    gen_digest: str | None = None
    first_report: bytes | None = None


_MATRICES = ("X", "W_q", "W_k", "W_v")


class CliPipeline:
    """One op is in-process ``gen`` then ``run`` on one seeded config."""

    name = "cli-pipeline"
    HEADS = 4
    T_MAX = 5

    def __init__(self, seed: int, work_dir: Path, smoke: bool):
        # one size: with several sizes the latencies fall into one cluster
        # per size, and the median and tail land on the gaps between them
        n, size = (64, 3) if smoke else (1024, 6)
        rng = np.random.default_rng(seed)
        self.pool = []
        for i in range(size):
            kind, p = DESCENT_FORMS[i % len(DESCENT_FORMS)]
            config = {
                "n": n,
                "d": 64,
                "d_k": 16,
                "d_v": 16,
                "form": _form_json(kind, p),
                "perturb_sigma": SIGMA,
                "t_max": self.T_MAX,
                "heads": self.HEADS,
                "seed": _seed64(rng),
            }
            inst_dir = work_dir / f"pipeline-{i}"
            inst_dir.mkdir(parents=True)
            (inst_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
            self.pool.append(PipelineInstance(inst_dir, config))

    def op(self, inst: PipelineInstance):
        config = str(inst.dir / "config.json")
        with contextlib.redirect_stdout(io.StringIO()):
            gen_code = cli.main(["gen", "--config", config, "--out", str(inst.dir / "in")])
        run_code = cli.main(
            ["run", "--config", config, "--in", str(inst.dir / "in"),
             "--out", str(inst.dir / "report.json")]
        )
        return gen_code, run_code

    def check(self, inst: PipelineInstance, out):
        gen_code, run_code = out
        if gen_code or run_code:
            return f"exit codes gen={gen_code} run={run_code}", False
        files = [(inst.dir / "in" / f"{name}.json").read_bytes() for name in _MATRICES]
        digest = hashlib.sha256(b"".join(files)).hexdigest()
        if inst.gen_digest is None:
            problems = check_gen_files(inst.config, files)
            if problems:
                return "; ".join(problems), True
            inst.gen_digest = digest
        elif digest != inst.gen_digest:
            return "gen output differs from the first gen of this seed", True
        body = (inst.dir / "report.json").read_bytes()
        problems = check_report(body, inst.first_report, inst.config)
        if problems:
            return "; ".join(problems), True
        if inst.first_report is None:
            inst.first_report = body
        return None, False


def check_gen_files(config: dict, files: list[bytes]) -> list[str]:
    """Parse the written matrices and compare them bit for bit with the reference draws."""
    c = config
    expected = reference.problem_matrices(c["seed"], c["n"], c["d"], c["d_k"], c["d_v"])
    problems = []
    for name, body, want in zip(_MATRICES, files, expected):
        obj = json.loads(body)
        got = np.array(obj.get("data", []), dtype=np.float64)
        if (obj.get("name"), obj.get("rows"), obj.get("cols")) != (name, *want.shape):
            problems.append(f"{name}: header {obj.get('name')!r} {obj.get('rows')}x{obj.get('cols')}")
        elif got.size != want.size or not np.array_equal(
            got.view(np.uint64), want.ravel().view(np.uint64)
        ):
            problems.append(f"{name}: data do not read back bit-identical to the seeded draws")
    return problems


def check_report(body: bytes, first: bytes | None, config: dict) -> list[str]:
    """Byte identity with the first report of the seed, then per-head sanity."""
    if first is not None and body != first:
        return ["report differs from the first report for this seed"]
    try:
        heads = json.loads(body)["heads"]
    except (ValueError, KeyError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if len(heads) != config["heads"]:
        problems.append(f"{len(heads)} heads reported, {config['heads']} configured")
    for k, head in enumerate(heads):
        numbers = [head["final_grad_norm"], head["energy_initial"], head["energy_final"]]
        if not all(isinstance(x, float) and math.isfinite(x) for x in numbers):
            problems.append(f"head {k}: non-finite field")
        elif head["energy_final"] > head["energy_initial"]:
            problems.append(f"head {k}: energy_final > energy_initial")
        if not 0 <= head["iters"] <= config["t_max"]:
            problems.append(f"head {k}: iters {head['iters']} outside [0, t_max]")
    return problems


# --------------------------------------------------------------- verify-probes


class VerifyProbes:
    """One op is in-process ``gradcheck`` plus ``stationarity`` on one config."""

    name = "verify-probes"

    def __init__(self, seed: int, work_dir: Path, smoke: bool):
        n, size = (8, 4) if smoke else (48, 6)
        rng = np.random.default_rng(seed)
        self.pool = []
        # linear and quadratic probes are faster than polynomial and exponential
        # ones; six configs (L, Q, P, E, L, Q) put the median inside the fast
        # group rather than on the gap between two equal groups
        for i in range(size):
            kind, p = PROBE_FORMS[i % len(PROBE_FORMS)]
            config = {"n": n, "d": 16, "d_k": 8, "d_v": 8, "form": _form_json(kind, p),
                      "seed": _seed64(rng)}
            inst_dir = work_dir / f"probe-{i}"
            inst_dir.mkdir(parents=True)
            (inst_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
            self.pool.append(inst_dir)

    def op(self, inst_dir: Path):
        config = str(inst_dir / "config.json")
        codes = []
        for probe in ("gradcheck", "stationarity"):
            out = str(inst_dir / f"{probe}.json")
            codes.append(cli.main([probe, "--config", config, "--out", out]))
        return codes

    def check(self, inst_dir: Path, codes):
        problems = []
        for probe, code in zip(("gradcheck", "stationarity"), codes):
            report = json.loads((inst_dir / f"{probe}.json").read_text(encoding="utf-8"))
            if code != 0 or report.get("pass") is not True:
                problems.append(f"{probe}: exit {code}, pass={report.get('pass')}")
        return ("; ".join(problems), True) if problems else (None, False)


WORKLOADS = {w.name: w for w in (DescentLarge, CliPipeline, VerifyProbes)}
