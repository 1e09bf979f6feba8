"""Command-line front end.

Subcommands: ``gen`` (seeded problem files), ``run`` (execute heads and
report), ``gradcheck`` / ``stationarity`` (verification probes), ``trace``
(per-iteration CSV) and ``sweep`` (parameter grids with wall times).

Configs and reports are JSON, traces and sweeps CSV. Reports contain no
timestamps, so identical configs produce byte-identical report bodies; the
sweep CSV's wall_time_ms column is the one non-deterministic field anywhere.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 divergence (including exponential overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .attention import ProjectionWeights, build_context
from .dynamics import DescentConfig
from .energy import EnergyForm, ExpOverflowError
from .heads import HeadSpec, run_head, solve_head
from .matio import load_matrix, save_matrix
from .rng import GaussianStream
from .verify import gradcheck, stationarity_check

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_DIVERGED",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "generate_inputs",
    "cmd_gen",
    "cmd_run",
    "cmd_gradcheck",
    "cmd_stationarity",
    "cmd_trace",
    "cmd_sweep",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

CHECK_TRIALS = 5

_MATRIX_FILES = (("X", "X.json"), ("W_q", "W_q.json"), ("W_k", "W_k.json"), ("W_v", "W_v.json"))

_REQUIRED_KEYS = {"n", "d", "d_k", "d_v", "form", "seed"}

_SWEEP_INT_PARAMS = {"n", "d", "d_k", "d_v", "t_max", "p", "seed"}
_SWEEP_FLOAT_PARAMS = {"eta", "grad_tol", "clip_norm", "perturb_sigma"}

_SWEEP_HEADER = (
    "n,d,d_k,d_v,form,p,eta,t_max,grad_tol,clip_norm,perturb_sigma,seed,"
    "converged,iters,final_grad_norm,wall_time_ms"
)


class ConfigError(ValueError):
    """The run configuration is malformed or internally inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    n: int
    d: int
    d_k: int
    d_v: int
    form: EnergyForm
    eta: float = 0.01
    t_max: int = 100
    grad_tol: float = 1e-8
    clip_norm: float | None = None
    perturb_sigma: float = 0.0
    seed: int = 0
    heads: int = 1

    def __post_init__(self):
        for name in ("n", "d", "d_k", "d_v", "t_max", "heads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        try:
            self.head_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def head_spec(self, index: int = 0) -> HeadSpec:
        # noise streams are offset from the run seed so heads stay distinct
        # from the problem-generation stream
        return HeadSpec(
            d=self.d,
            d_k=self.d_k,
            d_v=self.d_v,
            form=self.form,
            descent=DescentConfig(
                eta=self.eta,
                max_iters=self.t_max,
                grad_tol=self.grad_tol,
                clip_norm=self.clip_norm,
            ),
            perturb_sigma=self.perturb_sigma,
            perturb_seed=(self.seed + 1 + index) % 2**64,
        )

    def to_dict(self) -> dict:
        form: dict = {"kind": self.form.kind}
        if self.form.kind == "polynomial":
            form["p"] = self.form.p
        return {**asdict(self), "form": form}


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _parse_form(obj) -> EnergyForm:
    if not isinstance(obj, dict):
        raise ConfigError('form must be an object like {"kind": "quadratic"}')
    unknown = set(obj) - {"kind", "p"}
    if unknown:
        raise ConfigError(f"unknown form keys: {sorted(unknown)}")
    try:
        return EnergyForm(obj.get("kind"), obj.get("p"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    kwargs = dict(obj)
    kwargs["form"] = _parse_form(obj["form"])
    for key in ("eta", "grad_tol", "perturb_sigma"):
        if key in kwargs:
            kwargs[key] = float(kwargs[key])
    if kwargs.get("clip_norm") is not None:
        kwargs["clip_norm"] = float(kwargs["clip_norm"])
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    return parse_config(json.loads(Path(path).read_text(encoding="utf-8")))


def _draw_inputs(config: RunConfig, stream: GaussianStream):
    scale = 1.0 / math.sqrt(config.d)
    x = stream.matrix(config.n, config.d, scale)
    w_q = stream.matrix(config.d, config.d_k, scale)
    w_k = stream.matrix(config.d, config.d_k, scale)
    w_v = stream.matrix(config.d, config.d_v, scale)
    return x, ProjectionWeights(w_q, w_k, w_v)


def generate_inputs(config: RunConfig):
    """Seeded token and weight matrices, entries N(0, 1/d).

    One Gaussian stream seeded with ``config.seed`` is drawn in the fixed
    order X, W_q, W_k, W_v, so the same seed reproduces the same problem
    everywhere.
    """
    return _draw_inputs(config, GaussianStream(config.seed))


def _seeded_instance(config: RunConfig, seed: int):
    """Context for ``seed``'s problem, plus its stream positioned after W_v."""
    stream = GaussianStream(seed)
    x, w = _draw_inputs(config, stream)
    return build_context(x, w, config.d_k), stream


def cmd_gen(config: RunConfig, out_dir) -> list[Path]:
    """Write the four problem matrices as JSON files under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x, w = generate_inputs(config)
    matrices = {"X": x, "W_q": w.w_q, "W_k": w.w_k, "W_v": w.w_v}
    paths = []
    for name, filename in _MATRIX_FILES:
        path = out_dir / filename
        save_matrix(path, name, matrices[name])
        paths.append(path)
    return paths


def _load_inputs(config: RunConfig, in_dir):
    in_dir = Path(in_dir)
    expected = {
        "X": (config.n, config.d),
        "W_q": (config.d, config.d_k),
        "W_k": (config.d, config.d_k),
        "W_v": (config.d, config.d_v),
    }
    loaded = {}
    for name, filename in _MATRIX_FILES:
        read_name, m = load_matrix(in_dir / filename)
        if read_name != name:
            raise ConfigError(f"{filename}: expected matrix {name!r}, found {read_name!r}")
        if m.shape != expected[name]:
            raise ConfigError(f"{filename}: expected shape {expected[name]}, got {m.shape}")
        loaded[name] = m
    return loaded["X"], ProjectionWeights(loaded["W_q"], loaded["W_k"], loaded["W_v"])


def cmd_run(config: RunConfig, in_dir, emit_z: bool = False):
    """Execute the configured heads; returns (report, any_diverged).

    Every head reads the same tokens through the same weights, so one
    attention context serves them all; only the perturbation noise differs.
    """
    x, w = _load_inputs(config, in_dir)
    ctx = build_context(x, w, config.d_k)
    entries = []
    any_diverged = False
    for index in range(config.heads):
        out = solve_head(ctx, config.head_spec(index))
        trace = out.trace
        entry = {
            "form": config.form.kind,
            "iters": trace.iters,
            "converged": trace.converged,
            "diverged": trace.diverged,
            "final_grad_norm": trace.grad_norms[-1],
            "energy_initial": trace.energies[0],
            "energy_final": trace.energies[-1],
        }
        if emit_z:
            entry["z"] = {
                "rows": out.z.shape[0],
                "cols": out.z.shape[1],
                "data": out.z.ravel(order="C").tolist(),
            }
        any_diverged = any_diverged or trace.diverged
        entries.append(entry)
    return {"config": config.to_dict(), "heads": entries}, any_diverged


def cmd_gradcheck(config: RunConfig, tol: float = 1e-5, h: float = 1e-6):
    """Finite-difference gradient checks on seeded instances."""
    trials = []
    for t in range(CHECK_TRIALS):
        seed = (config.seed + t) % 2**64
        ctx, stream = _seeded_instance(config, seed)
        z = stream.matrix(config.n, config.d_v)
        report = gradcheck(config.form, ctx.a, ctx.v, z, h=h, tol=tol)
        trials.append(
            {
                "seed": seed,
                "max_abs_err": report.max_abs_err,
                "max_rel_err": report.max_rel_err,
                "worst_index": list(report.worst_index),
                "pass": report.passed,
            }
        )
    passed = all(t["pass"] for t in trials)
    return (
        {
            "config": config.to_dict(),
            "check": "gradient",
            "h": h,
            "tol": tol,
            "trials": trials,
            "pass": passed,
        },
        passed,
    )


def cmd_stationarity(config: RunConfig, tol: float = 1e-8):
    """Gradient-at-AV checks on seeded instances."""
    trials = []
    for t in range(CHECK_TRIALS):
        seed = (config.seed + t) % 2**64
        ctx, _ = _seeded_instance(config, seed)
        report = stationarity_check(config.form, ctx.a, ctx.v, tol=tol)
        trials.append(
            {
                "seed": seed,
                "grad_norm_at_av": report.grad_norm_at_av,
                "scale": report.scale,
                "pass": report.passed,
            }
        )
    passed = all(t["pass"] for t in trials)
    return (
        {
            "config": config.to_dict(),
            "check": "stationarity",
            "tol": tol,
            "trials": trials,
            "pass": passed,
        },
        passed,
    )


def cmd_trace(config: RunConfig, out_csv):
    """Run one head and export its trace as ``iter,energy,grad_norm`` rows."""
    x, w = generate_inputs(config)
    out = run_head(x, w, config.head_spec(0))
    lines = ["iter,energy,grad_norm"]
    for i, (e, g) in enumerate(zip(out.trace.energies, out.trace.grad_norms)):
        lines.append(f"{i},{format(e, '.17g')},{format(g, '.17g')}")
    Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _parse_sweep_values(param: str, text: str):
    if param in _SWEEP_INT_PARAMS:
        convert = int
    elif param in _SWEEP_FLOAT_PARAMS:
        convert = float
    else:
        allowed = sorted(_SWEEP_INT_PARAMS | _SWEEP_FLOAT_PARAMS)
        raise ConfigError(f"unknown sweep parameter {param!r}; expected one of {allowed}")
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("sweep values must be a non-empty comma-separated list")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value for {param!r}: {exc}") from exc


def _sweep_config(config: RunConfig, param: str, value, grid_index: int) -> RunConfig:
    seed = value if param == "seed" else (config.seed + grid_index) % 2**64
    if param == "p":
        if config.form.kind != "polynomial":
            raise ConfigError("sweeping p requires a polynomial form in the config")
        return replace(config, form=EnergyForm("polynomial", value), seed=seed)
    if param == "seed":
        return replace(config, seed=seed)
    return replace(config, **{param: value, "seed": seed})


def cmd_sweep(config: RunConfig, param: str, values, out_csv):
    """One head run per grid point; CSV row with results and wall time."""
    rows = [_SWEEP_HEADER]
    for index, value in enumerate(values):
        cfg = _sweep_config(config, param, value, index)
        x, w = generate_inputs(cfg)
        spec = cfg.head_spec(0)
        start = time.perf_counter()
        out = run_head(x, w, spec)
        wall_ms = (time.perf_counter() - start) * 1e3
        trace = out.trace
        rows.append(
            ",".join(
                [
                    str(cfg.n),
                    str(cfg.d),
                    str(cfg.d_k),
                    str(cfg.d_v),
                    cfg.form.kind,
                    str(cfg.form.p) if cfg.form.kind == "polynomial" else "",
                    format(cfg.eta, ".17g"),
                    str(cfg.t_max),
                    format(cfg.grad_tol, ".17g"),
                    format(cfg.clip_norm, ".17g") if cfg.clip_norm is not None else "",
                    format(cfg.perturb_sigma, ".17g"),
                    str(cfg.seed),
                    "true" if trace.converged else "false",
                    str(trace.iters),
                    format(trace.grad_norms[-1], ".17g"),
                    format(wall_ms, ".3f"),
                ]
            )
        )
    Path(out_csv).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return rows


def _write_report(report: dict, out_path) -> None:
    body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _handle_gen(args) -> int:
    config = load_config(args.config)
    for path in cmd_gen(config, args.out):
        print(path)
    return EXIT_OK


def _handle_run(args) -> int:
    config = load_config(args.config)
    report, any_diverged = cmd_run(config, args.in_dir, emit_z=args.emit_z)
    _write_report(report, args.out)
    return EXIT_DIVERGED if any_diverged else EXIT_OK


def _handle_gradcheck(args) -> int:
    config = load_config(args.config)
    report, passed = cmd_gradcheck(config, tol=args.tol, h=args.h)
    _write_report(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _handle_stationarity(args) -> int:
    config = load_config(args.config)
    report, passed = cmd_stationarity(config, tol=args.tol)
    _write_report(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _handle_trace(args) -> int:
    config = load_config(args.config)
    out = cmd_trace(config, args.out)
    return EXIT_DIVERGED if out.trace.diverged else EXIT_OK


def _handle_sweep(args) -> int:
    config = load_config(args.config)
    values = _parse_sweep_values(args.param, args.values)
    cmd_sweep(config, args.param, values, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energy-attention",
        description="Energy-functional attention heads: generation, execution, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write seeded problem matrices")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(handler=_handle_gen)

    run = sub.add_parser("run", help="execute heads and write a JSON report")
    run.add_argument("--config", required=True)
    run.add_argument("--in", dest="in_dir", required=True, help="directory with gen output")
    run.add_argument("--out", default=None, help="report path (stdout when omitted)")
    run.add_argument("--emit-z", action="store_true", help="embed final Z in the report")
    run.set_defaults(handler=_handle_run)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gc.add_argument("--config", required=True)
    gc.add_argument("--out", default=None)
    gc.add_argument("--tol", type=float, default=1e-5)
    gc.add_argument("--h", type=float, default=1e-6)
    gc.set_defaults(handler=_handle_gradcheck)

    st = sub.add_parser("stationarity", help="gradient-at-AV verification")
    st.add_argument("--config", required=True)
    st.add_argument("--out", default=None)
    st.add_argument("--tol", type=float, default=1e-8)
    st.set_defaults(handler=_handle_stationarity)

    tr = sub.add_parser("trace", help="export a descent trace as CSV")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="CSV path")
    tr.set_defaults(handler=_handle_trace)

    sw = sub.add_parser("sweep", help="run a parameter grid and record wall times")
    sw.add_argument("--config", required=True)
    sw.add_argument("--param", required=True)
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--out", required=True, help="CSV path")
    sw.set_defaults(handler=_handle_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ExpOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
