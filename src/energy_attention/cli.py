"""Command-line front end.

Subcommands: ``gen`` (seeded problem files), ``run`` (execute heads and
report), ``gradcheck`` / ``stationarity`` (verification probes), ``trace``
(per-iteration CSV) and ``sweep`` (parameter grids with wall times). Each
is one ``cmd_<name>(config, ...)`` whose other parameters are its flags'
argparse dests; it writes its own output and returns its exit code, and
``main`` only loads the config and maps a usage error to exit 2.

Configs and reports are JSON, traces and sweeps CSV; a report writes each
non-finite float (a diverged start, say) as null. The fields of
``RunConfig`` are the config keys; which keys are required or floats, what
``sweep`` accepts and the sweep CSV's columns all derive from them. Every
integer or float key but ``heads`` can be swept, and so can the degree
``p``. Reports contain no timestamps, so identical configs produce
byte-identical report bodies under one BLAS thread count (with another,
BLAS may sum a product in another order and change the last digits); the
sweep CSV's wall_time_ms column is the one non-deterministic field. Probe
flags must be finite, with ``--h`` > 0 and ``--tol`` >= 0.

Exit codes: 0 success, 1 verification failure, 2 usage/config error
(including a finite-difference probe that leaves the float range, for
every form), 3 a diverged head or ``sweep`` grid point, whose report,
trace or CSV is still written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .attention import ProjectionWeights, build_context
from .dynamics import DescentConfig
from .energy import EnergyForm, check_count
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


class ConfigError(ValueError):
    """The run configuration is malformed or internally inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """The keys of a config file, one field each."""

    n: int
    d: int
    d_k: int
    d_v: int
    form: EnergyForm
    eta: float = DescentConfig.eta
    t_max: int = DescentConfig.max_iters
    grad_tol: float = DescentConfig.grad_tol
    clip_norm: float | None = DescentConfig.clip_norm
    perturb_sigma: float = HeadSpec.perturb_sigma
    # a config file must name its seed; the default serves callers in Python
    seed: int = field(default=0, metadata={"required": True})
    # a sweep runs one head per grid point, so heads is never swept
    heads: int = field(default=1, metadata={"sweep": False})

    def __post_init__(self):
        # HeadSpec checks the rest; t_max is checked here so its error names the key
        try:
            for name in ("n", "t_max", "heads"):
                check_count(name, getattr(self, name))
            check_count("seed", self.seed, 0, 2**64)
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


# field annotations are strings here (postponed evaluation, see the imports)
_FIELDS = fields(RunConfig)
_REQUIRED_KEYS = {f.name for f in _FIELDS if f.default is MISSING or f.metadata.get("required")}
# float fields, in field order; a JSON integer given for one reads as a float
_FLOAT_KEYS = [f.name for f in _FIELDS if f.type.startswith("float")]
# sweep parameter -> parser of its --values; p is the degree inside form
_SWEEP_PARAMS = {
    f.name: float if f.name in _FLOAT_KEYS else int
    for f in _FIELDS
    if f.type.startswith(("int", "float")) and f.metadata.get("sweep", True)
}
_SWEEP_PARAMS["p"] = int


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
    unknown = set(obj) - {f.name for f in _FIELDS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    kwargs = dict(obj)
    kwargs["form"] = _parse_form(obj["form"])
    # the types check every value; true and false are bools, not ints
    for key in _FLOAT_KEYS:
        if type(obj.get(key)) is int:
            try:
                kwargs[key] = float(obj[key])
            except OverflowError as exc:
                raise ConfigError(f"{key} is out of the float range: {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    return parse_config(json.loads(Path(path).read_text(encoding="utf-8")))


def _matrix_shapes(config: RunConfig) -> dict:
    """Name and shape of each problem matrix, in draw and file order."""
    return {
        "X": (config.n, config.d),
        "W_q": (config.d, config.d_k),
        "W_k": (config.d, config.d_k),
        "W_v": (config.d, config.d_v),
    }


def generate_inputs(config: RunConfig, stream: GaussianStream | None = None):
    """Seeded token and weight matrices, entries N(0, 1/d).

    One Gaussian stream, seeded with ``config.seed`` unless ``stream`` is
    given, is drawn in the order of ``_matrix_shapes``, so the same seed
    reproduces the same problem everywhere.
    """
    stream = GaussianStream(config.seed) if stream is None else stream
    scale = 1.0 / math.sqrt(config.d)
    x, *weights = [stream.matrix(*shape, scale) for shape in _matrix_shapes(config).values()]
    return x, ProjectionWeights(*weights)


def _write(text: str, path=None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(rows, path) -> None:
    """Write ``rows`` as CSV: %.17g floats, None empty, true/false."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g") if isinstance(value, float) else str(value)

    _write("".join(",".join(map(cell, row)) + "\n" for row in rows), path)


def _write_report(report: dict, out) -> None:
    """Write ``report`` as sorted, indented JSON to ``out`` (stdout when None)."""
    # NaN and +-Infinity are not JSON: a round trip reads them back as null
    report = json.loads(json.dumps(report), parse_constant=lambda _: None)
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def cmd_gen(config: RunConfig, out) -> int:
    """Write the four problem matrices as JSON files under ``out``, then print their paths."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    x, w = generate_inputs(config)
    paths = []
    for name, matrix in zip(_matrix_shapes(config), (x, w.w_q, w.w_k, w.w_v)):
        paths.append(out_dir / f"{name}.json")
        save_matrix(paths[-1], name, matrix)
    _write("".join(f"{path}\n" for path in paths))
    return EXIT_OK


def _load_inputs(config: RunConfig, in_dir):
    loaded = []
    for name, shape in _matrix_shapes(config).items():
        filename = f"{name}.json"
        read_name, m = load_matrix(Path(in_dir) / filename)
        if read_name != name:
            raise ConfigError(f"{filename}: expected matrix {name!r}, found {read_name!r}")
        if m.shape != shape:
            raise ConfigError(f"{filename}: expected shape {shape}, got {m.shape}")
        loaded.append(m)
    x, *weights = loaded
    return x, ProjectionWeights(*weights)


def cmd_run(config: RunConfig, in_dir, out=None, emit_z: bool = False) -> int:
    """Execute the configured heads and write their report; exit 3 if any diverged.

    Every head reads the same tokens through the same weights, so one
    attention context serves them all; only the perturbation noise differs.
    """
    x, w = _load_inputs(config, in_dir)
    ctx = build_context(x, w)
    entries = []
    for index in range(config.heads):
        head = solve_head(ctx, config.head_spec(index))
        trace = head.trace
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
                "rows": head.z.shape[0],
                "cols": head.z.shape[1],
                "data": head.z.ravel(order="C").tolist(),
            }
        entries.append(entry)
    _write_report({"config": config.to_dict(), "heads": entries}, out)
    return EXIT_DIVERGED if any(e["diverged"] for e in entries) else EXIT_OK


def _probe_report(config: RunConfig, check: str, params: dict, probe, out) -> int:
    """Run ``probe`` on CHECK_TRIALS seeded instances and write the report; exit 1 on a fail.

    Trial t draws the problem for seed ``config.seed + t`` and calls
    ``probe(ctx, stream)`` with its context and the stream positioned after
    the problem matrices. The probe returns a report dataclass whose fields
    become the trial's; the ``params`` are stated once, at the top.
    """
    trials = []
    for t in range(CHECK_TRIALS):
        seed = (config.seed + t) % 2**64
        stream = GaussianStream(seed)
        x, w = generate_inputs(config, stream)
        trial = asdict(probe(build_context(x, w), stream))
        trial["pass"] = trial.pop("passed")
        trials.append({"seed": seed, **trial})
    passed = all(t["pass"] for t in trials)
    report = {"config": config.to_dict(), "check": check, **params, "trials": trials, "pass": passed}
    _write_report(report, out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_gradcheck(config: RunConfig, out=None, tol: float = 1e-5, h: float = 1e-6) -> int:
    """Finite-difference gradient checks on seeded instances."""

    def probe(ctx, stream):
        z = stream.matrix(config.n, config.d_v)
        return gradcheck(config.form, ctx, z, h=h, tol=tol)

    return _probe_report(config, "gradient", {"h": h, "tol": tol}, probe, out)


def cmd_stationarity(config: RunConfig, out=None, tol: float = 1e-8) -> int:
    """Gradient-at-AV checks on seeded instances."""

    def probe(ctx, stream):
        return stationarity_check(config.form, ctx, tol=tol)

    return _probe_report(config, "stationarity", {"tol": tol}, probe, out)


def cmd_trace(config: RunConfig, out) -> int:
    """Export one head's trace as ``iter,energy,grad_norm`` rows; exit 3 if it diverged."""
    x, w = generate_inputs(config)
    trace = run_head(x, w, config.head_spec(0)).trace
    rows = [("iter", "energy", "grad_norm")]
    rows += [(i, e, g) for i, (e, g) in enumerate(zip(trace.energies, trace.grad_norms))]
    _write_csv(rows, out)
    return EXIT_DIVERGED if trace.diverged else EXIT_OK


def _parse_sweep_values(param: str, text: str):
    convert = _SWEEP_PARAMS.get(param)
    if convert is None:
        allowed = sorted(_SWEEP_PARAMS)
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
    return replace(config, **{param: value, "seed": seed})


def _config_cells(config: RunConfig):
    """(column, value) of each sweepable field in field order, form split into kind and p."""
    for key, value in config.to_dict().items():
        if key == "form":
            yield from (("form", value["kind"]), ("p", value.get("p")))
        elif key in _SWEEP_PARAMS:
            yield key, value


def cmd_sweep(config: RunConfig, param: str, values: str, out) -> int:
    """One head run per value of the comma-separated ``values``; exit 3 if any diverged.

    Each CSV row holds its grid point's config, results and wall time.
    Every value is parsed, and every grid point's config and head spec is
    built, before any head is solved, so an invalid value fails before the
    first descent.
    """
    grid = _parse_sweep_values(param, values)
    configs = [_sweep_config(config, param, value, index) for index, value in enumerate(grid)]
    specs = [cfg.head_spec(0) for cfg in configs]
    header = [column for column, _ in _config_cells(config)]
    rows = [header + ["converged", "iters", "final_grad_norm", "wall_time_ms"]]
    diverged = False
    for cfg, spec in zip(configs, specs):
        x, w = generate_inputs(cfg)
        start = time.perf_counter()
        trace = run_head(x, w, spec).trace
        wall_ms = format((time.perf_counter() - start) * 1e3, ".3f")
        diverged = diverged or trace.diverged
        cells = [cell for _, cell in _config_cells(cfg)]
        rows.append(cells + [trace.converged, trace.iters, trace.grad_norms[-1], wall_ms])
    _write_csv(rows, out)
    return EXIT_DIVERGED if diverged else EXIT_OK


# Each subcommand's help and flags, as add_argument keywords; every
# subcommand also takes the config path. Absent probe flags leave the
# defaults of cmd_gradcheck and cmd_stationarity in force.
_PROBE_FLAG = {"type": float, "default": argparse.SUPPRESS}
_COMMANDS = {
    "gen": (
        "write seeded problem matrices",
        {"--out": {"required": True, "help": "output directory"}},
    ),
    "run": (
        "execute heads and write a JSON report",
        {
            "--in": {"dest": "in_dir", "required": True, "help": "directory with gen output"},
            "--out": {"help": "report path (stdout when omitted)"},
            "--emit-z": {"action": "store_true", "help": "embed final Z in the report"},
        },
    ),
    "gradcheck": (
        "finite-difference gradient verification",
        {"--out": {}, "--tol": _PROBE_FLAG, "--h": _PROBE_FLAG},
    ),
    "stationarity": ("gradient-at-AV verification", {"--out": {}, "--tol": _PROBE_FLAG}),
    "trace": ("export a descent trace as CSV", {"--out": {"required": True, "help": "CSV path"}}),
    "sweep": (
        "run a parameter grid and record wall times",
        {
            "--param": {"required": True},
            "--values": {"required": True, "help": "comma-separated values"},
            "--out": {"required": True, "help": "CSV path"},
        },
    ),
}


# parse_args leaves the parser as it was, so one build serves every main()
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energy-attention",
        description="Energy-functional attention heads: generation, execution, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True)
        for flag, keywords in flags.items():
            command.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    # cmd_<name> is looked up here, at call time, so that a wrapper set on
    # this module (a tracer, a test double) sees every call
    command = globals()[f"cmd_{flags.pop('command')}"]
    try:
        # every subcommand reads its config first
        return command(load_config(flags.pop("config")), **flags)
    except (ValueError, OSError, FloatingPointError) as exc:
        # a FloatingPointError is a finite-difference probe that left the
        # float range (--h too big)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
