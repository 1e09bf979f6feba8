"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps functions at the names one module of the package uses
to call another (``heads.descend``, ``dynamics.regularized_energy``,
``cli.save_matrix`` ...), so a call made through that name is timed as a
span: name, start, end, parent span and op id. The wrappers are set with
``setattr`` on the imported modules for the length of the traced loop and
removed afterwards; no file of the package is edited. Spans stay in
memory (compact arrays) until the run ends.

A wrapped name that no longer exists (a later refactor renamed or removed
it) is recorded as missing, and every metric that depends on it is
reported as absent rather than as zero.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict

# (module under energy_attention, attribute path). The span is named
# "<module>.<attribute>"; "ea" stands for the package itself.
WRAPPED = (
    ("rng", "GaussianStream.matrix"),
    ("cli", "save_matrix"),
    ("cli", "load_matrix"),
    ("heads", "build_context"),
    ("cli", "build_context"),
    ("attention", "project"),
    ("attention", "scaled_scores"),
    ("attention", "row_softmax"),
    ("attention", "attention_output"),
    ("dynamics", "reg_coeffs"),
    ("verify", "reg_coeffs"),
    ("dynamics", "regularized_energy"),
    ("verify", "regularized_energy"),
    ("energy", "alignment_scores"),
    ("heads", "descend"),
    ("dynamics", "frobenius_norm"),
    ("ea", "run_head"),
    ("cli", "run_head"),
    ("cli", "gradcheck"),
    ("cli", "stationarity_check"),
    ("cli", "main"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_run"),
    ("cli", "cmd_gradcheck"),
    ("cli", "cmd_stationarity"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_draws(counts, args, kwargs, result):
    counts["rng.draws"] += _arg(args, kwargs, 1, "rows") * _arg(args, kwargs, 2, "cols")


def _count_file_bytes(counts, args, kwargs, result):
    counts["matio.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_eval_kernel(counts, args, kwargs, result):
    # computed from array sizes: u(Z) and the gradient each stream A once
    # (2 reads of 8 n^2 bytes) and do n^2 d_v multiply-adds
    a, v = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 3, "v")
    n = a.shape[0]
    counts["energy.eval_bytes_computed"] += 16 * n * n
    counts["energy.eval_madds_computed"] += 2 * n * n * v.shape[1]


def _count_steps(counts, args, kwargs, result):
    counts["dynamics.steps"] += result[1].iters


_COUNT_HOOKS = {
    "rng.GaussianStream.matrix": _count_draws,
    "cli.save_matrix": _count_file_bytes,
    "cli.load_matrix": _count_file_bytes,
    "dynamics.regularized_energy": _count_eval_kernel,
    "verify.regularized_energy": _count_eval_kernel,
    "heads.descend": _count_steps,
}


class Tracer:
    """Records spans and counts while installed; restores every name on uninstall."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in WRAPPED]
        self.missing: set[str] = set()
        self.op = -1
        self.counts = defaultdict(int)
        self._name_id = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @staticmethod
    def _resolve(mod, attr):
        """(owner object, attribute name, current value) or None if missing."""
        try:
            owner = importlib.import_module(
                "energy_attention" if mod == "ea" else f"energy_attention.{mod}"
            )
        except ImportError:
            return None
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, last):
            return None
        return owner, last, getattr(owner, last)

    def install(self) -> None:
        for name_id, (mod, attr) in enumerate(WRAPPED):
            found = self._resolve(mod, attr)
            if found is None:
                self.missing.add(self.names[name_id])
                continue
            owner, last, original = found
            setattr(owner, last, self._wrap(name_id, original))
            self._restore.append((owner, last, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, last, original = self._restore.pop()
            setattr(owner, last, original)

    def _wrap(self, name_id, fn):
        hook = _COUNT_HOOKS.get(self.names[name_id])
        stack, counts = self._stack, self.counts
        names, starts, ends = self._name_id, self._start, self._end
        parents, ops = self._parent, self._op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def totals(self):
        """{span name: [calls, total seconds, self seconds]} over all spans."""
        child = [0.0] * len(self._start)
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, name_id in enumerate(self._name_id):
            dur = self._end[i] - self._start[i]
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def span_count(self) -> int:
        return len(self._start)


def _ratio(num, den):
    # a layer that made no calls in this workload reads 0, not NaN
    return num / den if den else 0.0


_RNG = ("rng.GaussianStream.matrix",)
_SAVE, _LOAD = ("cli.save_matrix",), ("cli.load_matrix",)
_CONTEXT = ("heads.build_context", "cli.build_context")
_EVAL = ("dynamics.regularized_energy", "verify.regularized_energy")
_DESCEND = ("heads.descend",)
_DYN_EVAL = ("dynamics.regularized_energy",)
_STEP = _DESCEND + _DYN_EVAL
_RUN_HEAD = ("ea.run_head", "cli.run_head")
_CLI = ("cli.main", "cli.cmd_gen", "cli.cmd_run", "cli.cmd_gradcheck", "cli.cmd_stationarity")


class _View:
    def __init__(self, totals, counts):
        self.t, self.c = totals, counts

    def calls(self, names):
        return sum(self.t[n][0] for n in names)

    def time(self, names):
        return sum(self.t[n][1] for n in names)

    def self_time(self, names):
        return sum(self.t[n][2] for n in names)


# (metric, unit, wrapped names it depends on, value from a _View)
LAYER_METRICS = (
    ("rng.matrix_s", "s", _RNG, lambda g: g.time(_RNG)),
    ("rng.draws", "count", _RNG, lambda g: g.c["rng.draws"]),
    ("rng.ns_per_draw", "ns", _RNG, lambda g: _ratio(g.time(_RNG) * 1e9, g.c["rng.draws"])),
    ("matio.save_s", "s", _SAVE, lambda g: g.time(_SAVE)),
    ("matio.load_s", "s", _LOAD, lambda g: g.time(_LOAD)),
    ("matio.bytes", "B", _SAVE + _LOAD, lambda g: g.c["matio.bytes"]),
    (
        "matio.mb_per_s",
        "MB/s",
        _SAVE + _LOAD,
        lambda g: _ratio(g.c["matio.bytes"] / 1e6, g.time(_SAVE + _LOAD)),
    ),
    ("attention.build_context_s", "s", _CONTEXT, lambda g: g.time(_CONTEXT)),
    ("attention.project_s", "s", ("attention.project",), lambda g: g.time(("attention.project",))),
    (
        "attention.scores_s",
        "s",
        ("attention.scaled_scores",),
        lambda g: g.time(("attention.scaled_scores",)),
    ),
    (
        "attention.softmax_s",
        "s",
        ("attention.row_softmax",),
        lambda g: g.time(("attention.row_softmax",)),
    ),
    (
        "attention.output_s",
        "s",
        ("attention.attention_output",),
        lambda g: g.time(("attention.attention_output",)),
    ),
    ("attention.contexts", "count", _CONTEXT, lambda g: g.calls(_CONTEXT)),
    (
        "energy.reg_coeffs_s",
        "s",
        ("dynamics.reg_coeffs", "verify.reg_coeffs"),
        lambda g: g.time(("dynamics.reg_coeffs", "verify.reg_coeffs")),
    ),
    ("energy.eval_s", "s", _EVAL, lambda g: g.time(_EVAL)),
    ("energy.evals", "count", _EVAL, lambda g: g.calls(_EVAL)),
    ("energy.eval_us", "us", _EVAL, lambda g: _ratio(g.time(_EVAL) * 1e6, g.calls(_EVAL))),
    (
        "energy.alignment_s",
        "s",
        ("energy.alignment_scores",),
        lambda g: g.time(("energy.alignment_scores",)),
    ),
    (
        "energy.eval_madds_computed",
        "count",
        _EVAL,
        lambda g: g.c["energy.eval_madds_computed"],
    ),
    ("energy.eval_bytes_computed", "B", _EVAL, lambda g: g.c["energy.eval_bytes_computed"]),
    (
        "energy.eval_gbps_computed",
        "GB/s",
        _EVAL,
        lambda g: _ratio(g.c["energy.eval_bytes_computed"] / 1e9, g.time(_EVAL)),
    ),
    ("dynamics.descend_s", "s", _DESCEND, lambda g: g.time(_DESCEND)),
    ("dynamics.self_s", "s", _DESCEND, lambda g: g.self_time(_DESCEND)),
    ("dynamics.steps", "count", _DESCEND, lambda g: g.c["dynamics.steps"]),
    (
        "dynamics.step_ms",
        "ms",
        _DESCEND,
        lambda g: _ratio(g.time(_DESCEND) * 1e3, g.c["dynamics.steps"]),
    ),
    (
        "dynamics.evals_per_step",
        "1",
        _STEP,
        lambda g: _ratio(g.calls(_DYN_EVAL), g.c["dynamics.steps"]),
    ),
    (
        # the first evaluation of each descent is the start point, not a trial
        "dynamics.accept_ratio",
        "1",
        _STEP,
        lambda g: _ratio(g.c["dynamics.steps"], g.calls(_DYN_EVAL) - g.calls(_DESCEND)),
    ),
    (
        "linalg.norm_s",
        "s",
        ("dynamics.frobenius_norm",),
        lambda g: g.time(("dynamics.frobenius_norm",)),
    ),
    (
        "linalg.norm_calls",
        "count",
        ("dynamics.frobenius_norm",),
        lambda g: g.calls(("dynamics.frobenius_norm",)),
    ),
    ("heads.run_head_s", "s", _RUN_HEAD, lambda g: g.time(_RUN_HEAD)),
    ("heads.self_s", "s", _RUN_HEAD, lambda g: g.self_time(_RUN_HEAD)),
    ("verify.gradcheck_s", "s", ("cli.gradcheck",), lambda g: g.time(("cli.gradcheck",))),
    (
        "verify.stationarity_s",
        "s",
        ("cli.stationarity_check",),
        lambda g: g.time(("cli.stationarity_check",)),
    ),
    (
        "verify.fd_evals",
        "count",
        ("verify.regularized_energy",),
        lambda g: g.calls(("verify.regularized_energy",)),
    ),
    ("cli.gen_s", "s", ("cli.cmd_gen",), lambda g: g.time(("cli.cmd_gen",))),
    ("cli.run_s", "s", ("cli.cmd_run",), lambda g: g.time(("cli.cmd_run",))),
    ("cli.gradcheck_s", "s", ("cli.cmd_gradcheck",), lambda g: g.time(("cli.cmd_gradcheck",))),
    (
        "cli.stationarity_s",
        "s",
        ("cli.cmd_stationarity",),
        lambda g: g.time(("cli.cmd_stationarity",)),
    ),
    ("cli.self_s", "s", _CLI, lambda g: g.self_time(_CLI)),
)

# totals are divided per pass over the pool; rates are already per unit
_PER_PASS_UNITS = ("s", "count", "B")


def layer_metrics(tracer: Tracer, passes: int):
    """Per-layer metrics per pass over the instance pool.

    Returns ({metric: (value, unit)}, [absent metric names]). Counts come
    out as whole numbers when every pass does the same work, which holds
    for a fixed seed because the program is deterministic.
    """
    view = _View(tracer.totals(), tracer.counts)
    present, absent = {}, []
    for name, unit, needs, fn in LAYER_METRICS:
        if tracer.missing.intersection(needs):
            absent.append(name)
            continue
        value = fn(view)
        present[name] = (value / passes if unit in _PER_PASS_UNITS else value, unit)
    return present, absent
