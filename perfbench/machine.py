"""Machine notes attached to every result. Everything here only reads."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

LIMITS = (
    "Only this process's own clocks and getrusage counters are read. Nothing "
    "machine-wide is traced, pinned or cleared: the file cache is not dropped, "
    "CPU frequency and other tenants' load are not controlled, and no hardware "
    "cache-miss counters are read, so bytes marked 'computed' come from array sizes."
)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        info = {}
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it can be asked."""
    libs = _read(Path("/proc/self/maps"))
    if not libs:
        return None
    paths = {line.split()[-1] for line in libs.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def notes(seed: int, version: str) -> dict:
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "benchmark_version": version,
        "seed": seed,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "load": "closed loop, 1 client, 1 process; no threads beyond the BLAS pool",
        "limits": LIMITS,
    }
