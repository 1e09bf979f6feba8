"""Every scalar parameter of the package against its one rule.

A count is a non-bool int in range; a real is a finite non-bool real,
>= 0 or > 0. Each type checks its own parameters and names the parameter
in the error; ``RunConfig`` raises ``ConfigError``, the others ValueError.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from energy_attention import (
    QUADRATIC,
    DescentConfig,
    EnergyForm,
    GaussianStream,
    HeadSpec,
    fd_gradient,
    gradcheck,
    stationarity_check,
)
from energy_attention.cli import ConfigError, RunConfig
from energy_attention.matio import load_matrix

from helpers import random_attention

REJECTED = {
    "count": [True, False, "3", None, math.nan, math.inf, -math.inf, -1, 0, 2.5],
    "seed": [True, False, "3", None, math.nan, math.inf, -math.inf, -1, 2**64, 2.5],
    "real": [True, False, "0.5", None, math.nan, math.inf, -math.inf, -0.5],
    "positive": [True, False, "0.5", None, math.nan, math.inf, -math.inf, -0.5, 0, 0.0],
}
ACCEPTED = {
    "count": [1, 3],
    "seed": [0, 2**64 - 1],
    "real": [0, 0.0, 5e-324, 1.5, 1e308, np.float64(0.5), np.float32(0.5)],
    "positive": [5e-324, 1, 1.5, 1e308, np.float64(0.5), np.float32(0.5)],
}

_A = random_attention(np.random.default_rng(0), 3)
_V = np.random.default_rng(1).normal(size=(3, 2))


def _load(key, value):
    """load_matrix on a file whose ``key`` ("rows" or "cols") is value and the other 1."""
    size = value if type(value) is int and value > 0 else 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps({"name": "M", "rows": 1, "cols": 1, key: value, "data": [0.0] * size}))
        return load_matrix(path)


def _head(**kwargs):
    return HeadSpec(**{"d": 8, "d_k": 2, "d_v": 2, "form": QUADRATIC, **kwargs})


def _run(**kwargs):
    return RunConfig(**{"n": 4, "d": 8, "d_k": 2, "d_v": 2, "form": QUADRATIC, **kwargs})


# (owner, parameter as the error names it, rule, build(value), error type, extra accepted values)
PARAMETERS = [
    *[
        ("HeadSpec", name, "count", lambda x, name=name: _head(**{name: x}), ValueError, [])
        for name in ("d", "d_k", "d_v")
    ],
    ("HeadSpec", "perturb_sigma", "real", lambda x: _head(perturb_sigma=x), ValueError, []),
    ("HeadSpec", "perturb_seed", "seed", lambda x: _head(perturb_seed=x), ValueError, []),
    ("DescentConfig", "eta", "positive", lambda x: DescentConfig(eta=x), ValueError, []),
    ("DescentConfig", "max_iters", "count", lambda x: DescentConfig(max_iters=x), ValueError, []),
    ("DescentConfig", "grad_tol", "real", lambda x: DescentConfig(grad_tol=x), ValueError, []),
    ("DescentConfig", "clip_norm", "positive", lambda x: DescentConfig(clip_norm=x), ValueError, [None]),
    ("EnergyForm", "polynomial degree", "count", lambda x: EnergyForm("polynomial", x), ValueError, [1029]),
    *[
        ("RunConfig", name, "count", lambda x, name=name: _run(**{name: x}), ConfigError, [])
        for name in ("n", "d", "d_k", "d_v", "t_max", "heads")
    ],
    ("RunConfig", "seed", "seed", lambda x: _run(seed=x), ConfigError, []),
    ("RunConfig", "grad_tol", "real", lambda x: _run(grad_tol=x), ConfigError, []),
    ("RunConfig", "perturb_sigma", "real", lambda x: _run(perturb_sigma=x), ConfigError, []),
    ("RunConfig", "eta", "positive", lambda x: _run(eta=x), ConfigError, []),
    ("RunConfig", "clip_norm", "positive", lambda x: _run(clip_norm=x), ConfigError, [None]),
    ("GaussianStream", "seed", "seed", GaussianStream, ValueError, []),
    ("GaussianStream.matrix", "rows", "count", lambda x: GaussianStream(0).matrix(x, 2), ValueError, []),
    ("GaussianStream.matrix", "cols", "count", lambda x: GaussianStream(0).matrix(2, x), ValueError, []),
    ("load_matrix", "rows", "count", lambda x: _load("rows", x), ValueError, []),
    ("load_matrix", "cols", "count", lambda x: _load("cols", x), ValueError, []),
    (
        "fd_gradient",
        "finite-difference step",
        "positive",
        lambda x: fd_gradient(lambda zs: np.zeros(len(zs)), np.zeros((2, 2)), x),
        ValueError,
        [],
    ),
    ("gradcheck", "tol", "real", lambda x: gradcheck(QUADRATIC, _A, _V, _A @ _V, tol=x), ValueError, []),
    (
        "stationarity_check",
        "tol",
        "real",
        lambda x: stationarity_check(QUADRATIC, _A, _V, tol=x),
        ValueError,
        [],
    ),
]


@pytest.mark.parametrize(
    ("name", "rule", "build", "error", "extra"),
    [case[1:] for case in PARAMETERS],
    ids=[f"{owner}.{name}" for owner, name, *_ in PARAMETERS],
)
def test_every_parameter_keeps_its_one_rule(name, rule, build, error, extra):
    for value in REJECTED[rule]:
        if value is None and None in extra:
            continue
        with pytest.raises(error, match=f"{name} must be ") as raised:
            build(value)
        assert raised.type is error, (value, raised.value)
        assert repr(value) in str(raised.value)
    for value in ACCEPTED[rule] + extra:
        build(value)
