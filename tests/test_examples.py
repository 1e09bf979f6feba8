"""The user-facing examples run: the README's python blocks and the scripts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import energy_attention

ROOT = Path(__file__).resolve().parents[1]


def child_env():
    # the child imports the same package as this process, installed or not,
    # and like pytest here (pyproject.toml) turns every warning into an error
    src = str(Path(energy_attention.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {"PYTHONPATH": os.pathsep.join(p for p in paths if p), "PYTHONWARNINGS": "error"}
    return {**os.environ, **env}


def test_readme_python_blocks_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["stacked"].shape == (6, 4)
    assert np.array_equal(namespace["heads"][0].z, namespace["out"].z)
    assert "True" in capsys.readouterr().out


def test_descent_demo_runs():
    # the polynomial form converges at its default degree, which is even: an
    # odd p >= 3 has no lower bound, and at seed 3 p = 3 runs away for its
    # whole budget
    for args, stop in (
        (["--form", "exponential", "--sigma", "0.2", "--seed", "3"], "converged"),
        (["--form", "polynomial"], "converged"),
        (["--form", "polynomial", "--p", "3", "--seed", "3"], "max_iters"),
        (["--form", "linear"], "converged"),
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "descent_demo.py"), *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert f"stopped ({stop})" in proc.stdout


def run_cost_scaling(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cost_scaling.py"), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_cost_scaling_fits_two_sizes():
    # the exponent itself is noise at these sizes; only the fit is checked
    proc = run_cost_scaling("--sizes", "128,256", "--iters", "50,250", "--repeats", "3")
    assert proc.returncode == 0, proc.stderr
    assert "fitted exponent:" in proc.stdout


def test_cost_scaling_refuses_budgets_on_both_sides_of_the_threshold():
    # at n = 256, d_v = 4 the first budget that forms B is 19 steps
    # (19 * 14 >= 256 > 18 * 14): 5 steps never form B and 25 do
    proc = run_cost_scaling("--sizes", "256", "--iters", "5,25")
    assert proc.returncode == 2
    assert "both below or both at least 19, the first budget that forms B" in proc.stderr


def test_cost_scaling_refuses_a_fit_from_one_size():
    proc = run_cost_scaling("--sizes", "256")
    assert proc.returncode == 2
    assert "fitted exponent" not in proc.stdout
