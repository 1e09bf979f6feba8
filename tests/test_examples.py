"""The user-facing examples run: the README's python blocks and the descent demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import energy_attention

ROOT = Path(__file__).resolve().parents[1]


def child_env():
    # the child imports the same package as this process, installed or not
    src = str(Path(energy_attention.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


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
    # the polynomial form runs at its default degree, which is even: an odd
    # p >= 3 has no lower bound, and at the default seed p = 3 runs away
    for args in (["--form", "exponential", "--sigma", "0.2", "--seed", "3"], ["--form", "polynomial"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "descent_demo.py"), *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "stopped (converged)" in proc.stdout
