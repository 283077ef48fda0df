"""Smoke test: every narrative demo runs to completion, warning-free, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilogic

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    src = str(Path(quasilogic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # -W error, as pytest's filterwarnings = error in pyproject.toml: a demo's warning fails it
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout
