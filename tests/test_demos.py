"""The demos are the README's tour of the public API; each must run."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
