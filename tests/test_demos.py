"""The demos and the README's quickstart are the tour of the public API;
each must run."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_a_python_block():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, src_env):
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
