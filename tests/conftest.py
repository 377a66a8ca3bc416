"""Fixtures shared by the tests: pipeline fault injection, and the
environment for running the package in a subprocess from a checkout."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _drop_dff(nl, dff):
    """Remove one register, wiring its readers to its input."""
    d, q = dff.inputs[0], dff.outputs[0]
    nl.primitives.remove(dff)
    for prim in nl.primitives:
        prim.inputs = [d if s == q else s for s in prim.inputs]
    nl.output_p = [d if s == q else s for s in nl.output_p]


@pytest.fixture
def drop_dff():
    return _drop_dff


@pytest.fixture
def src_env():
    """os.environ with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
