"""Pipeline fault injection shared by the netlist and CLI tests."""

import pytest


def _drop_dff(nl, dff):
    """Remove one register, wiring its readers to its input."""
    d, q = dff.inputs[0], dff.outputs[0]
    nl.primitives.remove(dff)
    for prim in nl.primitives:
        prim.inputs = [d if s.id == q.id else s for s in prim.inputs]
    nl.output_p = [d if s.id == q.id else s for s in nl.output_p]


@pytest.fixture
def drop_dff():
    return _drop_dff
