"""Fixtures shared by the tests: pipeline fault injection, a scalar
per-cycle reference simulator, and the environment for running the
package in a subprocess from a checkout."""

import os
from pathlib import Path

import pytest

from csmulgen.netlist import AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER

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


_GATES = {
    AND2: lambda a, b: (a & b,),
    HALF_ADDER: lambda a, b: (a ^ b, a & b),
    FULL_ADDER: lambda a, b, c: (a ^ b ^ c, (a & b) | (a & c) | (b & c)),
    CONST0: lambda: (0,),
}


def _reference_outputs(nl, feed, cycles):
    """Product word in each of `cycles` clock cycles from reset, with
    feed[t] on the operand ports in cycle t and zeros after the feed.

    An oracle for the streamed simulator that shares none of its code:
    one bit per signal and one cycle at a time.  A combinational output
    is computed on demand from its driver, so list order does not matter.
    The registers are a dict, updated in two phases at each clock edge:
    every register samples its input, then all of them change at once.
    """
    driver = {out: prim for prim in nl.primitives for out in prim.outputs}
    regs = {prim.outputs[0]: 0 for prim in nl.primitives if prim.kind == DFF}
    words = []
    for t in range(cycles):
        a, b = feed[t] if t < len(feed) else (0, 0)
        level = dict(regs)
        level.update({sig: (a >> i) & 1 for i, sig in enumerate(nl.input_a)})
        level.update({sig: (b >> i) & 1 for i, sig in enumerate(nl.input_b)})

        def value(sig):
            if sig not in level:
                prim = driver[sig]
                bits = _GATES[prim.kind](*map(value, prim.inputs))
                level.update(zip(prim.outputs, bits))
            return level[sig]

        words.append(sum(value(bit) << j for j, bit in enumerate(nl.output_p)))
        regs = {q: value(driver[q].inputs[0]) for q in regs}
    return words


@pytest.fixture
def reference_outputs():
    return _reference_outputs


@pytest.fixture
def src_env():
    """os.environ with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
