"""Fixtures shared by the tests: a checked writer for hand-built
netlists, fault injection, a scalar per-cycle reference simulator, a
reference for per-signal levels, and the environment for running the
package in a subprocess from a checkout.

In the package only the generator writes a netlist's `kinds` and
`pins` stores; `add_primitive` here appends a primitive to a netlist a
test builds by hand.  The fault injectors write the stores directly,
the one way to change a primitive once it is stored.  A primitive is
named by its index and a pin by its slot in the stride: 0-2 are
inputs, 3-4 outputs.
"""

import os
from pathlib import Path

import pytest

from csmulgen.netlist import (
    AND2, ARITY, CODE, CONST0, DFF, FULL_ADDER, HALF_ADDER, STRIDE, UNUSED, NetlistError,
)

SRC = Path(__file__).resolve().parent.parent / "src"
OUT0 = 3  # slot of a primitive's first output


def _add_primitive(nl, kind, inputs):
    """Append a primitive to `nl`, allocating its output signals as the
    next consecutive ids; returns them.  The kind must be one of KINDS
    and the input count must match its arity: the stores cannot hold any
    other.  An input the pin store cannot hold (not an int, or out of
    its range) raises NetlistError and leaves the netlist as it was."""
    if kind not in ARITY:
        raise NetlistError(f"unknown primitive kind {kind!r}")
    n_in, n_out = ARITY[kind]
    if len(inputs) != n_in:
        raise NetlistError(f"{kind} expects {n_in} inputs, got {len(inputs)}")
    first = nl.signal_count
    outs = (first, first + 1) if n_out == 2 else (first, UNUSED)
    try:
        nl.pins.extend((*inputs, *(UNUSED,) * (3 - n_in), *outs))
    except (TypeError, OverflowError) as exc:
        del nl.pins[STRIDE * len(nl.kinds):]  # the stores stay in step
        raise NetlistError(f"{kind} inputs cannot be stored: {exc}") from None
    nl.kinds.append(CODE[kind])
    nl.signal_count = first + n_out
    return outs[:n_out]


@pytest.fixture
def add_primitive():
    return _add_primitive


def _set_pin(nl, idx, slot, sig):
    """Put signal `sig` on slot `slot` of primitive `idx`."""
    nl.pins[STRIDE * idx + slot] = sig


def _swap_outputs(nl, idx):
    """Cross the two outputs of the adder at index `idx`."""
    base = STRIDE * idx + OUT0
    nl.pins[base], nl.pins[base + 1] = nl.pins[base + 1], nl.pins[base]


def _reorder(nl, order):
    """Store the primitives in `order`, a permutation of their indices:
    the primitive at new position i is the one at old index order[i]."""
    kinds, pins = nl.kinds[:], nl.pins[:]
    for new, old in enumerate(order):
        nl.kinds[new] = kinds[old]
        nl.pins[STRIDE * new:STRIDE * (new + 1)] = pins[STRIDE * old:STRIDE * (old + 1)]


def _rewire(nl, old, new, skip=None):
    """Every input pin (but those of primitive `skip`) and output bit
    that reads signal `old` reads `new` instead."""
    for i, s in enumerate(nl.pins):
        if s == old and i % STRIDE < OUT0 and i // STRIDE != skip:
            nl.pins[i] = new
    nl.output_p = [new if s == old else s for s in nl.output_p]


def _drop_dff(nl, idx):
    """Remove the register at index `idx`, wiring its readers to its input."""
    base = STRIDE * idx
    d, q = nl.pins[base], nl.pins[base + OUT0]
    del nl.kinds[idx]
    del nl.pins[base:base + STRIDE]
    _rewire(nl, q, d)


def _double_dff(nl, idx):
    """Put a second register in series right after the one at index
    `idx`, reading its output and feeding all its readers."""
    q_old = nl.pins[STRIDE * idx + OUT0]
    (q,) = _add_primitive(nl, DFF, [q_old])
    last = len(nl.kinds) - 1
    _rewire(nl, q_old, q, skip=last)
    _reorder(nl, [*range(idx + 1), last, *range(idx + 1, last)])


@pytest.fixture
def set_pin():
    return _set_pin


@pytest.fixture
def swap_outputs():
    return _swap_outputs


@pytest.fixture
def reorder():
    return _reorder


@pytest.fixture
def drop_dff():
    return _drop_dff


@pytest.fixture
def double_dff():
    return _double_dff


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


_WEIGHT = {AND2: 1, HALF_ADDER: 1, FULL_ADDER: 2}  # gate units; DFF, CONST0 reset


def _signal_levels(nl):
    """(depth, reg_min, reg_max), each a list indexed by signal id:
    combinational depth in gate units, and the fewest and most
    registers on any source-to-signal path.  A signal no primitive
    drives is a source, at 0 on all three.

    An oracle for `validate`'s levels that shares none of its code: it
    reads `nl.primitives` and resolves each signal after its driver's
    inputs with an explicit stack, so stored order does not matter.
    `nl` must hold no loop.
    """
    driver = {out: prim for prim in nl.primitives for out in prim.outputs}
    levels = {}  # signal -> (depth, reg_min, reg_max)
    for start in driver:
        stack = [start]
        while stack:
            prim = driver[stack[-1]]
            pending = [s for s in prim.inputs if s in driver and s not in levels]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            ins = [levels.get(s, (0, 0, 0)) for s in prim.inputs]
            lo = min((r for _, r, _ in ins), default=0)
            hi = max((r for _, _, r in ins), default=0)
            if prim.kind == DFF:
                level = (0, lo + 1, hi + 1)
            elif prim.kind == CONST0:
                level = (0, 0, 0)
            else:
                level = (max(d for d, _, _ in ins) + _WEIGHT[prim.kind], lo, hi)
            for out in prim.outputs:
                levels[out] = level
    rows = [levels.get(s, (0, 0, 0)) for s in range(nl.signal_count)]
    return tuple(list(col) for col in zip(*rows)) if rows else ([], [], [])


@pytest.fixture
def signal_levels():
    return _signal_levels


@pytest.fixture
def src_env():
    """os.environ with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
