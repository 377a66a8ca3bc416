"""Gate-level netlist intermediate representation.

Flat single-bit signals and five primitive kinds (two-input AND, half
adder, full adder, D flip-flop, constant-zero driver).  A signal is its
int id, below `Netlist.signal_count`.  Primitives are stored flat, a
kind code and five pin slots each, in dependency order: each comes
after the drivers of its inputs.  `validate` is the one walk over a
netlist's pins: it runs every structural check, that order included,
and decides register balance, the pipeline latency and the worst stage
depth on the way.  Its `ValidationReport` is what every later stage
takes: each reads the netlist from it, and `compute_latency` the verdict.
Every other module either builds one of these netlists or consumes one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

# Primitive kinds.
AND2 = "and2"
HALF_ADDER = "ha"
FULL_ADDER = "fa"
DFF = "dff"
CONST0 = "const0"

# A primitive's kind code, its entry in `Netlist.kinds`, is the kind's
# index here.
KINDS = (AND2, HALF_ADDER, FULL_ADDER, DFF, CONST0)
CODE = {kind: code for code, kind in enumerate(KINDS)}
# The codes by name, for the loops that dispatch on them.
_AND2, _HALF_ADDER, _FULL_ADDER, _DFF, _CONST0 = (
    CODE[kind] for kind in (AND2, HALF_ADDER, FULL_ADDER, DFF, CONST0))

# kind -> (input arity, output arity)
ARITY = {
    AND2: (2, 1),
    HALF_ADDER: (2, 2),
    FULL_ADDER: (3, 2),
    DFF: (1, 1),
    CONST0: (0, 1),
}
_ARITY_OF = [ARITY[kind] for kind in KINDS]  # kind code -> (inputs, outputs)

# Pin slots per primitive in `Netlist.pins`: three inputs, then two
# outputs.  A kind uses the first of each as its arity says; the rest
# hold UNUSED.
STRIDE = 5
UNUSED = -1
# kind -> (code, input arity, output arity, the unused input slots)
_LAYOUT = {kind: (CODE[kind], n_in, n_out, (UNUSED,) * (3 - n_in))
           for kind, (n_in, n_out) in ARITY.items()}

# Gate-unit weight of each combinational primitive: a full adder is two
# gate levels deep, everything else is one.
DEPTH_WEIGHT = {AND2: 1, HALF_ADDER: 1, FULL_ADDER: 2}


class NetlistError(Exception):
    """Structural problem that prevents an operation from running."""


class OutOfOrderError(NetlistError):
    """A primitive reads a signal whose driver comes later in the netlist."""


class UnbalancedPathError(NetlistError):
    """Paths to one output bit, or to different output bits, differ in register count."""


class Primitive(NamedTuple):
    """One gate instance as `Netlist.primitives` decodes it; inputs and
    outputs are tuples of signal ids."""

    kind: str
    inputs: tuple
    outputs: tuple


@dataclass(slots=True)
class Netlist:
    """A circuit: ports, signals, primitives, optional clock.

    Signals are the ids 0 .. signal_count - 1; ports, the clock and
    primitive pins hold signal ids.  Primitive i is `kinds[i]`, a code
    into KINDS, with its pins in `pins[STRIDE*i : STRIDE*(i+1)]`; walk
    both with `it = iter(pins)` and `zip(kinds, it, it, it, it, it)`.
    Every primitive comes after the primitives that drive its inputs, so
    one walk in stored order evaluates the circuit; `validate` reports a
    netlist that breaks this as `out-of-order`, and `compute_latency`
    raises OutOfOrderError.

    Netlists are treated as immutable once a generator returns them;
    the mutating helpers below are for construction only, and only
    `add_primitive` appends to the stores.
    """

    width_a: int
    width_b: int
    input_a: list = field(default_factory=list)
    input_b: list = field(default_factory=list)
    output_p: list = field(default_factory=list)
    clock: int | None = None
    kinds: bytearray = field(default_factory=bytearray)
    pins: array = field(default_factory=lambda: array("i"))
    pipelined: bool = False
    signal_count: int = 0
    # Signal ids declared intentionally unconnected (the IR analogue of
    # mapping an unused output to `open`); excluded from unread checks.
    terminated: set = field(default_factory=set)

    @classmethod
    def create(cls, width_a, width_b):
        """New netlist with input port bits allocated, nothing else."""
        nl = cls(width_a=width_a, width_b=width_b)
        nl.input_a = [nl.new_signal() for _ in range(width_a)]
        nl.input_b = [nl.new_signal() for _ in range(width_b)]
        return nl

    def new_signal(self):
        self.signal_count += 1
        return self.signal_count - 1

    def add_clock(self):
        if self.clock is None:
            self.clock = self.new_signal()
        return self.clock

    def add_primitive(self, kind, inputs):
        """Append a primitive, allocating its output signals as the next
        consecutive ids; returns them.  The kind must be one of KINDS and
        the input count must match its arity: the stores cannot hold any
        other.  An input the pin store cannot hold (not an int, or out of
        its range) raises NetlistError and leaves the netlist as it was."""
        try:
            code, n_in, n_out, gap = _LAYOUT[kind]
        except KeyError:
            raise NetlistError(f"unknown primitive kind {kind!r}") from None
        if len(inputs) != n_in:
            raise NetlistError(f"{kind} expects {n_in} inputs, got {len(inputs)}")
        first = self.signal_count
        outs = (first, first + 1) if n_out == 2 else (first, UNUSED)
        try:
            self.pins.extend((*inputs, *gap, *outs))
        except (TypeError, OverflowError) as exc:
            del self.pins[STRIDE * len(self.kinds):]  # the stores stay in step
            raise NetlistError(f"{kind} inputs cannot be stored: {exc}") from None
        self.kinds.append(code)
        self.signal_count = first + n_out
        return outs[:n_out]

    @property
    def primitives(self):
        """Read-only view: every primitive decoded from the stores, in
        stored order, as a tuple of `Primitive`s."""
        decoded = []
        it = iter(self.pins)
        for k, i0, i1, i2, o0, o1 in zip(self.kinds, it, it, it, it, it):
            n_in, n_out = _ARITY_OF[k]
            decoded.append(Primitive(KINDS[k], (i0, i1, i2)[:n_in], (o0, o1)[:n_out]))
        return tuple(decoded)


@dataclass(frozen=True, slots=True)
class Finding:
    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class LatencyInfo:
    pipelined: bool
    cycles: int | None = None
    gate_units: int | None = None


@dataclass(slots=True)
class ValidationReport:
    """Findings of `validate`, and what the later stages read of its walk.

    netlist: the netlist validated.  Every later stage takes the report
    and reads the netlist from here, so none walks it again.
    latency: the verdict `compute_latency` returns: a LatencyInfo, or
    the NetlistError it raises instead.
    stage_depth: largest combinational depth, in gate units, at any DFF
    input or output bit; None when the netlist is out of order or holds
    an unknown signal id.
    """

    netlist: Netlist = field(repr=False, compare=False)
    findings: list = field(default_factory=list)
    latency: LatencyInfo | NetlistError | None = None
    stage_depth: int | None = None

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    def is_valid(self):
        return not self.errors


def validate(nl: Netlist) -> ValidationReport:
    """Run every structural check; all problems become report entries,
    and the report carries the latency verdict and the stage depth.

    This is the one walk over the pins of `nl.kinds`/`nl.pins`.  In
    stored order it counts the drivers of each signal (a port bit is
    its own driver), marks reads, levels every signal and records every
    read of a signal that has no driver yet.  Such a read is
    `undriven-input` when nothing ever drives the signal, and
    `out-of-order` when a later primitive does; a loop, through
    registers or not, always has one of the second kind.  The later
    checks read only these lists, in a fixed sequence and each in
    primitive, pin or signal id order, so finding order is
    deterministic.  The checks index by signal id, so the first port bit
    or pin holding an id outside 0 .. signal_count - 1 is the one finding.

    A signal's levels are its combinational depth in gate units (input
    bits, constants and DFF outputs sit at 0; AND gates and half adders
    add one unit, full adders two) and the fewest and most registers on
    any source-to-signal path; they live only for the walk.  One rule
    decides register balance from them: every output bit sees one
    register count on all its paths, and all of them the same one.
    """
    rep = ValidationReport(netlist=nl)
    err = lambda code, msg: rep.findings.append(Finding("error", code, msg))
    warn = lambda code, msg: rep.findings.append(Finding("warning", code, msg))

    n = nl.signal_count

    def unknown(place, s):
        msg = f"{place} (s{s}) is not one of the {n} signals"
        err("unknown-signal", msg)
        rep.latency = NetlistError(msg)
        return rep

    clock = [nl.clock] if nl.clock is not None else []
    for name, bits in (("input_a", nl.input_a), ("input_b", nl.input_b),
                       ("clock", clock), ("output", nl.output_p)):
        for j, s in enumerate(bits):
            if not 0 <= s < n:
                return unknown(f"{name} bit {j}", s)
    port = bytearray(n)
    for sig in nl.input_a + nl.input_b + clock:
        port[sig] = 1
    drivers = list(port)  # a port bit is its own driver
    read = bytearray(n)
    kinds, dff = nl.kinds, _DFF
    dffs = kinds.count(dff)
    depth = [0] * n
    reg_min = [0] * n
    reg_max = [0] * n if dffs else reg_min  # all zero without registers
    stage = 0  # deepest DFF input so far
    early = []  # (primitive index, pin, signal) read before any driver
    weight = [DEPTH_WEIGHT.get(kind, 0) for kind in KINDS]
    it = iter(nl.pins)
    for idx, (k, i0, i1, i2, o0, o1) in enumerate(zip(kinds, it, it, it, it, it)):
        n_in, n_out = _ARITY_OF[k]
        ins = (i0, i1, i2)[:n_in]
        d = 0
        for pin, s in enumerate(ins):
            if not 0 <= s < n:
                return unknown(f"primitive {idx} ({KINDS[k]}) input {pin}", s)
            read[s] = 1
            if not drivers[s]:
                early.append((idx, pin, s))
            if depth[s] > d:
                d = depth[s]
        w = weight[k]
        d = d + w if w else 0
        if not 0 <= o0 < n or n_out == 2 and not 0 <= o1 < n:
            pin, out = (0, o0) if not 0 <= o0 < n else (1, o1)
            return unknown(f"primitive {idx} ({KINDS[k]}) output {pin}", out)
        depth[o0] = d
        drivers[o0] += 1
        if n_out == 2:
            depth[o1] = d
            drivers[o1] += 1
        if not dffs:
            continue
        lo, hi = (reg_min[i0], reg_max[i0]) if ins else (0, 0)
        for s in ins:
            if reg_min[s] < lo:
                lo = reg_min[s]
            if reg_max[s] > hi:
                hi = reg_max[s]
        if k == dff:
            lo += 1
            hi += 1
            if depth[i0] > stage:
                stage = depth[i0]
        reg_min[o0] = lo
        reg_max[o0] = hi
        if n_out == 2:
            reg_min[o1] = lo
            reg_max[o1] = hi
    for bit in nl.output_p:
        read[bit] = 1

    for sig, count in enumerate(drivers):
        if count > 1:
            err("multiple-drivers", f"port bit s{sig} is driven by a primitive" if port[sig]
                else f"signal s{sig} has {count} drivers")

    for idx, pin, s in early:
        if not drivers[s]:
            err("undriven-input",
                f"primitive {idx} ({KINDS[kinds[idx]]}) input {pin} (s{s}) has no driver")

    for j, bit in enumerate(nl.output_p):
        if not drivers[bit]:
            err("undriven-output", f"output bit {j} (s{bit}) has no driver")

    for sig in range(n):
        if port[sig]:
            continue
        if sig in nl.terminated:
            if read[sig]:
                err("terminated-but-read",
                    f"signal s{sig} is declared terminated but has readers")
            continue
        if not read[sig] and drivers[sig]:
            warn("unread-signal", f"internal signal s{sig} drives nothing")

    late = next(((idx, pin, s) for idx, pin, s in early if drivers[s]), None)
    if late:
        idx, pin, s = late
        msg = (f"primitive {idx} ({KINDS[kinds[idx]]}) input {pin} (s{s}) "
               "is read before its driver")
        err("out-of-order", msg)
        rep.latency = OutOfOrderError(msg)
    else:
        mixed, depths = [], set()
        for j, bit in enumerate(nl.output_p):
            lo, hi = reg_min[bit], reg_max[bit]
            if lo != hi:
                mixed.append(f"output bit {j} (s{bit}) mixes paths "
                             f"with {lo} and {hi} registers")
            elif drivers[bit]:
                depths.add(lo)
        disagree = lambda ds: f"output bits disagree on register depth: {sorted(ds)}"
        for msg in mixed:
            err("unbalanced-registers", msg)
        if len(depths) > 1:
            err("unbalanced-registers", disagree(depths))
        # The verdict counts an undriven output bit too, at 0 registers.
        depths = {reg_min[bit] for bit in nl.output_p}
        cycles = min(depths, default=0)
        worst = max((depth[bit] for bit in nl.output_p), default=0)
        rep.stage_depth = max(stage, worst)
        if not nl.output_p:
            rep.latency = NetlistError(f"the netlist has none of its "
                                       f"{nl.width_a + nl.width_b} output bits")
        elif mixed or len(depths) > 1:
            rep.latency = UnbalancedPathError(mixed[0] if mixed else disagree(depths))
        elif cycles and not nl.pipelined:
            rep.latency = UnbalancedPathError(
                f"combinational output bits carry {cycles} registers")
        else:
            rep.latency = (LatencyInfo(pipelined=True, cycles=cycles) if nl.pipelined
                           else LatencyInfo(pipelined=False, gate_units=worst))

    if nl.pipelined != (dffs > 0) or nl.pipelined != (nl.clock is not None):
        err("clock-consistency",
            f"pipelined={nl.pipelined} but dffs={dffs}, "
            f"clock={'present' if nl.clock is not None else 'absent'}")

    if len(nl.output_p) != nl.width_a + nl.width_b:
        err("output-width",
            f"output has {len(nl.output_p)} bits, expected {nl.width_a + nl.width_b}")

    return rep


def compute_latency(report: ValidationReport) -> LatencyInfo:
    """The latency verdict `validate` stored on its report.

    Pipelined: common register depth of the output bits.
    Combinational: worst levelized depth over the output bits.
    Raises UnbalancedPathError, with the first `unbalanced-registers`
    message of `validate`, when the output bits do not share one
    register depth, pipelined or not, and when a netlist marked
    combinational has registers on its output paths; NetlistError when
    the netlist has no output bits; and OutOfOrderError or NetlistError
    with the `out-of-order` or `unknown-signal` message when the netlist
    is out of order or holds an unknown id.  A signal no primitive drives
    reads as a source.
    """
    latency = report.latency
    if isinstance(latency, NetlistError):
        # A fresh error each time, so the stored one gathers no traceback.
        raise type(latency)(*latency.args)
    return latency
