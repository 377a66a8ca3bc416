"""Gate-level netlist intermediate representation.

Flat single-bit signals and five primitive kinds (two-input AND, half
adder, full adder, D flip-flop, constant-zero driver).  A signal is its
int id, below `Netlist.signal_count`.  Primitives are stored flat, a
kind code and five pin slots each, in dependency order: each comes
after the drivers of its inputs.  `validate` is the one walk over a
netlist's pins: it runs every structural check, that order included,
and computes the analysis on the way; `analyze` is its out-of-order
gate for callers that want only the analysis.  The pipeline latency
and register balance decided from the analysis live here too.  Every
other module either builds one of these netlists or consumes one.
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
    netlist that breaks this as `out-of-order`, and `analyze` raises
    OutOfOrderError.

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
        consecutive ids; returns them.  The input count must match the
        kind's arity: the stores cannot hold any other."""
        code, n_in, n_out, gap = _LAYOUT[kind]
        if len(inputs) != n_in:
            raise NetlistError(f"{kind} expects {n_in} inputs, got {len(inputs)}")
        first = self.signal_count
        self.signal_count = first + n_out
        self.kinds.append(code)
        outs = (first, first + 1) if n_out == 2 else (first, UNUSED)
        self.pins.extend((*inputs, *gap, *outs))
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


@dataclass(slots=True)
class ValidationReport:
    """Findings of `validate`, plus the analysis it computed on the way.

    analysis is None when the netlist is out of order or has an unknown id.
    Callers pass it on to later stages so that they need not analyse
    the same netlist again.
    """

    findings: list = field(default_factory=list)
    analysis: Analysis | None = field(default=None, repr=False, compare=False)

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    def is_valid(self):
        return not self.errors


def validate(nl: Netlist) -> ValidationReport:
    """Run every structural check; all problems become report entries,
    and the report carries the netlist's analysis.

    This is the one walk over the pins of `nl.kinds`/`nl.pins`.  In
    stored order it counts the drivers of each signal (a port bit is
    its own driver), marks reads, computes the `Analysis` lists
    and records every read of a signal that has no driver yet.  Such a
    read is `undriven-input` when nothing ever drives the signal, and
    `out-of-order` when a later primitive does; a loop, through
    registers or not, always has one of the second kind.  The later
    checks read only these lists, in a fixed sequence and each in
    primitive, pin or signal id order, so finding order is
    deterministic.  The checks index by signal id, so the first port bit
    or pin holding an id outside 0 .. signal_count - 1 is the one finding.
    """
    rep = ValidationReport()
    err = lambda code, msg: rep.findings.append(Finding("error", code, msg))
    warn = lambda code, msg: rep.findings.append(Finding("warning", code, msg))

    n = nl.signal_count
    unknown = lambda place, s: ValidationReport([Finding(
        "error", "unknown-signal", f"{place} (s{s}) is not one of the {n} signals")])
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
    kinds, dff = nl.kinds, CODE[DFF]
    dffs = kinds.count(dff)
    depth = [0] * n
    reg_min = [0] * n
    reg_max = [0] * n if dffs else reg_min  # all zero without registers
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
        err("out-of-order", f"primitive {idx} ({KINDS[kinds[idx]]}) input {pin} "
                            f"(s{s}) is read before its driver")
    else:
        rep.analysis = Analysis(depth=depth, reg_min=reg_min, reg_max=reg_max, netlist=nl)
        for msg in _unbalanced_registers(
                rep.analysis, [(j, bit) for j, bit in enumerate(nl.output_p) if drivers[bit]]):
            err("unbalanced-registers", msg)

    if nl.pipelined != (dffs > 0) or nl.pipelined != (nl.clock is not None):
        err("clock-consistency",
            f"pipelined={nl.pipelined} but dffs={dffs}, "
            f"clock={'present' if nl.clock is not None else 'absent'}")

    if len(nl.output_p) != nl.width_a + nl.width_b:
        err("output-width",
            f"output has {len(nl.output_p)} bits, expected {nl.width_a + nl.width_b}")

    return rep


def _unbalanced_registers(an, bits):
    """Breaches of the rule that every output bit sees one register count
    on all its paths, and all of them the same one, as messages.

    bits: (output bit index, signal id) pairs, as from `enumerate(nl.output_p)`.
    """
    messages, depths = [], set()
    for j, bit in bits:
        lo, hi = an.reg_min[bit], an.reg_max[bit]
        if lo != hi:
            messages.append(f"output bit {j} (s{bit}) mixes paths with {lo} and {hi} registers")
        else:
            depths.add(lo)
    if len(depths) > 1:
        messages.append(f"output bits disagree on register depth: {sorted(depths)}")
    return messages


@dataclass(frozen=True, slots=True)
class Analysis:
    """What `validate`'s one walk over a netlist tells every consumer.

    depth: signal id -> combinational depth in gate units.  Input bits,
    constants and DFF outputs sit at 0; AND gates and half adders add
    one unit, full adders two.
    reg_min, reg_max: signal id -> fewest and most registers on any
    source-to-signal path.  They differ where paths are unbalanced.
    netlist: the netlist analysed; `analysis_for` checks it.
    """

    depth: list
    reg_min: list
    reg_max: list
    netlist: Netlist = field(repr=False, compare=False)


def analyze(nl: Netlist) -> Analysis:
    """The analysis `validate` computes: `validate(nl).analysis`.

    This is `validate`'s out-of-order gate: with no analysis it raises
    OutOfOrderError with the `out-of-order` message, or NetlistError
    with the `unknown-signal` one.  Other findings do not stop it; a
    signal no primitive drives reads as a source.
    """
    rep = validate(nl)
    if rep.analysis is None:
        first = next(f for f in rep.errors if f.code in ("out-of-order", "unknown-signal"))
        raise (OutOfOrderError if first.code == "out-of-order" else NetlistError)(first.message)
    return rep.analysis


def analysis_for(nl: Netlist, analysis: Analysis | None = None) -> Analysis:
    """The analysis every stage works from: `analysis` when one is passed
    in (as from `ValidationReport.analysis`), else a fresh `analyze(nl)`.

    Raises NetlistError when `analysis` was computed from another
    netlist, so no stage evaluates the wrong graph.
    """
    if analysis is None:
        return analyze(nl)
    if analysis.netlist is not nl:
        raise NetlistError("the analysis passed in was computed from a different netlist")
    return analysis


def max_stage_depth(nl: Netlist, *, analysis: Analysis | None = None):
    """Largest combinational depth reaching any DFF input or output bit.
    `analysis`, when given, is used instead of analysing `nl` again."""
    an = analysis_for(nl, analysis)
    dff = CODE[DFF]
    ends = [d for k, d in zip(nl.kinds, nl.pins[::STRIDE]) if k == dff] + nl.output_p
    return max((an.depth[sig] for sig in ends), default=0)


@dataclass(frozen=True, slots=True)
class LatencyInfo:
    pipelined: bool
    cycles: int | None = None
    gate_units: int | None = None


def compute_latency(nl: Netlist, *, analysis: Analysis | None = None) -> LatencyInfo:
    """Pipelined: common register depth of the output bits.
    Combinational: worst levelized depth over the output bits.
    Raises UnbalancedPathError, with the first `unbalanced-registers`
    message of `validate`, when the output bits do not share one
    register depth, pipelined or not, and when a netlist marked
    combinational has registers on its output paths.
    `analysis`, when given, is used instead of analysing `nl` again."""
    an = analysis_for(nl, analysis)
    if not nl.output_p:
        raise NetlistError(f"the netlist has none of its {nl.width_a + nl.width_b} "
                           "output bits")
    unbalanced = _unbalanced_registers(an, enumerate(nl.output_p))
    cycles = an.reg_min[nl.output_p[0]]
    if cycles and not nl.pipelined:
        unbalanced.append(f"combinational output bits carry {cycles} registers")
    if unbalanced:
        raise UnbalancedPathError(unbalanced[0])
    if nl.pipelined:
        return LatencyInfo(pipelined=True, cycles=cycles)
    worst = max(an.depth[bit] for bit in nl.output_p)
    return LatencyInfo(pipelined=False, gate_units=worst)
