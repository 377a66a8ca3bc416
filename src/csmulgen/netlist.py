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
from itertools import count
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


class NetlistError(Exception):
    """Structural problem that prevents an operation from running."""


class OutOfOrderError(NetlistError):
    """A primitive reads a signal whose driver comes later in the netlist."""


class UnbalancedPathError(NetlistError):
    """Paths to one output bit, or to different output bits, differ in register count."""


def _unknown_kind(idx, k):
    """The message for primitive idx, whose kind code k is outside KINDS."""
    return f"primitive {idx} has kind code {k}, not one of the {len(KINDS)} kinds"


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
    the mutating helpers below are for construction only.  In the
    package, the generator's builder (`mulgen._Builder`) is the one
    writer of `kinds`, `pins` and `signal_count`; a netlist built by
    hand, as the tests build theirs, uses the `add_primitive` helper of
    `tests/conftest.py`, which refuses an unknown kind or a wrong input
    count.  `validate` reports a kind code outside KINDS as
    `unknown-kind`; `primitives` raises NetlistError with its message.
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

    @property
    def primitives(self):
        """Read-only view: every primitive decoded from the stores, in
        stored order, as a tuple of `Primitive`s."""
        decoded = []
        it = iter(self.pins)
        for k, i0, i1, i2, o0, o1 in zip(self.kinds, it, it, it, it, it):
            if k >= len(KINDS):
                raise NetlistError(_unknown_kind(len(decoded), k))
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
    an unknown signal id or kind code.
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
    deterministic; the multiple-drivers check runs only when some
    signal has two drivers, and the unread and terminated checks visit
    only the unread and the terminated ids.  The checks index by signal
    id, so the first port bit, terminated id or pin holding an id
    outside 0 .. signal_count - 1 is the one finding.

    Like `sim._settle`, the walk dispatches on the kind code with the
    pins unrolled, and each primitive's used pins are range-checked at
    once; a kind code outside KINDS stops the walk as the one finding,
    `unknown-kind`, with the same message as the verdict.

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

    def unknown_pin(idx, k, pins):
        """The report for primitive idx of kind code k, one of whose used
        `pins` (its five slots) holds an id out of range."""
        n_in, n_out = _ARITY_OF[k]
        for kind, used in (("input", pins[:n_in]), ("output", pins[3:3 + n_out])):
            for pin, s in enumerate(used):
                if not 0 <= s < n:
                    return unknown(f"primitive {idx} ({KINDS[k]}) {kind} {pin}", s)

    def undriven(idx, *ins):
        early.extend((idx, pin, s) for pin, s in enumerate(ins) if not drivers[s])

    clock = [nl.clock] if nl.clock is not None else []
    for name, bits in (("input_a", nl.input_a), ("input_b", nl.input_b),
                       ("clock", clock), ("output", nl.output_p)):
        for j, s in enumerate(bits):
            if not 0 <= s < n:
                return unknown(f"{name} bit {j}", s)
    for s in sorted(nl.terminated):
        if not 0 <= s < n:
            return unknown("terminated id", s)
    port = bytearray(n)
    for sig in nl.input_a + nl.input_b + clock:
        port[sig] = 1
    drivers = list(port)  # a port bit is its own driver
    read = bytearray(n)
    kinds = nl.kinds
    dffs = kinds.count(_DFF)
    depth = [0] * n
    reg_min = [0] * n
    reg_max = [0] * n if dffs else reg_min  # all zero without registers
    stage = 0  # deepest DFF input so far
    early = []  # (primitive index, pin, signal) read before any driver
    # One branch per kind, its pins unrolled; the branches differ only
    # in arity and in the gate units they add (a full adder two, an AND
    # or a half adder one; a DFF or a constant restarts at 0).
    it = iter(nl.pins)
    for idx, k, i0, i1, i2, o0, o1 in zip(count(), kinds, it, it, it, it, it):
        if k == _FULL_ADDER:
            if not (0 <= i0 < n and 0 <= i1 < n and 0 <= i2 < n
                    and 0 <= o0 < n and 0 <= o1 < n):
                return unknown_pin(idx, k, (i0, i1, i2, o0, o1))
            read[i0] = read[i1] = read[i2] = 1
            if not (drivers[i0] and drivers[i1] and drivers[i2]):
                undriven(idx, i0, i1, i2)
            d = depth[i0]
            if depth[i1] > d:
                d = depth[i1]
            if depth[i2] > d:
                d = depth[i2]
            depth[o0] = depth[o1] = d + 2
            drivers[o0] += 1
            drivers[o1] += 1
            if dffs:
                reg_min[o0] = reg_min[o1] = min(reg_min[i0], reg_min[i1], reg_min[i2])
                reg_max[o0] = reg_max[o1] = max(reg_max[i0], reg_max[i1], reg_max[i2])
        elif k == _AND2 or k == _HALF_ADDER:
            two = k == _HALF_ADDER
            if not (0 <= i0 < n and 0 <= i1 < n and 0 <= o0 < n
                    and (not two or 0 <= o1 < n)):
                return unknown_pin(idx, k, (i0, i1, i2, o0, o1))
            read[i0] = read[i1] = 1
            if not (drivers[i0] and drivers[i1]):
                undriven(idx, i0, i1)
            d = depth[i0]
            if depth[i1] > d:
                d = depth[i1]
            depth[o0] = d + 1
            drivers[o0] += 1
            if two:
                depth[o1] = d + 1
                drivers[o1] += 1
            if dffs:
                lo, hi = min(reg_min[i0], reg_min[i1]), max(reg_max[i0], reg_max[i1])
                reg_min[o0], reg_max[o0] = lo, hi
                if two:
                    reg_min[o1], reg_max[o1] = lo, hi
        elif k == _DFF:
            if not (0 <= i0 < n and 0 <= o0 < n):
                return unknown_pin(idx, k, (i0, i1, i2, o0, o1))
            read[i0] = 1
            if not drivers[i0]:
                undriven(idx, i0)
            depth[o0] = 0
            drivers[o0] += 1
            # Taken once the output's depth is set: a DFF that reads its
            # own output adds depth 0.
            if depth[i0] > stage:
                stage = depth[i0]
            reg_min[o0] = reg_min[i0] + 1
            reg_max[o0] = reg_max[i0] + 1
        elif k == _CONST0:
            if not 0 <= o0 < n:
                return unknown_pin(idx, k, (i0, i1, i2, o0, o1))
            depth[o0] = reg_min[o0] = reg_max[o0] = 0
            drivers[o0] += 1
        else:
            msg = _unknown_kind(idx, k)
            err("unknown-kind", msg)
            rep.latency = NetlistError(msg)
            return rep
    for bit in nl.output_p:
        read[bit] = 1

    if max(drivers, default=0) > 1:
        for sig, total in enumerate(drivers):
            if total > 1:
                err("multiple-drivers", f"port bit s{sig} is driven by a primitive"
                    if port[sig] else f"signal s{sig} has {total} drivers")

    for idx, pin, s in early:
        if not drivers[s]:
            err("undriven-input",
                f"primitive {idx} ({KINDS[kinds[idx]]}) input {pin} (s{s}) has no driver")

    for j, bit in enumerate(nl.output_p):
        if not drivers[bit]:
            err("undriven-output", f"output bit {j} (s{bit}) has no driver")

    # Only an unread or a terminated id can hold a finding here.
    unread = []
    sig = read.find(0)
    while sig >= 0:
        unread.append(sig)
        sig = read.find(0, sig + 1)
    for sig in sorted({*unread, *nl.terminated}):
        if port[sig]:
            continue
        if sig in nl.terminated:
            if read[sig]:
                err("terminated-but-read",
                    f"signal s{sig} is declared terminated but has readers")
            continue
        if drivers[sig]:
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
    with the `out-of-order`, `unknown-signal` or `unknown-kind` message
    when the netlist is out of order or holds an unknown id or kind code.
    A signal no primitive drives reads as a source.
    """
    latency = report.latency
    if isinstance(latency, NetlistError):
        # A fresh error each time, so the stored one gathers no traceback.
        raise type(latency)(*latency.args)
    return latency
