"""Gate-level netlist evaluation and product verification.

Values are plain Python integers used as lane vectors: bit t of a
signal's value is that signal's logic level in clock cycle t, and a
register's output is its input one lane up.  So one pass over the
primitives, which a netlist keeps in dependency order, simulates every
cycle, with a new input pair in each.  AND/XOR/majority on big
integers make exhaustive sweeps cheap without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from .netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER,
    Analysis, Netlist, analyze, compute_latency,
)

EXHAUSTIVE_GUARD_BITS = 24


class SimError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class OperandValue:
    """Unsigned operand of a fixed bit width; LSB is bit index 0."""

    value: int
    width: int

    def __post_init__(self):
        if self.value < 0 or self.value >> self.width:
            raise ValueError(f"{self.value} does not fit in {self.width} bits")

    @property
    def bits(self):
        return [(self.value >> i) & 1 for i in range(self.width)]

    def bitstring(self):
        """MSB-first rendering, zero-extended to the full width."""
        return format(self.value, f"0{self.width}b")


@dataclass(slots=True)
class SimState:
    """Settled signal values after some number of clock edges."""

    values: list  # signal id -> lane vector

    def output_value(self, nl: Netlist):
        return sum((self.values[b] & 1) << j for j, b in enumerate(nl.output_p))


def _settle(nl, values, mask):
    """Evaluate every primitive of `nl` once, in list order, over the lanes
    in `mask`: a register's output is its input one lane up, lane 0 its
    held value."""
    for prim in nl.primitives:
        k = prim.kind
        ins = prim.inputs
        if k == DFF:
            q = prim.outputs[0]
            values[q] = ((values[ins[0]] << 1) | (values[q] & 1)) & mask
        elif k == FULL_ADDER:
            a, b, c = values[ins[0]], values[ins[1]], values[ins[2]]
            s_out, c_out = prim.outputs
            t = a ^ b
            values[s_out] = t ^ c
            values[c_out] = (a & b) | (c & t)
        elif k == AND2:
            values[prim.outputs[0]] = values[ins[0]] & values[ins[1]]
        elif k == HALF_ADDER:
            a, b = values[ins[0]], values[ins[1]]
            s_out, c_out = prim.outputs
            values[s_out] = a ^ b
            values[c_out] = a & b
        elif k == CONST0:
            values[prim.outputs[0]] = 0


def _stream(nl, a_masks, b_masks, lanes):
    """Values over clock cycles 0 .. lanes - 1 from reset; lane t of the
    input masks holds the inputs of cycle t.  `nl` must have passed
    `analyze`, which checks its order."""
    values = [0] * nl.signal_count
    for sig, v in zip(nl.input_a + nl.input_b, a_masks + b_masks):
        values[sig] = v
    _settle(nl, values, (1 << lanes) - 1)
    return values


def _operand_lane_bits(nl, a, b):
    a = a if isinstance(a, OperandValue) else OperandValue(a, nl.width_a)
    b = b if isinstance(b, OperandValue) else OperandValue(b, nl.width_b)
    if a.width != nl.width_a or b.width != nl.width_b:
        raise SimError(f"operand widths {a.width}x{b.width} do not match "
                       f"netlist {nl.width_a}x{nl.width_b}")
    return a.bits, b.bits


def initial_state(nl: Netlist, a, b) -> SimState:
    """Cycle-0 state: registers all zero, then settle.  Raises
    OutOfOrderError, through `analyze`, on a netlist out of order."""
    analyze(nl)
    return SimState(values=_stream(nl, *_operand_lane_bits(nl, a, b), 1))


def step_cycle(nl: Netlist, state: SimState, a, b) -> SimState:
    """One rising clock edge: registers latch simultaneously, then the
    combinational regions settle with the (possibly new) inputs.
    Lane 0 streams the state's own cycle, lane 1 the next."""
    if not nl.pipelined:
        raise SimError("step_cycle requires a pipelined netlist")
    values = list(state.values)
    a_bits, b_bits = _operand_lane_bits(nl, a, b)
    for sig, bit in zip(nl.input_a + nl.input_b, a_bits + b_bits):
        values[sig] |= bit << 1
    _settle(nl, values, 0b11)
    return SimState(values=[v >> 1 for v in values])


def run_to_output(nl: Netlist, a, b) -> int:
    """Simulated product of one pair held for latency + 1 cycles."""
    latency = compute_latency(nl).cycles or 0
    held = (1 << (latency + 1)) - 1
    a_bits, b_bits = _operand_lane_bits(nl, a, b)
    values = _stream(nl, [x * held for x in a_bits], [x * held for x in b_bits],
                     latency + 1)
    return sum(((values[bit] >> latency) & 1) << j for j, bit in enumerate(nl.output_p))


@dataclass(slots=True)
class VerificationReport:
    passed: bool
    tested: int
    mode: str
    counterexample: dict | None = None

    def to_text(self):
        if self.passed:
            return f"PASS: {self.tested} {self.mode} vectors, all exact"
        c = self.counterexample
        return (f"FAIL: {c['a']} x {c['b']} expected {c['expected']} "
                f"got {c['got']} ({self.mode}, after {self.tested} vectors)")


def _lane_masks(words, width):
    """Bit-sliced view of per-lane words: mask i holds bit i of every
    word, word t at bit t."""
    text = "".join(format(w, f"0{width}b") for w in reversed(words))
    return [int(text[width - 1 - i::width], 2) for i in range(width)]


def _check_lanes(nl, values, latency, pairs, mode, tested_before=0):
    """Compare the output of every pair with a*b, whole masks at a time;
    pair t's product is in lane t + latency.

    Returns a failing report for the first wrong pair, or None.
    """
    got = [values[b] >> latency for b in nl.output_p]
    width = max(len(got), nl.width_a + nl.width_b)
    got += [0] * (width - len(got))
    want = _lane_masks([a * b for a, b in pairs], width)
    wrong = 0
    for g, w in zip(got, want):
        wrong |= g ^ w
    if not wrong:
        return None
    lane = (wrong & -wrong).bit_length() - 1
    a, b = pairs[lane]
    return VerificationReport(
        passed=False, tested=tested_before + lane, mode=mode,
        counterexample={"a": a, "b": b, "expected": a * b,
                        "got": sum(((m >> lane) & 1) << j for j, m in enumerate(got))})


def verify_pairs(nl: Netlist, pairs, mode: str, *,
                 analysis: Analysis | None = None) -> VerificationReport:
    """Stream the (a, b) pairs through `nl`, pair t entering in clock
    cycle t, and check each product against a*b as it leaves.

    The verify functions take an optional `analysis` of `nl` (as from
    `ValidationReport.analysis`) and analyse `nl` themselves without one.
    They raise UnbalancedPathError when any output bit's paths disagree.
    A pair that is negative or wider than its port raises SimError.
    """
    for a, b in pairs:
        if a < 0 or b < 0 or a >> nl.width_a or b >> nl.width_b:
            raise SimError(f"pair {a} x {b} does not fit the "
                           f"{nl.width_a}x{nl.width_b} operand ports")
    if not pairs:
        return VerificationReport(passed=True, tested=0, mode=mode)
    latency = compute_latency(nl, analysis=analysis).cycles or 0
    a_masks = _lane_masks([a for a, _ in pairs], nl.width_a)
    b_masks = _lane_masks([b for _, b in pairs], nl.width_b)
    values = _stream(nl, a_masks, b_masks, len(pairs) + latency)
    return (_check_lanes(nl, values, latency, pairs, mode)
            or VerificationReport(passed=True, tested=len(pairs), mode=mode))


def verify_exhaustive(nl: Netlist, *,
                      analysis: Analysis | None = None) -> VerificationReport:
    """Check every input pair against the arbitrary-precision product."""
    n, k = nl.width_a, nl.width_b
    if n + k > EXHAUSTIVE_GUARD_BITS:
        raise SimError(f"exhaustive verification capped at {EXHAUSTIVE_GUARD_BITS} "
                       f"total input bits, got {n + k}")
    latency = compute_latency(nl, analysis=analysis).cycles or 0
    total = 1 << (n + k)
    chunk = min(total, 1 << 16)
    tested = 0
    for base in range(0, total, chunk):
        a_masks = [_pattern(i, chunk, base) for i in range(n)]
        b_masks = [_pattern(n + i, chunk, base) for i in range(k)]
        values = _stream(nl, a_masks, b_masks, chunk + latency)
        pairs = [((base + t) & ((1 << n) - 1), (base + t) >> n) for t in range(chunk)]
        bad = _check_lanes(nl, values, latency, pairs, "exhaustive", tested)
        if bad is not None:
            return bad
        tested += chunk
    return VerificationReport(passed=True, tested=tested, mode="exhaustive")


def _pattern(v, lanes, base):
    """Lane mask of combined-input bit v over the lane window [base, base+lanes)."""
    period = 1 << v
    if period >= lanes:
        return ((1 << lanes) - 1) if (base >> v) & 1 else 0
    p = ((1 << period) - 1) << period  # one full 0-run then 1-run
    width = 2 * period
    while width < lanes:
        p |= p << width
        width *= 2
    return p


def random_pairs(width_a: int, width_b: int, count: int, seed: int) -> list:
    """`count` seeded uniform (a, b) pairs; the testbench vectors and
    `verify_random` both draw theirs here, so one seed gives one stream."""
    rng = random.Random(seed)
    return [(rng.getrandbits(width_a), rng.getrandbits(width_b)) for _ in range(count)]


def verify_random(nl: Netlist, count: int, seed: int, *,
                  analysis: Analysis | None = None) -> VerificationReport:
    """Check seeded uniform random pairs, exact product equality each."""
    pairs = random_pairs(nl.width_a, nl.width_b, count, seed)
    return verify_pairs(nl, pairs, "random", analysis=analysis)
