"""Gate-level netlist evaluation and product verification.

Values are plain Python integers used as lane vectors: bit t of a
signal's value is that signal's logic level in test lane t.  A single
evaluation is just the one-lane case.  AND/XOR/majority on big
integers make exhaustive sweeps cheap without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import random

from .netlist import (
    AND2, CONST0, FULL_ADDER, HALF_ADDER,
    Analysis, Netlist, analysis_for,
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
    """Settled signal values after some number of clock edges.

    analysis is the netlist's analysis the state was built with;
    step_cycle reuses it instead of analysing the netlist every cycle.
    """

    values: list  # signal id -> lane vector
    analysis: Analysis
    cycle: int = 0

    def output_value(self, nl: Netlist, lane=0):
        return sum(((self.values[b] >> lane) & 1) << j
                   for j, b in enumerate(nl.output_p))


def _apply_inputs(values, nl, a_masks, b_masks):
    for sig, v in zip(nl.input_a, a_masks):
        values[sig] = v
    for sig, v in zip(nl.input_b, b_masks):
        values[sig] = v


def _settle(order, values):
    for prim in order:
        k = prim.kind
        ins = prim.inputs
        if k == FULL_ADDER:
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


def _settled(nl, an, a_masks, b_masks):
    """Values with every register at zero and the inputs settled through."""
    values = [0] * len(nl.signals)
    _apply_inputs(values, nl, a_masks, b_masks)
    _settle(an.order, values)
    return values


def _clock_edge(nl, an, values, a_masks, b_masks):
    """All registers latch at once, then the new inputs settle through."""
    latched = [values[p.inputs[0]] for p in an.dffs]
    for prim, v in zip(an.dffs, latched):
        values[prim.outputs[0]] = v
    _apply_inputs(values, nl, a_masks, b_masks)
    _settle(an.order, values)


def _operand_lane_bits(nl, a, b):
    a = a if isinstance(a, OperandValue) else OperandValue(a, nl.width_a)
    b = b if isinstance(b, OperandValue) else OperandValue(b, nl.width_b)
    if a.width != nl.width_a or b.width != nl.width_b:
        raise SimError(f"operand widths {a.width}x{b.width} do not match "
                       f"netlist {nl.width_a}x{nl.width_b}")
    return a.bits, b.bits


def eval_combinational(nl: Netlist, a, b) -> SimState:
    """Settle a non-pipelined netlist on one input pair."""
    if nl.pipelined:
        raise SimError("eval_combinational requires a non-pipelined netlist")
    return initial_state(nl, a, b)


def initial_state(nl: Netlist, a, b) -> SimState:
    """Cycle-0 state: registers all zero, then settle."""
    an = analysis_for(nl)
    return SimState(values=_settled(nl, an, *_operand_lane_bits(nl, a, b)), analysis=an)


def step_cycle(nl: Netlist, state: SimState, a, b) -> SimState:
    """One rising clock edge: registers latch simultaneously, then the
    combinational regions settle with the (possibly new) inputs."""
    if not nl.pipelined:
        raise SimError("step_cycle requires a pipelined netlist")
    nxt = SimState(values=list(state.values), analysis=state.analysis,
                   cycle=state.cycle + 1)
    _clock_edge(nl, nxt.analysis, nxt.values, *_operand_lane_bits(nl, a, b))
    return nxt


def run_to_output(nl: Netlist, a, b) -> int:
    """Simulated product: the one-lane case of the lane-parallel core."""
    values = _lane_eval(nl, *_operand_lane_bits(nl, a, b))
    return sum(values[bit] << j for j, bit in enumerate(nl.output_p))


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

    def to_json(self):
        return json.dumps({
            "passed": self.passed,
            "tested": self.tested,
            "mode": self.mode,
            "counterexample": self.counterexample,
        }, sort_keys=True)


def _lane_eval(nl, a_masks, b_masks, analysis=None):
    """Evaluate all lanes at once; returns the values list.

    a_masks[i] holds input bit i of operand a across lanes.  Pipelined
    netlists run with per-lane constant inputs for the full latency.
    """
    an = analysis_for(nl, analysis)
    values = _settled(nl, an, a_masks, b_masks)
    if nl.pipelined:
        for _ in range(an.register_depth(nl.output_p[0])):
            _clock_edge(nl, an, values, a_masks, b_masks)
    return values


def _lane_masks(words, width):
    """Bit-sliced view of per-lane words: mask i holds bit i of every
    word, word t at bit t."""
    text = "".join(format(w, f"0{width}b") for w in reversed(words))
    return [int(text[width - 1 - i::width], 2) for i in range(width)]


def _check_lanes(nl, values, pairs, mode, tested_before=0):
    """Compare every lane's output with a*b, whole masks at a time.

    Returns a failing report for the first wrong lane, or None.
    """
    got = [values[b] for b in nl.output_p]
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
    """Simulate each (a, b) pair as one lane and check it against a*b.

    The verify functions take an optional `analysis` of `nl` (as from
    `ValidationReport.analysis`) and analyse `nl` themselves without one.
    """
    if not pairs:
        return VerificationReport(passed=True, tested=0, mode=mode)
    a_masks = _lane_masks([a for a, _ in pairs], nl.width_a)
    b_masks = _lane_masks([b for _, b in pairs], nl.width_b)
    values = _lane_eval(nl, a_masks, b_masks, analysis)
    return (_check_lanes(nl, values, pairs, mode)
            or VerificationReport(passed=True, tested=len(pairs), mode=mode))


def verify_exhaustive(nl: Netlist, *,
                      analysis: Analysis | None = None) -> VerificationReport:
    """Check every input pair against the arbitrary-precision product."""
    n, k = nl.width_a, nl.width_b
    if n + k > EXHAUSTIVE_GUARD_BITS:
        raise SimError(f"exhaustive verification capped at {EXHAUSTIVE_GUARD_BITS} "
                       f"total input bits, got {n + k}")
    an = analysis_for(nl, analysis)
    total = 1 << (n + k)
    chunk = min(total, 1 << 16)
    tested = 0
    for base in range(0, total, chunk):
        a_masks = [_pattern(i, chunk, base) for i in range(n)]
        b_masks = [_pattern(n + i, chunk, base) for i in range(k)]
        values = _lane_eval(nl, a_masks, b_masks, an)
        pairs = [((base + t) & ((1 << n) - 1), (base + t) >> n) for t in range(chunk)]
        bad = _check_lanes(nl, values, pairs, "exhaustive", tested)
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


def verify_random(nl: Netlist, count: int, seed: int, *,
                  analysis: Analysis | None = None) -> VerificationReport:
    """Check seeded uniform random pairs, exact product equality each."""
    rng = random.Random(seed)
    n, k = nl.width_a, nl.width_b
    pairs = [(rng.getrandbits(n), rng.getrandbits(k)) for _ in range(count)]
    return verify_pairs(nl, pairs, "random", analysis=analysis)
