"""Gate-level netlist evaluation and product verification.

Values are plain Python integers used as lane vectors: bit t of a
signal's value is its level for input pair t.  Simulation and
verification take the netlist's `ValidationReport`.  A register is a
wire: the report's latency verdict says that every output path holds
the same number L of registers, so the product leaving in cycle t + L
is pair t's.  One pass over the primitives, which a netlist keeps in
dependency order, and one transpose of the output lanes give every
pair's product; `simulate` returns them, and verification compares
them with `*`.  AND/XOR/majority on big integers make exhaustive
sweeps cheap without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from .netlist import (
    _AND2, _CONST0, _DFF, _FULL_ADDER, _HALF_ADDER,
    Netlist, ValidationReport, compute_latency,
)

EXHAUSTIVE_GUARD_BITS = 24


class SimError(Exception):
    pass


def _settle(nl, values):
    """Evaluate every primitive of `nl` once, in stored order, over all
    lanes at once; a register's output is its input."""
    it = iter(nl.pins)
    for k, i0, i1, i2, o0, o1 in zip(nl.kinds, it, it, it, it, it):
        if k == _DFF:
            values[o0] = values[i0]
        elif k == _FULL_ADDER:
            a, b, c = values[i0], values[i1], values[i2]
            t = a ^ b
            values[o0] = t ^ c
            values[o1] = (a & b) | (c & t)
        elif k == _AND2:
            values[o0] = values[i0] & values[i1]
        elif k == _HALF_ADDER:
            a, b = values[i0], values[i1]
            values[o0] = a ^ b
            values[o1] = a & b
        elif k == _CONST0:
            values[o0] = 0


def _stream(nl, a_masks, b_masks, lanes):
    """Products of the input lane masks, one word per lane: word t, for
    t below `lanes`, is the product for the inputs in lane t.  `nl` must
    have passed `compute_latency`, which checks its order and its
    balance."""
    values = [0] * nl.signal_count
    for sig, v in zip(nl.input_a + nl.input_b, a_masks + b_masks):
        values[sig] = v
    _settle(nl, values)
    return _lane_masks([values[bit] for bit in nl.output_p], lanes)


def _lane_masks(words, width):
    """Bit-sliced view of per-lane words: mask i holds bit i of every
    word, word t at bit t.  Each word must be below 2**width.  No words
    give all-zero masks.  The transpose is its own inverse:
    `_lane_masks(_lane_masks(words, width), len(words)) == words`."""
    text = "".join(map(f"{{:0{width}b}}".format, reversed(words)))
    return [int(text[width - 1 - i::width] or "0", 2) for i in range(width)]


def check_pairs(nl: Netlist, pairs):
    """Raise SimError unless every (a, b) pair fits `nl`'s operand ports."""
    for a, b in pairs:
        if a < 0 or b < 0 or a >> nl.width_a or b >> nl.width_b:
            raise SimError(f"pair {a} x {b} does not fit the "
                           f"{nl.width_a}x{nl.width_b} operand ports")


def simulate(report: ValidationReport, pairs) -> list[int]:
    """Products of the (a, b) pairs streamed through the netlist of
    `report`, `validate(nl)`, pair t entering in clock cycle t and
    leaving L cycles later, L being the latency (0 when combinational).
    One product is `simulate(report, [(a, b)])[0]`.  Raises as
    `verify_pairs` does."""
    nl = report.netlist
    check_pairs(nl, pairs)
    compute_latency(report)
    a_masks = _lane_masks([a for a, _ in pairs], nl.width_a)
    b_masks = _lane_masks([b for _, b in pairs], nl.width_b)
    return _stream(nl, a_masks, b_masks, len(pairs))


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


def _failure(a, b, got, tested, mode):
    """The report of pair (a, b), the first wrong one after `tested`
    right ones, whose product came out as `got`."""
    return VerificationReport(
        passed=False, tested=tested, mode=mode,
        counterexample={"a": a, "b": b, "expected": a * b, "got": got})


def verify_pairs(report: ValidationReport, pairs, mode: str) -> VerificationReport:
    """Stream the (a, b) pairs through the netlist of `report`,
    `validate(nl)`, pair t entering in clock cycle t, and check each
    product against a*b as it leaves.

    The verify functions raise as `compute_latency` does, even with no
    pairs: UnbalancedPathError when any output bit's paths disagree, and
    OutOfOrderError on a netlist out of order.  A pair that is negative
    or wider than its port raises SimError.
    """
    for t, ((a, b), p) in enumerate(zip(pairs, simulate(report, pairs))):
        if p != a * b:
            return _failure(a, b, p, t, mode)
    return VerificationReport(passed=True, tested=len(pairs), mode=mode)


def verify_exhaustive(report: ValidationReport) -> VerificationReport:
    """Check every input pair against the arbitrary-precision product."""
    nl = report.netlist
    n, k = nl.width_a, nl.width_b
    if n + k > EXHAUSTIVE_GUARD_BITS:
        raise SimError(f"exhaustive verification capped at {EXHAUSTIVE_GUARD_BITS} "
                       f"total input bits, got {n + k}")
    compute_latency(report)
    total = 1 << (n + k)
    chunk = min(total, 1 << 16)
    mask = (1 << n) - 1
    for base in range(0, total, chunk):
        a_masks = [_pattern(i, chunk, base) for i in range(n)]
        b_masks = [_pattern(n + i, chunk, base) for i in range(k)]
        for t, p in enumerate(_stream(nl, a_masks, b_masks, chunk), base):
            if p != (t & mask) * (t >> n):
                return _failure(t & mask, t >> n, p, t, "exhaustive")
    return VerificationReport(passed=True, tested=total, mode="exhaustive")


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
    if count < 0:
        raise ValueError(f"vector count must be >= 0, got {count}")
    rng = random.Random(seed)
    return [(rng.getrandbits(width_a), rng.getrandbits(width_b)) for _ in range(count)]


def verify_random(report: ValidationReport, count: int, seed: int) -> VerificationReport:
    """Check seeded uniform random pairs, exact product equality each."""
    nl = report.netlist
    pairs = random_pairs(nl.width_a, nl.width_b, count, seed)
    return verify_pairs(report, pairs, "random")
