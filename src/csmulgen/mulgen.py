"""Unsigned multiplier construction.

Three phases: an AND-gate partial-product network, an iterative
carry-save reduction that compresses every output column down to at
most two pending bits, and a ripple-carry final adder.  The reduction
is planned from column heights alone: `schedule(n, k)` owns the
deferral rules, and `reduce_step` places the adders it names, a whole
pass at a time by slices when the build is combinational.  A
pipelined build places registers as it adds the primitives: one
register boundary per reduction iteration and one per final-adder
column, with skew chains on inputs read across boundaries and deskew
chains so every output bit sees the identical latency.  Every signal
read across a register boundary has exactly one reader, so each chain
belongs to that one reader and no chain is shared.
"""

from __future__ import annotations

import os
from array import array
from itertools import repeat
from typing import NamedTuple

from .netlist import (
    _AND2, _CONST0, _DFF, _FULL_ADDER, _HALF_ADDER, STRIDE, UNUSED, Netlist, NetlistError,
)

DEFAULT_MAX_WIDTH = 1024
MAX_WIDTH_ENV = "CSMULGEN_MAX_WIDTH"


class CapacityError(NetlistError):
    """Requested widths exceed the configured ceiling."""


class _Config(NamedTuple):
    width_a: int
    width_b: int
    pipelined: bool = False


class GeneratorConfig(_Config):
    """Operand widths and mode of one multiplier; a width below 1 raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, width_a, width_b, pipelined=False):
        if width_a < 1 or width_b < 1:
            raise ValueError("operand widths must be >= 1")
        return super().__new__(cls, width_a, width_b, pipelined)


def max_width_ceiling():
    """Width ceiling from the environment; an unset or empty variable
    means the default.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get(MAX_WIDTH_ENV)
    if not raw:
        return DEFAULT_MAX_WIDTH
    try:
        if raw.isascii() and raw.isdigit() and int(raw) >= 1:
            return int(raw)
    except ValueError:  # more digits than Python's int conversion limit
        pass
    shown = repr(raw) if len(raw) <= 40 else f"{raw[:40]!r}... ({len(raw)} characters)"
    raise ValueError(f"{MAX_WIDTH_ENV} must be a positive integer, got {shown}")


class _Builder:
    """Writes a multiplier's primitives straight into the netlist's
    `kinds` and `pins` stores, each in a pipeline window, and keeps
    `signal_count` in step: the generator is the one writer of the
    stores in the package.  No list or tuple is built per primitive:
    the AND array goes in a row at a time, a combinational reduction pass
    as one run of adders, a pipelined adder pin by pin, and a delay chain
    in one loop.

    Window 0 holds the partial-product ANDs and constants, window i+1 the
    adders of reduction iteration i, then each final-adder column the
    next window.  In a pipelined netlist a primitive in window w reads a
    signal produced in window v through a chain of w - v DFFs of its own.
    No chain is shared: a column bit feeds one adder or one output bit,
    and port bits are read only in window 0, so every signal read across
    a window boundary has exactly one reader.  The one pipelined state is
    `slot`, an array indexed by signal id holding the window a signal is
    produced in.  A combinational netlist ignores windows.
    """

    def __init__(self, nl: Netlist):
        self.nl = nl
        self.slot = None
        if nl.pipelined:
            # Every signal so far (ports and clock) is in window 0.
            self.slot = array("i", bytes(4 * nl.signal_count))

    def and_array(self):
        """Append an AND of every pair of input bits in window 0, which
        needs no delay, one row of width_b ANDs per bit of input_a.
        Returns the first output id: the AND of bits a and b is
        first + a * width_b + b."""
        nl = self.nl
        k, first = nl.width_b, nl.signal_count
        count = nl.width_a * k
        row = array("i", [UNUSED]) * (STRIDE * k)
        row[1::STRIDE] = array("i", nl.input_b)
        for a, sig in enumerate(nl.input_a):
            row[0::STRIDE] = array("i", [sig]) * k
            row[3::STRIDE] = array("i", range(first + a * k, first + (a + 1) * k))
            nl.pins += row
        nl.kinds += bytes([_AND2]) * count
        nl.signal_count = first + count
        if self.slot is not None:
            self.slot.frombytes(bytes(4 * count))
        return first

    def add(self, code, window, i0, i1, i2=UNUSED):
        """Append a half adder (i2 UNUSED) or a full adder of kind code
        in `window`, each input delayed to it; returns the sum's id, and
        the carry's is the next one."""
        nl, slot = self.nl, self.slot
        if slot is not None:
            i0 = self.delayed(i0, window - slot[i0])
            i1 = self.delayed(i1, window - slot[i1])
            if i2 != UNUSED:
                i2 = self.delayed(i2, window - slot[i2])
            slot.append(window)
            slot.append(window)
        s = nl.signal_count
        nl.kinds.append(code)
        put = nl.pins.append
        put(i0)
        put(i1)
        put(i2)
        put(s)
        put(s + 1)
        nl.signal_count = s + 2
        return s

    def adders(self, kinds, i0, i1, i2):
        """Append a run of adders to a combinational netlist, adder t of
        kind kinds[t] reading i0[t], i1[t] and i2[t] (UNUSED for a half
        adder).  Returns the sums' ids in order; each carry's id is its
        sum's plus one."""
        nl = self.nl
        first, count = nl.signal_count, len(kinds)
        end = first + 2 * count
        row = array("i", bytes(4 * STRIDE * count))
        row[0::STRIDE] = array("i", i0)
        row[1::STRIDE] = array("i", i1)
        row[2::STRIDE] = array("i", i2)
        row[3::STRIDE] = array("i", range(first, end, 2))
        row[4::STRIDE] = array("i", range(first + 1, end, 2))
        nl.pins += row
        nl.kinds += kinds
        nl.signal_count = end
        return range(first, end, 2)

    def zero(self):
        """Append a constant-zero driver in window 0; returns its id."""
        nl = self.nl
        s = nl.signal_count
        nl.kinds.append(_CONST0)
        nl.pins.extend((UNUSED, UNUSED, UNUSED, s, UNUSED))
        nl.signal_count = s + 1
        if self.slot is not None:
            self.slot.append(0)
        return s

    def delayed(self, sig, d):
        """`sig` delayed d cycles through d fresh DFFs."""
        if d < 0:
            raise NetlistError("negative pipeline delay; window assignment bug")
        if not d:
            return sig
        nl, slot = self.nl, self.slot
        first = nl.signal_count
        window = slot[sig]
        nl.kinds += bytes([_DFF]) * d
        put = nl.pins.append
        for q in range(first, first + d):
            put(sig)
            put(UNUSED)
            put(UNUSED)
            put(q)
            put(UNUSED)
            sig = q
        slot.extend(range(window + 1, window + d + 1))
        nl.signal_count = first + d
        return sig

    def deskew(self, bits):
        """Delay every bit to one common register depth, at least 1."""
        latency = max(1, max(self.slot[sig] for sig in bits))
        return [self.delayed(sig, latency - self.slot[sig]) for sig in bits]


def build_partial_products(cfg: GeneratorConfig, builder: _Builder) -> list:
    """AND every pair of input bits; the product of bits a and b lands
    in column a+b.  Returns the n + k columns as lists of signal ids.

    The ANDs go in as one array (`_Builder.and_array`), so each column
    comes from arithmetic: column j holds first + a*k + (j - a) for
    every a with j - a in 0 .. k - 1, in increasing a."""
    n, k = cfg.width_a, cfg.width_b
    first = builder.and_array()
    step = k - 1 or 1  # a one-bit b puts at most one product in a column
    columns = []
    for j in range(n + k):
        lo, hi = max(0, j - k + 1), min(n - 1, j)
        start = first + j + lo * (k - 1)
        columns.append(list(range(start, start + (hi - lo + 1) * step, step)))
    return columns


def schedule(n: int, k: int) -> list:
    """The reduction of an n x k product as counts: one plan per pass,
    and a plan is one (full adders, half adder) pair per column.

    Column j starts with min(j + 1, n, k, n + k - 1 - j) bits, and passes
    run while a column holds more than two.  A column of height m takes
    m // 3 full adders and, if two bits are left, a half adder unless:

      Rule A: a carry from column j - 1 landed in column j this pass, so
      one full adder next pass absorbs all three bits;
      Rule B: column j - 1 leaves this pass with two bits, so a carry
      lands next pass and a full adder two passes out absorbs all three.

    The top column never takes a half adder, whose carry would have no
    column; a full adder there raises NetlistError.
    """
    width = n + k
    heights = [min(j + 1, n, k, n + k - 1 - j) for j in range(width)]
    passes = []
    while max(heights) > 2:
        plan, nxt, carry = [], [], 0
        for j, m in enumerate(heights):
            full, rest = divmod(m, 3)
            if full and j + 1 == width:
                raise NetlistError("reduction carry past the most significant column")
            half = rest == 2 and not carry and not (j and nxt[j - 1] == 2) and j + 1 < width
            plan.append((full, half))
            nxt.append(carry + full + (1 if half else rest))
            carry = full + half
        passes.append(plan)
        heights = nxt
    return passes


def reduce_step(columns: list, plan: list, iteration: int, builder: _Builder) -> list:
    """One carry-save pass: places the adders `plan` names in window
    i+1, each taking its column's next bits by index: a column's full
    adders first, then its half adder.  Returns the next pass's columns:
    carries in first, then sums, then the bits left.

    A combinational build writes the pass as one run of adders, whose
    inputs are slices of the columns.  A pipelined build places one adder
    at a time, because each adder's skew DFFs come just before it in
    stored order."""
    i0, i1, i2, kinds = [], [], [], bytearray()
    fa = bytes([_FULL_ADDER])
    for col, (full, half) in zip(columns, plan):
        used = 3 * full
        i0 += col[0:used:3]
        i1 += col[1:used:3]
        i2 += col[2:used:3]
        kinds += fa * full
        if half:
            i0.append(col[used])
            i1.append(col[used + 1])
            i2.append(UNUSED)
            kinds.append(_HALF_ADDER)
    if builder.slot is None:
        sums = builder.adders(kinds, i0, i1, i2)
        carries = range(sums.start + 1, sums.stop + 1, 2)
    else:
        sums = list(map(builder.add, kinds, repeat(iteration + 1), i0, i1, i2))
        carries = [s + 1 for s in sums]
    new_cols, t, up = [], 0, ()
    # The schedule puts no adder in the top column, so no carry is left over.
    for col, (full, half) in zip(columns, plan):
        n = full + half
        new_cols.append([*up, *sums[t:t + n], *col[3 * full + 2 * half:]])
        up, t = carries[t:t + n], t + n
    return new_cols


def run_reduction(columns: list, builder: _Builder):
    """Apply the passes of the widths' schedule.  Returns the final
    columns, each at most two bits, and the number of passes."""
    passes = schedule(builder.nl.width_a, builder.nl.width_b)
    for i, plan in enumerate(passes):
        columns = reduce_step(columns, plan, i, builder)
    return columns, len(passes)


def build_final_adder(columns: list, builder: _Builder, window: int):
    """Ripple-carry resolution of the remaining (at most two) rows.

    Column by column: nothing pending and no carry means a constant
    zero output; a lone bit without a carry wires straight through;
    two bits, or one bit plus a carry, take a half adder; two bits plus
    a carry take a full adder.  Each adder goes in the next window,
    from `window` on.
    """
    out_bits = []
    carry = None
    for j, col in enumerate(columns):
        if len(col) > 2:
            raise NetlistError(f"column {j} holds {len(col)} bits; final adder takes <= 2")
        operands = col + ([carry] if carry is not None else [])
        if len(operands) == 0:
            out_bits.append(builder.zero())
            carry = None
        elif len(operands) == 1:
            out_bits.append(operands[0])
            carry = None
        else:
            kind = _HALF_ADDER if len(operands) == 2 else _FULL_ADDER
            s = builder.add(kind, window, *operands)
            out_bits.append(s)
            carry = s + 1
            window += 1
    if carry is not None:
        # The weighted sum of all dots is the full product, which fits in
        # n+k bits, so a carry out of the most significant column can
        # never assert; declare it terminated instead of leaving it
        # dangling.
        builder.nl.terminated.add(carry)
    return out_bits


def generate_with_annotations(cfg: GeneratorConfig):
    """Build a multiplier and return (netlist, reduction passes run)."""
    ceiling = max_width_ceiling()
    if cfg.width_a > ceiling or cfg.width_b > ceiling:
        raise CapacityError(
            f"width {cfg.width_a}x{cfg.width_b} exceeds ceiling {ceiling} "
            f"(override with {MAX_WIDTH_ENV})")
    nl = Netlist.create(cfg.width_a, cfg.width_b)
    if cfg.pipelined:
        nl.pipelined = True
        nl.add_clock()
    builder = _Builder(nl)
    columns, passes = run_reduction(build_partial_products(cfg, builder), builder)
    nl.output_p = build_final_adder(columns, builder, passes + 1)
    if cfg.pipelined:
        nl.output_p = builder.deskew(nl.output_p)
    return nl, passes


def generate_multiplier(cfg: GeneratorConfig) -> Netlist:
    return generate_with_annotations(cfg)[0]

