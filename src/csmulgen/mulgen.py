"""Unsigned multiplier construction.

Three phases: an AND-gate partial-product network, an iterative
carry-save reduction that compresses every output column down to at
most two pending bits, and a ripple-carry final adder.  A pipelined
build places registers as it adds the primitives: one register boundary
per reduction iteration and one per final-adder column, with skew
chains on inputs read across boundaries and deskew chains so every
output bit sees the identical latency.  Every signal read across a
register boundary has exactly one reader, so each chain belongs to that
one reader and no chain is shared.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass

from .netlist import AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER, Netlist, NetlistError

DEFAULT_MAX_WIDTH = 1024
MAX_WIDTH_ENV = "CSMULGEN_MAX_WIDTH"


class CapacityError(NetlistError):
    """Requested widths exceed the configured ceiling."""


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    width_a: int
    width_b: int
    pipelined: bool = False

    def __post_init__(self):
        if self.width_a < 1 or self.width_b < 1:
            raise ValueError("operand widths must be >= 1")


def max_width_ceiling():
    """Width ceiling from the environment; an unset or empty variable
    means the default.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get(MAX_WIDTH_ENV)
    if not raw:
        return DEFAULT_MAX_WIDTH
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"{MAX_WIDTH_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


class _Builder:
    """Appends primitives to a netlist, each in a pipeline window.

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

    def add(self, kind, inputs, window):
        if self.slot is None:
            return self.nl.add_primitive(kind, inputs)
        outs = self.nl.add_primitive(
            kind, [self.delayed(sig, window - self.slot[sig]) for sig in inputs])
        self.slot.extend([window] * len(outs))
        return outs

    def delayed(self, sig, d):
        """`sig` delayed d cycles through d fresh DFFs."""
        if d < 0:
            raise NetlistError("negative pipeline delay; window assignment bug")
        for _ in range(d):
            (q,) = self.nl.add_primitive(DFF, [sig])
            self.slot.append(self.slot[sig] + 1)
            sig = q
        return sig

    def deskew(self, bits):
        """Delay every bit to one common register depth, at least 1."""
        latency = max(1, max(self.slot[sig] for sig in bits))
        return [self.delayed(sig, latency - self.slot[sig]) for sig in bits]


def build_partial_products(cfg: GeneratorConfig, builder: _Builder) -> list:
    """AND every pair of input bits; the product of bits a and b lands
    in column a+b.  Returns the n + k columns as lists of signal ids."""
    n, k = cfg.width_a, cfg.width_b
    nl = builder.nl
    columns = [[] for _ in range(n + k)]
    for a in range(n):
        for b in range(k):
            (out,) = builder.add(AND2, [nl.input_a[a], nl.input_b[b]], 0)
            columns[a + b].append(out)
    return columns


def reduce_step(columns: list, iteration: int, builder: _Builder) -> list:
    """One carry-save compression pass.

    Scans columns from the least significant upward; every bit in a
    column takes part in this pass.  Full adders are placed while a
    column holds more than two bits.  A column left with exactly two
    bits receives a half adder unless one of the deferral rules applies:

      Rule A: a carry from the previous column already landed in this
      column during this pass, so a single full adder next pass can
      absorb all three bits.

      Rule B: the previous column leaves this pass with two bits, so the
      following pass will push a carry into this column and a full adder
      two passes out absorbs all three.

    Returns the columns for the next pass: carries in first, then sums,
    then the bits left unreduced.  Adders placed here go in window i+1.
    """
    i = iteration
    ncols = len(columns)
    new_cols = [[] for _ in range(ncols)]

    def emit_carry(col, sig):
        if col >= ncols:
            raise NetlistError("reduction carry past the most significant column")
        new_cols[col].append(sig)

    for j, col in enumerate(columns):
        # Before this column's adders, new_cols[j] holds only carries.
        rule_a = bool(new_cols[j])
        while len(col) > 2:
            s, c = builder.add(FULL_ADDER, col[:3], i + 1)
            col = col[3:]
            new_cols[j].append(s)
            emit_carry(j + 1, c)

        if len(col) == 2:
            rule_b = j > 0 and len(new_cols[j - 1]) == 2
            # A half adder in the most significant column has no home for
            # its carry and two bits are already final-adder material, so
            # the pair is always deferred there.
            at_top = j + 1 == ncols
            if not rule_a and not rule_b and not at_top:
                s, c = builder.add(HALF_ADDER, col, i + 1)
                col = []
                new_cols[j].append(s)
                emit_carry(j + 1, c)

        new_cols[j].extend(col)

    return new_cols


def run_reduction(columns: list, builder: _Builder):
    """Apply reduction passes until every column holds at most two bits.

    Returns the final columns and the number of passes executed.  Each
    pass over an unreduced column list places at least one full adder,
    and a full adder strictly decreases the total bit count, so this
    terminates.
    """
    i = 0
    while any(len(col) > 2 for col in columns):
        columns = reduce_step(columns, i, builder)
        i += 1
    return columns, i


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
            (zero,) = builder.add(CONST0, [], 0)
            out_bits.append(zero)
            carry = None
        elif len(operands) == 1:
            out_bits.append(operands[0])
            carry = None
        elif len(operands) == 2:
            s, c = builder.add(HALF_ADDER, operands, window)
            out_bits.append(s)
            carry = c
            window += 1
        else:
            s, c = builder.add(FULL_ADDER, operands, window)
            out_bits.append(s)
            carry = c
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

