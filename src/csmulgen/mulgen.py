"""Unsigned multiplier construction.

Three phases: an AND-gate partial-product network, an iterative
carry-save reduction that compresses every output column down to at
most two pending bits, and a ripple-carry final adder.  Pipelining
re-times the same structure with one register boundary per reduction
iteration and one per final-adder column, plus skew/deskew register
chains so every output bit sees the identical latency.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

from .netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER,
    Netlist, NetlistError, analyze,
)

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


class Dot(NamedTuple):
    """One pending column bit: the signal and the iteration at which it
    becomes available for reduction."""

    signal: object
    iteration: int


@dataclass(slots=True)
class DotMatrix:
    """Per-output-column lists of pending bits."""

    columns: list

    def heights(self):
        return [len(col) for col in self.columns]

    def total_dots(self):
        return sum(len(col) for col in self.columns)

    def reduced(self):
        return all(len(col) <= 2 for col in self.columns)


@dataclass(slots=True)
class BuildAnnotations:
    """Stage bookkeeping produced alongside the combinational netlist.

    window maps primitive index to its pipeline evaluation window:
    0 for the partial-product ANDs, i+1 for adders placed in reduction
    iteration i, then one window per final-adder column.  Constant
    drivers carry no window.
    """

    stage_count: int = 0
    window: dict = field(default_factory=dict)
    dots_entering_final: int = 0
    reduction_full_adders: int = 0
    reduction_half_adders: int = 0


@dataclass(frozen=True, slots=True)
class LatencyInfo:
    pipelined: bool
    cycles: int | None = None
    gate_units: int | None = None


def max_width_ceiling():
    """Width ceiling from the environment; an unset or empty variable
    means the default.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get(MAX_WIDTH_ENV)
    if not raw:
        return DEFAULT_MAX_WIDTH
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"{MAX_WIDTH_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def build_partial_products(cfg: GeneratorConfig, nl: Netlist) -> DotMatrix:
    """AND every pair of input bits; the product of bits a and b lands
    in column a+b."""
    n, k = cfg.width_a, cfg.width_b
    columns = [[] for _ in range(n + k)]
    for a in range(n):
        for b in range(k):
            (out,) = nl.add_primitive(AND2, [nl.input_a[a], nl.input_b[b]])
            columns[a + b].append(Dot(out, 0))
    return DotMatrix(columns=columns)


def reduce_step(matrix: DotMatrix, iteration: int, nl: Netlist) -> DotMatrix:
    """One carry-save compression pass.

    Scans columns from the least significant upward, looking only at
    dots available at this iteration.  Full adders are placed while a
    column holds more than two eligible dots.  A column left with
    exactly two dots receives a half adder unless one of the deferral
    rules applies:

      Rule A: a carry already landed in this column for the next
      iteration during this pass, so a single full adder next time can
      absorb all three bits.

      Rule B: the previous column holds two bits for the next
      iteration, so the following pass will push a carry into this
      column and a full adder two passes out absorbs all three.

    All surviving dots cross into the next iteration.
    """
    i = iteration
    ncols = len(matrix.columns)
    new_cols = [[] for _ in range(ncols)]
    carries_in = [0] * ncols  # carry dots registered per column this pass

    def emit_carry(col, sig):
        if col >= ncols:
            raise NetlistError("reduction carry past the most significant column")
        new_cols[col].append(Dot(sig, i + 1))
        carries_in[col] += 1

    for j in range(ncols):
        eligible = [d for d in matrix.columns[j] if d.iteration <= i]
        future = [d for d in matrix.columns[j] if d.iteration > i]
        new_cols[j].extend(future)

        # Stable lowest-iteration-first operand selection.
        eligible.sort(key=lambda d: d.iteration)

        while len(eligible) > 2:
            ops = eligible[:3]
            eligible = eligible[3:]
            s, c = nl.add_primitive(FULL_ADDER, [d.signal for d in ops])
            new_cols[j].append(Dot(s, i + 1))
            emit_carry(j + 1, c)

        if len(eligible) == 2:
            rule_a = carries_in[j] > 0
            rule_b = j > 0 and sum(
                1 for d in new_cols[j - 1] if d.iteration == i + 1) == 2
            # A half adder in the most significant column has no home for
            # its carry and two dots are already final-adder material, so
            # the pair is always deferred there.
            at_top = j + 1 == ncols
            if not rule_a and not rule_b and not at_top:
                s, c = nl.add_primitive(HALF_ADDER, [d.signal for d in eligible])
                eligible = []
                new_cols[j].append(Dot(s, i + 1))
                emit_carry(j + 1, c)

        new_cols[j].extend(Dot(d.signal, i + 1) for d in eligible)

    return DotMatrix(columns=new_cols)


def run_reduction(matrix: DotMatrix, nl: Netlist):
    """Apply reduction passes until every column holds at most two dots.

    Returns the final matrix and the number of passes executed.  Each
    pass over an unreduced matrix places at least one full adder, and a
    full adder strictly decreases the total dot count, so this
    terminates.
    """
    i = 0
    while not matrix.reduced():
        matrix = reduce_step(matrix, i, nl)
        i += 1
    return matrix, i


def build_final_adder(matrix: DotMatrix, nl: Netlist):
    """Ripple-carry resolution of the remaining (at most two) rows.

    Column by column: nothing pending and no carry means a constant
    zero output; a lone bit without a carry wires straight through;
    two bits, or one bit plus a carry, take a half adder; two bits plus
    a carry take a full adder.
    """
    out_bits = []
    carry = None
    for j, col in enumerate(matrix.columns):
        dots = [d.signal for d in col]
        if len(dots) > 2:
            raise NetlistError(f"column {j} holds {len(dots)} dots; final adder takes <= 2")
        operands = dots + ([carry] if carry is not None else [])
        if len(operands) == 0:
            (zero,) = nl.add_primitive(CONST0, [])
            out_bits.append(zero)
            carry = None
        elif len(operands) == 1:
            out_bits.append(operands[0])
            carry = None
        elif len(operands) == 2:
            s, c = nl.add_primitive(HALF_ADDER, operands)
            out_bits.append(s)
            carry = c
        else:
            s, c = nl.add_primitive(FULL_ADDER, operands)
            out_bits.append(s)
            carry = c
    if carry is not None:
        # The weighted sum of all dots is the full product, which fits in
        # n+k bits, so a carry out of the most significant column can
        # never assert; declare it terminated instead of leaving it
        # dangling.
        nl.terminated.add(carry.id)
    return out_bits


def insert_pipeline_registers(nl: Netlist, ann: BuildAnnotations) -> Netlist:
    """Re-time a combinational netlist into a pipelined one.

    Every primitive evaluates inside the window recorded in the
    annotations; a signal produced in window w and consumed in window
    w' crosses w' - w register boundaries and gets that many DFFs.
    Output bits are deskewed to one common register depth, at least 1.
    """
    out = Netlist.create(nl.width_a, nl.width_b)
    out.pipelined = True
    out.add_clock()

    sig_map = {}
    slot = {}
    for old, new in zip(nl.input_a, out.input_a):
        sig_map[old.id] = new
        slot[old.id] = 0
    for old, new in zip(nl.input_b, out.input_b):
        sig_map[old.id] = new
        slot[old.id] = 0

    delay_cache = {}

    def delayed(sig, d):
        if d < 0:
            raise NetlistError("negative pipeline delay; window assignment bug")
        if d == 0:
            return sig
        key = (sig.id, d)
        hit = delay_cache.get(key)
        if hit is not None:
            return hit
        (q,) = out.add_primitive(DFF, [delayed(sig, d - 1)])
        delay_cache[key] = q
        return q

    for idx, prim in enumerate(nl.primitives):
        if prim.kind == CONST0:
            (zero,) = out.add_primitive(CONST0, [])
            sig_map[prim.outputs[0].id] = zero
            slot[prim.outputs[0].id] = 0
            continue
        w = ann.window[idx]
        ins = [delayed(sig_map[s.id], w - slot[s.id]) for s in prim.inputs]
        outs = out.add_primitive(prim.kind, ins)
        for old, new in zip(prim.outputs, outs):
            sig_map[old.id] = new
            slot[old.id] = w

    latency = max(1, max(slot[bit.id] for bit in nl.output_p))
    out.output_p = [delayed(sig_map[bit.id], latency - slot[bit.id])
                    for bit in nl.output_p]
    out.terminated = {sig_map[sid].id for sid in nl.terminated}
    return out


def _build_combinational(cfg: GeneratorConfig):
    nl = Netlist.create(cfg.width_a, cfg.width_b)
    ann = BuildAnnotations()

    matrix = build_partial_products(cfg, nl)
    for idx in range(len(nl.primitives)):
        ann.window[idx] = 0

    i = 0
    while not matrix.reduced():
        start = len(nl.primitives)
        matrix = reduce_step(matrix, i, nl)
        for idx in range(start, len(nl.primitives)):
            ann.window[idx] = i + 1
            prim = nl.primitives[idx]
            if prim.kind == FULL_ADDER:
                ann.reduction_full_adders += 1
            else:
                ann.reduction_half_adders += 1
        i += 1
    ann.stage_count = i
    ann.dots_entering_final = matrix.total_dots()

    rca_start = len(nl.primitives)
    nl.output_p = build_final_adder(matrix, nl)
    adder_ordinal = 0
    for idx in range(rca_start, len(nl.primitives)):
        if nl.primitives[idx].kind == CONST0:
            continue
        ann.window[idx] = ann.stage_count + 1 + adder_ordinal
        adder_ordinal += 1

    return nl, ann


def generate_with_annotations(cfg: GeneratorConfig):
    """Build a multiplier and return (netlist, annotations)."""
    ceiling = max_width_ceiling()
    if cfg.width_a > ceiling or cfg.width_b > ceiling:
        raise CapacityError(
            f"width {cfg.width_a}x{cfg.width_b} exceeds ceiling {ceiling} "
            f"(override with {MAX_WIDTH_ENV})")
    nl, ann = _build_combinational(cfg)
    if cfg.pipelined:
        nl = insert_pipeline_registers(nl, ann)
    return nl, ann


def generate_multiplier(cfg: GeneratorConfig) -> Netlist:
    return generate_with_annotations(cfg)[0]


def compute_latency(nl: Netlist) -> LatencyInfo:
    """Pipelined: common register depth of the output bits.
    Combinational: worst levelized depth over the output bits."""
    an = analyze(nl)
    if nl.pipelined:
        depths = {an.register_depth(bit) for bit in nl.output_p}
        if len(depths) != 1:
            raise NetlistError(f"output bits disagree on register depth: {sorted(depths)}")
        return LatencyInfo(pipelined=True, cycles=depths.pop())
    worst = max(an.depth[bit.id] for bit in nl.output_p)
    return LatencyInfo(pipelined=False, gate_units=worst)
