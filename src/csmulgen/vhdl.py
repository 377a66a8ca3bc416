"""Structural VHDL emission.

One design unit per netlist: an entity with x/y/p vector ports (plus
clk when registered) and an architecture with one concurrent statement
group per primitive.  Adders become inline boolean expressions, flip
flops become one clocked process each, constant outputs are assigned
'0' in place.  Output text is byte-deterministic.  `iter_vhdl` yields
it in chunks of lines, so a writer never holds the whole text;
`emit_vhdl` joins them.
"""

from __future__ import annotations

import re
from itertools import islice

from .netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER,
    Netlist, ValidationReport, analysis_for, validate,
)

# VHDL-93 reserved words; emitted identifiers must avoid these.
RESERVED_WORDS = frozenset("""
abs access after alias all and architecture array assert attribute begin
block body buffer bus case component configuration constant disconnect
downto else elsif end entity exit file for function generate generic
group guarded if impure in inertial inout is label library linkage
literal loop map mod nand new next nor not null of on open or others
out package port postponed procedure process pure range record register
reject rem report return rol ror select severity shared signal sla sll
sra srl subtype then to transport type unaffected units until use
variable wait when while with xnor xor
""".split())

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
INDENT = "  "  # one level of nesting in emitted VHDL and testbench text
# Lines per chunk of design text.  A chunk is a few hundred kB whatever
# the design's size, so writing one costs far more than the call does,
# and a writer holds one chunk at a time, never the whole text.
CHUNK_LINES = 8192


class EmissionError(Exception):
    pass


def default_entity_name(nl: Netlist) -> str:
    suffix = "_p" if nl.pipelined else ""
    return f"mul_{nl.width_a}x{nl.width_b}{suffix}"


def check_identifier(name: str):
    if not _IDENT_RE.match(name) or name.lower() in RESERVED_WORDS or "__" in name \
            or name.endswith("_"):
        raise EmissionError(f"{name!r} is not a legal VHDL basic identifier")


def _signal_text(nl: Netlist):
    """Each signal's VHDL text, indexed by signal id, and the number of
    internal names.  Ports are x/y/p vector slices, the clock is clk,
    internal signals are s<ordinal> in primitive insertion order.
    Constant-driver outputs are the literal '0' at their use sites."""
    text = [""] * nl.signal_count
    for i, sig in enumerate(nl.input_a):
        text[sig] = f"x({i})"
    for i, sig in enumerate(nl.input_b):
        text[sig] = f"y({i})"
    if nl.clock is not None:
        text[nl.clock] = "clk"
    ordinal = 0
    for prim in nl.primitives:
        if prim.kind == CONST0:
            text[prim.outputs[0]] = "'0'"
            continue
        for out in prim.outputs:
            text[out] = f"s{ordinal}"
            ordinal += 1
    return text, ordinal


def emit_vhdl(nl: Netlist, *, entity_name: str | None = None,
              report: ValidationReport | None = None) -> str:
    """The whole design text: the join of `iter_vhdl`'s chunks."""
    return "".join(iter_vhdl(nl, entity_name=entity_name, report=report))


def iter_vhdl(nl: Netlist, *, entity_name: str | None = None,
              report: ValidationReport | None = None):
    """Render the netlist as one synthesizable VHDL design unit, named
    `entity_name` or else `default_entity_name(nl)`, as an iterator of
    text chunks of at most CHUNK_LINES lines, each ending in a newline.

    `report` is `validate(nl)` when the caller already has it; without
    one the netlist is validated here.  A report with errors is refused,
    and so is a report of another netlist (NetlistError, through
    `analysis_for`), and so is an illegal entity name.  These checks run
    when `iter_vhdl` is called, before any chunk is asked for.
    """
    if report is None:
        report = validate(nl)
    if not report.is_valid():
        msgs = "; ".join(f.message for f in report.errors)
        raise EmissionError(f"refusing to emit an invalid netlist: {msgs}")
    analysis_for(nl, report.analysis)
    entity = entity_name or default_entity_name(nl)
    check_identifier(entity)
    return _chunks(_lines(nl, entity))


def _chunks(lines):
    while batch := list(islice(lines, CHUNK_LINES)):
        yield "\n".join(batch) + "\n"


def _lines(nl: Netlist, entity: str):
    """The design text, one line at a time, without line ends."""
    ind = INDENT
    t, named = _signal_text(nl)

    yield "library ieee;"
    yield "use ieee.std_logic_1164.all;"
    yield ""
    yield f"entity {entity} is"
    yield f"{ind}port ("
    ports = [
        f"x : in std_logic_vector({nl.width_a - 1} downto 0)",
        f"y : in std_logic_vector({nl.width_b - 1} downto 0)",
    ]
    if nl.clock is not None:
        ports.append("clk : in std_logic")
    ports.append(f"p : out std_logic_vector({nl.width_a + nl.width_b - 1} downto 0)")
    for i, port in enumerate(ports):
        sep = ";" if i < len(ports) - 1 else ""
        yield f"{ind}{ind}{port}{sep}"
    yield f"{ind});"
    yield f"end entity {entity};"
    yield ""
    yield f"architecture structural of {entity} is"
    for i in range(named):
        yield f"{ind}signal s{i} : std_logic;"
    yield "begin"

    ind2, ind3 = ind * 2, ind * 3
    process_open = f"{ind}process (clk)", f"{ind}begin", f"{ind2}if rising_edge(clk) then"
    process_close = f"{ind2}end if;", f"{ind}end process;"
    for prim in nl.primitives:
        kind, ins, outs = prim.kind, prim.inputs, prim.outputs
        if kind == AND2:
            yield f"{ind}{t[outs[0]]} <= {t[ins[0]]} and {t[ins[1]]};"
        elif kind == HALF_ADDER:
            a, b = t[ins[0]], t[ins[1]]
            yield f"{ind}{t[outs[0]]} <= {a} xor {b};"
            yield f"{ind}{t[outs[1]]} <= {a} and {b};"
        elif kind == FULL_ADDER:
            a, b, c = t[ins[0]], t[ins[1]], t[ins[2]]
            yield f"{ind}{t[outs[0]]} <= {a} xor {b} xor {c};"
            yield f"{ind}{t[outs[1]]} <= ({a} and {b}) or ({a} and {c}) or ({b} and {c});"
        elif kind == DFF:
            yield from process_open
            yield f"{ind3}{t[outs[0]]} <= {t[ins[0]]};"
            yield from process_close

    for j, bit in enumerate(nl.output_p):
        yield f"{ind}p({j}) <= {t[bit]};"
    yield "end architecture structural;"
