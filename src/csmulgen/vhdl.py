"""Structural VHDL emission.

One design unit per netlist: an entity with x/y/p vector ports (plus
clk when registered) and an architecture with one concurrent statement
group per primitive.  Adders become inline boolean expressions, flip
flops one clocked process each.  One walk writes the primitives in
stored order and names each signal at its driver: port bits x(i)/y(i),
the clock clk, each AND, adder or flip-flop output s<ordinal> in that
order, a constant output the literal '0'.  `validate` refuses a read
before its driver, so every name is set before a line reads it.
Output text is byte-deterministic.  `iter_vhdl` yields it in chunks of
lines, so a writer never holds the whole text; `emit_vhdl` joins them.
"""

from __future__ import annotations

import re
from itertools import islice

from .netlist import (
    _AND2, _CONST0, _DFF, _FULL_ADDER, _HALF_ADDER, Netlist, ValidationReport,
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

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
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
    if not _IDENT_RE.fullmatch(name) or name.lower() in RESERVED_WORDS or "__" in name \
            or name.endswith("_"):
        raise EmissionError(f"{name!r} is not a legal VHDL basic identifier")


def emit_vhdl(report: ValidationReport, *, entity_name: str | None = None) -> str:
    """The whole design text: the join of `iter_vhdl`'s chunks."""
    return "".join(iter_vhdl(report, entity_name=entity_name))


def iter_vhdl(report: ValidationReport, *, entity_name: str | None = None):
    """Render the netlist of `report`, `validate(nl)`, as one
    synthesizable VHDL design unit, named `entity_name` or else
    `default_entity_name(nl)`, as an iterator of text chunks of at most
    CHUNK_LINES lines, each ending in a newline.

    A report with errors is refused, and so is an illegal entity name.
    These checks run when `iter_vhdl` is called, before any chunk is
    asked for.
    """
    if not report.is_valid():
        msgs = "; ".join(f.message for f in report.errors)
        raise EmissionError(f"refusing to emit an invalid netlist: {msgs}")
    nl = report.netlist
    entity = default_entity_name(nl) if entity_name is None else entity_name
    check_identifier(entity)
    return _chunks(_lines(nl, entity))


def _chunks(lines):
    while batch := list(islice(lines, CHUNK_LINES)):
        yield "\n".join(batch) + "\n"


def _lines(nl: Netlist, entity: str):
    """The design text, one line at a time, without line ends."""
    ind = INDENT
    kinds = nl.kinds
    t = [""] * nl.signal_count  # each signal's VHDL text, by signal id
    for port, bits in (("x", nl.input_a), ("y", nl.input_b)):
        for i, sig in enumerate(bits):
            t[sig] = f"{port}({i})"

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
        t[nl.clock] = "clk"
        ports.append("clk : in std_logic")
    ports.append(f"p : out std_logic_vector({nl.width_a + nl.width_b - 1} downto 0)")
    for i, port in enumerate(ports):
        sep = ";" if i < len(ports) - 1 else ""
        yield f"{ind}{ind}{port}{sep}"
    yield f"{ind});"
    yield f"end entity {entity};"
    yield ""
    yield f"architecture structural of {entity} is"
    named = (len(kinds) - kinds.count(_CONST0)
             + kinds.count(_HALF_ADDER) + kinds.count(_FULL_ADDER))
    for i in range(named):
        yield f"{ind}signal s{i} : std_logic;"
    yield "begin"

    ind2, ind3 = ind * 2, ind * 3
    process_open = f"{ind}process (clk)", f"{ind}begin", f"{ind2}if rising_edge(clk) then"
    process_close = f"{ind2}end if;", f"{ind}end process;"
    n = 0
    it = iter(nl.pins)
    for k, i0, i1, i2, o0, o1 in zip(kinds, it, it, it, it, it):
        if k == _CONST0:
            t[o0] = "'0'"
            continue
        t[o0] = s = f"s{n}"
        n += 1
        if k == _AND2:
            yield f"{ind}{s} <= {t[i0]} and {t[i1]};"
        elif k == _DFF:
            yield from process_open
            yield f"{ind3}{s} <= {t[i0]};"
            yield from process_close
        else:
            t[o1] = c = f"s{n}"
            n += 1
            a, b = t[i0], t[i1]
            if k == _HALF_ADDER:
                yield f"{ind}{s} <= {a} xor {b};"
                yield f"{ind}{c} <= {a} and {b};"
            else:
                c_in = t[i2]
                yield f"{ind}{s} <= {a} xor {b} xor {c_in};"
                yield f"{ind}{c} <= ({a} and {b}) or ({a} and {c_in}) or ({b} and {c_in});"

    for j, bit in enumerate(nl.output_p):
        yield f"{ind}p({j}) <= {t[bit]};"
    yield "end architecture structural;"
