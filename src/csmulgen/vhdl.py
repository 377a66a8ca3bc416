"""Structural VHDL emission.

One design unit per netlist: an entity with x/y/p vector ports (plus
clk when registered) and an architecture with one concurrent statement
group per primitive.  Adders become inline boolean expressions, flip
flops one clocked process each.  One walk writes the primitives in
stored order and names each signal at its driver: port bits x(i)/y(i),
the clock clk, each AND, adder or flip-flop output s<ordinal> in that
order, a constant output the literal '0'.  `validate` refuses a read
before its driver, so every name is set before a line reads it.  The
declarations and the s<ordinal> names are built a block of 1000
ordinals at a time, from a table of the block's name tails.  Output
text is byte-deterministic.  `iter_vhdl` yields it in chunks of lines,
so a writer never holds the whole text; `emit_vhdl` joins them.
"""

from __future__ import annotations

import re
from itertools import chain, count, islice, repeat

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
    return _chunks(nl, entity)


def _chunks(nl: Netlist, entity: str):
    """The design text in chunks of CHUNK_LINES lines, the last one
    shorter: the head, the signal declarations cut where a chunk ends,
    then the body.  Each chunk is joined once, its last line end
    included."""
    tails = _tails()
    kinds = nl.kinds
    named = (len(kinds) - kinds.count(_CONST0)
             + kinds.count(_HALF_ADDER) + kinds.count(_FULL_ADDER))
    batch, lo, lines = _head(nl, entity), 0, _body(nl, tails)
    while True:
        room = CHUNK_LINES - len(batch)
        if lo < named:
            hi = min(named, lo + room)
            batch.append(_declarations(lo, hi, tails))
            room, lo = room - (hi - lo), hi
        batch += islice(lines, room)
        if not batch:
            return
        batch.append("")
        yield "\n".join(batch)
        batch = []


def _tails():
    """The name tails of a block of 1000 ordinals: plain for block 0,
    whose names run s0 to s999, and three digits for every later block.
    Built per call, not at import."""
    return list(map(str, range(1000))), [f"{i:03}" for i in range(1000)]


def _block(p: int, tails):
    """Block p of 1000 ordinals as its name prefix and its tails: the
    name of ordinal 1000p + i is prefix + tail[i]."""
    return (f"s{p}", tails[1]) if p else ("s", tails[0])


def _declarations(lo: int, hi: int, tails) -> str:
    """The declaration lines of ordinals lo <= i < hi, lo < hi, joined by
    line ends without a last one: one join per block of 1000 ordinals."""
    text = []
    for p in range(lo // 1000, (hi - 1) // 1000 + 1):
        prefix, tail = _block(p, tails)
        head = f"{INDENT}signal {prefix}"
        part = tail[max(lo - 1000 * p, 0):hi - 1000 * p]
        text.append(head + f" : std_logic;\n{head}".join(part) + " : std_logic;")
    return "\n".join(text)


def _names(tails):
    """Every signal name s0, s1, ... in ordinal order, block by block."""
    blocks = map(_block, count(), repeat(tails))
    return chain.from_iterable(map(prefix.__add__, tail) for prefix, tail in blocks)


def _head(nl: Netlist, entity: str) -> list:
    """The lines before the signal declarations."""
    ind = INDENT
    ports = [
        f"x : in std_logic_vector({nl.width_a - 1} downto 0)",
        f"y : in std_logic_vector({nl.width_b - 1} downto 0)",
    ]
    if nl.clock is not None:
        ports.append("clk : in std_logic")
    ports.append(f"p : out std_logic_vector({nl.width_a + nl.width_b - 1} downto 0)")
    return [
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "",
        f"entity {entity} is",
        f"{ind}port (",
        *[f"{ind}{ind}{port};" for port in ports[:-1]],
        f"{ind}{ind}{ports[-1]}",
        f"{ind});",
        f"end entity {entity};",
        "",
        f"architecture structural of {entity} is",
    ]


def _body(nl: Netlist, tails):
    """The lines after the signal declarations, without line ends."""
    ind = INDENT
    t = [""] * nl.signal_count  # each signal's VHDL text, by signal id
    for port, bits in (("x", nl.input_a), ("y", nl.input_b)):
        for i, sig in enumerate(bits):
            t[sig] = f"{port}({i})"
    if nl.clock is not None:
        t[nl.clock] = "clk"
    yield "begin"

    ind2, ind3 = ind * 2, ind * 3
    process_open = f"{ind}process (clk)", f"{ind}begin", f"{ind2}if rising_edge(clk) then"
    process_close = f"{ind2}end if;", f"{ind}end process;"
    name = _names(tails).__next__
    it = iter(nl.pins)
    for k, i0, i1, i2, o0, o1 in zip(nl.kinds, it, it, it, it, it):
        if k == _CONST0:
            t[o0] = "'0'"
            continue
        t[o0] = s = name()
        if k == _AND2:
            yield f"{ind}{s} <= {t[i0]} and {t[i1]};"
        elif k == _DFF:
            yield from process_open
            yield f"{ind3}{s} <= {t[i0]};"
            yield from process_close
        else:
            t[o1] = c = name()
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
