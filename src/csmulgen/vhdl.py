"""Structural VHDL emission.

One design unit per netlist: an entity with x/y/p vector ports (plus
clk when registered) and an architecture with one concurrent statement
group per primitive.  Adders become inline boolean expressions, flip
flops become one clocked process each, constant outputs are assigned
'0' in place.  Output text is byte-deterministic.
"""

from __future__ import annotations

import re

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
    """Render the netlist as one synthesizable VHDL design unit, named
    `entity_name` or else `default_entity_name(nl)`.

    `report` is `validate(nl)` when the caller already has it; without
    one the netlist is validated here.  A report with errors is refused,
    and so is a report of another netlist (NetlistError, through
    `analysis_for`).
    """
    if report is None:
        report = validate(nl)
    if not report.is_valid():
        msgs = "; ".join(f.message for f in report.errors)
        raise EmissionError(f"refusing to emit an invalid netlist: {msgs}")
    analysis_for(nl, report.analysis)

    entity = entity_name or default_entity_name(nl)
    check_identifier(entity)
    ind = INDENT
    t, named = _signal_text(nl)

    lines = []
    lines.append("library ieee;")
    lines.append("use ieee.std_logic_1164.all;")
    lines.append("")
    lines.append(f"entity {entity} is")
    lines.append(f"{ind}port (")
    ports = [
        f"x : in std_logic_vector({nl.width_a - 1} downto 0)",
        f"y : in std_logic_vector({nl.width_b - 1} downto 0)",
    ]
    if nl.clock is not None:
        ports.append("clk : in std_logic")
    ports.append(f"p : out std_logic_vector({nl.width_a + nl.width_b - 1} downto 0)")
    for i, port in enumerate(ports):
        sep = ";" if i < len(ports) - 1 else ""
        lines.append(f"{ind}{ind}{port}{sep}")
    lines.append(f"{ind});")
    lines.append(f"end entity {entity};")
    lines.append("")
    lines.append(f"architecture structural of {entity} is")
    lines.extend(f"{ind}signal s{i} : std_logic;" for i in range(named))
    lines.append("begin")

    ind2, ind3 = ind * 2, ind * 3
    for prim in nl.primitives:
        kind, ins, outs = prim.kind, prim.inputs, prim.outputs
        if kind == AND2:
            lines.append(f"{ind}{t[outs[0]]} <= {t[ins[0]]} and {t[ins[1]]};")
        elif kind == HALF_ADDER:
            a, b = t[ins[0]], t[ins[1]]
            lines.append(f"{ind}{t[outs[0]]} <= {a} xor {b};\n"
                         f"{ind}{t[outs[1]]} <= {a} and {b};")
        elif kind == FULL_ADDER:
            a, b, c = t[ins[0]], t[ins[1]], t[ins[2]]
            lines.append(f"{ind}{t[outs[0]]} <= {a} xor {b} xor {c};\n"
                         f"{ind}{t[outs[1]]} <= ({a} and {b}) or "
                         f"({a} and {c}) or ({b} and {c});")
        elif kind == DFF:
            lines.append(f"{ind}process (clk)\n{ind}begin\n"
                         f"{ind2}if rising_edge(clk) then\n"
                         f"{ind3}{t[outs[0]]} <= {t[ins[0]]};\n"
                         f"{ind2}end if;\n{ind}end process;")

    for j, bit in enumerate(nl.output_p):
        lines.append(f"{ind}p({j}) <= {t[bit]};")
    lines.append(f"end architecture structural;")
    lines.append("")
    return "\n".join(lines)
