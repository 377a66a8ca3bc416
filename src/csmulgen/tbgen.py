"""Self-checking randomized VHDL testbench generation.

A testbench is its (a, b) operand pairs: each pair gets a stimulus
step, a wait one past the circuit's latency, and paired assert
statements on a*b: a severity-error report naming inputs/expected/got,
and the inverted assert printing a success note.  The CLI draws the
pairs with `sim.random_pairs` and simulates them before any file is
written (every `--verify` mode checks them), so an emitted testbench
is known-passing.
"""

from __future__ import annotations

from .netlist import ValidationReport, compute_latency
from .sim import check_pairs
from .vhdl import INDENT, check_identifier, default_entity_name

CLOCK_PERIOD = 10  # time units per clock cycle, pipelined only

# integer'image works on 32-bit signed integers only; wider products are
# compared as bit-string literals and reported in hex.
INTEGER_REPORT_BITS = 31


def emit_testbench(report: ValidationReport, pairs, *,
                   entity_name: str | None = None) -> str:
    """Render the self-checking testbench for `pairs`, in stimulus order,
    for the netlist of `report`, `validate(nl)`, as one VHDL design unit
    for the entity `entity_name`, or else `default_entity_name(nl)`.
    Each assert waits one past the latency, in cycles when pipelined and
    gate units otherwise, that `compute_latency` reads from `report`.
    A pair that does not fit the ports raises SimError."""
    nl = report.netlist
    check_pairs(nl, pairs)

    entity = default_entity_name(nl) if entity_name is None else entity_name
    check_identifier(entity)
    latency = compute_latency(report)
    wait = (latency.cycles if nl.pipelined else latency.gate_units) + 1
    tb = f"{entity}_tb"
    ind = INDENT
    n, k = nl.width_a, nl.width_b
    wide = n + k > INTEGER_REPORT_BITS

    lines = []
    lines.append("library ieee;")
    lines.append("use ieee.std_logic_1164.all;")
    lines.append("")
    lines.append(f"entity {tb} is")
    lines.append(f"end entity {tb};")
    lines.append("")
    lines.append(f"architecture bench of {tb} is")
    lines.append(f"{ind}signal sx : std_logic_vector({n - 1} downto 0);")
    lines.append(f"{ind}signal sy : std_logic_vector({k - 1} downto 0);")
    lines.append(f"{ind}signal sp : std_logic_vector({n + k - 1} downto 0);")
    if nl.pipelined:
        lines.append(f"{ind}signal clk : std_logic := '0';")
        lines.append(f"{ind}signal done : boolean := false;")
    lines.append(f"{ind}constant waittime : integer := {wait};")
    if not wide:
        lines.append(f"{ind}function vec2int(v : std_logic_vector) return integer is")
        lines.append(f"{ind}{ind}variable r : integer := 0;")
        lines.append(f"{ind}begin")
        lines.append(f"{ind}{ind}for i in v'high downto v'low loop")
        lines.append(f"{ind}{ind}{ind}r := r * 2;")
        lines.append(f"{ind}{ind}{ind}if v(i) = '1' then")
        lines.append(f"{ind}{ind}{ind}{ind}r := r + 1;")
        lines.append(f"{ind}{ind}{ind}end if;")
        lines.append(f"{ind}{ind}end loop;")
        lines.append(f"{ind}{ind}return r;")
        lines.append(f"{ind}end function;")
    lines.append("begin")

    port_map = ["x => sx", "y => sy"]
    if nl.pipelined:
        port_map.append("clk => clk")
    port_map.append("p => sp")
    lines.append(f"{ind}uut : entity work.{entity}")
    lines.append(f"{ind}{ind}port map ({', '.join(port_map)});")
    lines.append("")
    if nl.pipelined:
        half = CLOCK_PERIOD // 2
        lines.append(f"{ind}clocking : process")
        lines.append(f"{ind}begin")
        lines.append(f"{ind}{ind}while not done loop")
        lines.append(f"{ind}{ind}{ind}clk <= '0';")
        lines.append(f"{ind}{ind}{ind}wait for {half} ns;")
        lines.append(f"{ind}{ind}{ind}clk <= '1';")
        lines.append(f"{ind}{ind}{ind}wait for {half} ns;")
        lines.append(f"{ind}{ind}end loop;")
        lines.append(f"{ind}{ind}wait;")
        lines.append(f"{ind}end process;")
        lines.append("")

    lines.append(f"{ind}stimulus : process")
    lines.append(f"{ind}begin")
    for a, b in pairs:
        lines.extend(_vector_block(nl, a, b, ind, wide))
    if nl.pipelined:
        lines.append(f"{ind}{ind}done <= true;")
    lines.append(f"{ind}{ind}wait;")
    lines.append(f"{ind}end process;")
    lines.append(f"end architecture bench;")
    lines.append("")
    return "\n".join(lines)


def _vector_block(nl, a, b, ind, wide):
    lines = []
    expected = a * b
    lines.append(f"{ind}{ind}-- input vector: {a}")
    lines.append(f'{ind}{ind}sx <= "{a:0{nl.width_a}b}";')
    lines.append(f"{ind}{ind}-- input vector: {b}")
    lines.append(f'{ind}{ind}sy <= "{b:0{nl.width_b}b}";')
    if nl.pipelined:
        lines.append(f"{ind}{ind}wait for waittime * {CLOCK_PERIOD} ns;")
    else:
        lines.append(f"{ind}{ind}wait for waittime * 1 ns;")
    lines.append(f"{ind}{ind}-- output: {expected}")
    if not wide:
        lines.append(f"{ind}{ind}assert (vec2int(sp) = {expected})")
        lines.append(f'{ind}{ind}{ind}report "TESTBENCH Output: " '
                     f"& integer'image(vec2int(sp))")
        lines.append(f'{ind}{ind}{ind}{ind}& " Expected: " '
                     f"& integer'image({expected})")
        lines.append(f"{ind}{ind}{ind}severity error;")
        lines.append(f"{ind}{ind}assert (vec2int(sp) /= {expected})")
        lines.append(f'{ind}{ind}{ind}report "TESTBENCH OK" severity note;')
    else:
        bits = f"{expected:0{nl.width_a + nl.width_b}b}"
        hexstr = format(expected, "x")
        lines.append(f'{ind}{ind}assert (sp = "{bits}")')
        lines.append(f'{ind}{ind}{ind}report "TESTBENCH Expected (hex): {hexstr}"')
        lines.append(f"{ind}{ind}{ind}severity error;")
        lines.append(f'{ind}{ind}assert (sp /= "{bits}")')
        lines.append(f'{ind}{ind}{ind}report "TESTBENCH OK" severity note;')
    return lines
