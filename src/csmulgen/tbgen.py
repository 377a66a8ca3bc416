"""Self-checking randomized VHDL testbench generation.

A plan is seeded random (a, b) operand pairs plus a wait.  Each pair
gets a wait-for-latency stimulus step and paired assert statements on
a*b: a severity-error report naming inputs/expected/got, and the
inverted assert printing a success note.  The CLI's verification
simulates `max(100, --tests)` pairs from the same seeded stream, so a
plan's pairs are among those it has just checked; `self_check_plan`
simulates a plan itself where nothing else did, so emitted testbenches
are known-passing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Netlist, ValidationReport, compute_latency, validate
from .sim import check_pairs, random_pairs, verify_pairs
from .vhdl import INDENT, check_identifier, default_entity_name

CLOCK_PERIOD = 10  # time units per clock cycle, pipelined only

# integer'image works on 32-bit signed integers only; wider products are
# compared as bit-string literals and reported in hex.
INTEGER_REPORT_BITS = 31


class PlanError(Exception):
    pass


@dataclass(slots=True)
class TestbenchPlan:
    """(a, b) pairs in stimulus order, and the wait before each assert."""

    pairs: list
    wait_time: int


def make_plan(nl: Netlist, count: int, seed: int, *,
              report: ValidationReport | None = None) -> TestbenchPlan:
    """`count` seeded pairs from `random_pairs`, and a wait one past the
    circuit's latency.  `report` is passed on to `compute_latency`."""
    pairs = random_pairs(nl.width_a, nl.width_b, count, seed)
    latency = compute_latency(nl, report=report)
    wait = latency.cycles if nl.pipelined else latency.gate_units
    return TestbenchPlan(pairs=pairs, wait_time=wait + 1)


def self_check_plan(nl: Netlist, plan: TestbenchPlan, *,
                    report: ValidationReport | None = None) -> bool:
    """Check every product a*b against the gate-level simulator, all
    pairs as lanes of one simulation.  Raises PlanError on any mismatch,
    naming the first failing vector, or when a pipelined plan waits
    fewer cycles than its latency, so its asserts would not see their
    own vector.  A pair that does not fit the ports raises SimError.
    Validates `nl` once unless given its `report`."""
    if report is None:
        report = validate(nl)
    latency = compute_latency(nl, report=report).cycles or 0
    if plan.wait_time < latency:
        raise PlanError(f"wait time of {plan.wait_time} cycles is shorter than "
                        f"the latency of {latency} cycles")
    checked = verify_pairs(nl, plan.pairs, "testbench", report=report)
    if not checked.passed:
        c = checked.counterexample
        raise PlanError(f"vector {checked.tested}: circuit computes {c['got']}, "
                        f"expected {c['expected']} for {c['a']}x{c['b']}")
    return True


def emit_testbench(nl: Netlist, plan: TestbenchPlan, *,
                   entity_name: str | None = None) -> str:
    """Render the self-checking testbench as one VHDL design unit for the
    entity `entity_name`, or else `default_entity_name(nl)`.  A pair
    that does not fit the ports raises SimError."""
    check_pairs(nl, plan.pairs)

    entity = default_entity_name(nl) if entity_name is None else entity_name
    check_identifier(entity)
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
    lines.append(f"{ind}constant waittime : integer := {plan.wait_time};")
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
    for a, b in plan.pairs:
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
