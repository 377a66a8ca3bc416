import hashlib
import pathlib
from itertools import islice

import pytest

from csmulgen.cli import main
from csmulgen.mulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER, Netlist, validate,
)
from csmulgen.vhdl import (
    CHUNK_LINES, EmissionError, _declarations, _names, _tails, check_identifier,
    default_entity_name, emit_vhdl, iter_vhdl,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_default_entity_names():
    assert default_entity_name(generate_multiplier(GeneratorConfig(2, 2, False))) == "mul_2x2"
    assert default_entity_name(generate_multiplier(GeneratorConfig(8, 8, True))) == "mul_8x8_p"


def test_name_signals_ports_and_ordinals():
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    lines = emit_vhdl(validate(nl)).splitlines()
    assert "  s1 <= x(0) and y(1);" in lines  # input_a[0] and input_b[1]
    internal = [line.split()[1] for line in lines if line.startswith("  signal ")]
    assert internal == [f"s{i}" for i in range(len(internal))]


def test_identifier_rules():
    check_identifier("mul_4x4")
    for bad in ("signal", "2abc", "a__b", "trailing_", "", "a-b", "abc\n"):
        with pytest.raises(EmissionError):
            check_identifier(bad)


def test_emission_is_deterministic():
    cfg = GeneratorConfig(5, 3, True)
    one = emit_vhdl(validate(generate_multiplier(cfg)))
    two = emit_vhdl(validate(generate_multiplier(cfg)))
    assert one == two


def test_emit_rejects_invalid_netlist(add_primitive):
    nl = Netlist.create(1, 1)
    (s,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    nl.output_p = [s, nl.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError):
        emit_vhdl(validate(nl))


def test_golden_2x2():
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(2, 2, False))))
    assert text == (GOLDENS / "mul_2x2.vhd").read_text()


def test_golden_8x8_pipelined():
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(8, 8, True))))
    assert text == (GOLDENS / "mul_8x8_p.vhd").read_text()


# sha256 of the emitted design, pinned beside the two goldens: degenerate
# one-bit operands, both operand orders, the pipelined layout at sizes
# with several reduction passes, and wide designs up to 256x256 (whose
# digest equals the one in perfbench/reference.json).
@pytest.mark.parametrize("widths, pipelined, digest", [
    ((1, 1), True, "630f897b81be7eaecd7c1769aaec45e131ac781e668c9df3eaff3ae555a9835d"),
    ((1, 7), True, "393ccb2f6af3153839dcaab263a75f476d42b7e47468cb6c5736bc9cebe77dde"),
    ((7, 1), True, "623fd052fd53764b88caf62f36f335b14bbf587d8af1f2502102d62c36cf2f9a"),
    ((3, 7), True, "570b3ce224d7fbdd3a69044e17701e977a83e1e19f513bee25350145176bfc50"),
    ((13, 13), True, "091237c5164f182e4f6e580263ed07653906b626796ae51dbc145427e3113fbf"),
    ((12, 20), True, "352b0137ee651451e89a362a5ae2a31aa072f8c5f40a457593cea9244964b26f"),
    ((3, 7), False, "d2db70784f713aea262dd4b466244355b52798a05d76a4da8d74868d3de45f30"),
    ((13, 13), False, "d2f3786519bc00e876a4d61663b5574e15eef2bf2159879aa9d87e02c9081152"),
    ((32, 32), True, "fc444c57e10ba07f4c25562793f92970cab984af8f3a50b431492531dfcbd3a2"),
    ((64, 64), False, "de045d48e5f26d877b4e02feff777fe4e3c63f5950ab8c28902a47353e11a22e"),
    ((256, 256), False, "3569dc615d214e2d27302acc00284d627c7d09452fcc1c980de10bce8145b814"),
])
def test_pinned_design_digest(widths, pipelined, digest):
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(*widths, pipelined))))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# Hand-built netlists that `validate` accepts, with naming corners no
# generated design has: adders and registers that read port bits, an
# output bit that reads a port bit, and a stored order that is not id
# order, where the s<n> ordinals and the signal ids diverge.
def _adders_read_ports(add_primitive, reorder):
    """2x2: a half and a full adder read port bits, and an AND reads a
    constant."""
    nl = Netlist.create(2, 2)
    (x0, x1), (y0, y1) = nl.input_a, nl.input_b
    (zero,) = add_primitive(nl, CONST0, [])
    s0, c0 = add_primitive(nl, HALF_ADDER, [x0, y0])
    s1, c1 = add_primitive(nl, FULL_ADDER, [x1, y1, c0])
    (top,) = add_primitive(nl, AND2, [x1, zero])
    nl.output_p = [s0, s1, c1, top]
    return nl


def _dffs_read_ports(add_primitive, reorder):
    """1x1 pipelined: registers read the port bits and a constant, and
    the clock's id comes after the ports."""
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (qa,) = add_primitive(nl, DFF, nl.input_a)
    (qb,) = add_primitive(nl, DFF, nl.input_b)
    (prod,) = add_primitive(nl, AND2, [qa, qb])
    (zero,) = add_primitive(nl, CONST0, [])
    (qz,) = add_primitive(nl, DFF, [zero])
    nl.output_p = [prod, qz]
    return nl


def _stored_out_of_id_order(add_primitive, reorder):
    """2x2, stored in a dependency order that is not id order, so the
    s<n> ordinals and the signal ids diverge; an output bit reads a
    port bit."""
    nl = Netlist.create(2, 2)
    (x0, x1), (y0, y1) = nl.input_a, nl.input_b
    (lo,) = add_primitive(nl, AND2, [x0, y0])
    (hi,) = add_primitive(nl, AND2, [x1, y0])
    (zero,) = add_primitive(nl, CONST0, [])
    s, c = add_primitive(nl, HALF_ADDER, [hi, zero])
    nl.output_p = [lo, s, c, y1]
    reorder(nl, [2, 1, 3, 0])
    return nl


@pytest.mark.parametrize("build, text", [
    (_adders_read_ports, """\
library ieee;
use ieee.std_logic_1164.all;

entity mul_2x2 is
  port (
    x : in std_logic_vector(1 downto 0);
    y : in std_logic_vector(1 downto 0);
    p : out std_logic_vector(3 downto 0)
  );
end entity mul_2x2;

architecture structural of mul_2x2 is
  signal s0 : std_logic;
  signal s1 : std_logic;
  signal s2 : std_logic;
  signal s3 : std_logic;
  signal s4 : std_logic;
begin
  s0 <= x(0) xor y(0);
  s1 <= x(0) and y(0);
  s2 <= x(1) xor y(1) xor s1;
  s3 <= (x(1) and y(1)) or (x(1) and s1) or (y(1) and s1);
  s4 <= x(1) and '0';
  p(0) <= s0;
  p(1) <= s2;
  p(2) <= s3;
  p(3) <= s4;
end architecture structural;
"""),
    (_dffs_read_ports, """\
library ieee;
use ieee.std_logic_1164.all;

entity mul_1x1_p is
  port (
    x : in std_logic_vector(0 downto 0);
    y : in std_logic_vector(0 downto 0);
    clk : in std_logic;
    p : out std_logic_vector(1 downto 0)
  );
end entity mul_1x1_p;

architecture structural of mul_1x1_p is
  signal s0 : std_logic;
  signal s1 : std_logic;
  signal s2 : std_logic;
  signal s3 : std_logic;
begin
  process (clk)
  begin
    if rising_edge(clk) then
      s0 <= x(0);
    end if;
  end process;
  process (clk)
  begin
    if rising_edge(clk) then
      s1 <= y(0);
    end if;
  end process;
  s2 <= s0 and s1;
  process (clk)
  begin
    if rising_edge(clk) then
      s3 <= '0';
    end if;
  end process;
  p(0) <= s2;
  p(1) <= s3;
end architecture structural;
"""),
    (_stored_out_of_id_order, """\
library ieee;
use ieee.std_logic_1164.all;

entity mul_2x2 is
  port (
    x : in std_logic_vector(1 downto 0);
    y : in std_logic_vector(1 downto 0);
    p : out std_logic_vector(3 downto 0)
  );
end entity mul_2x2;

architecture structural of mul_2x2 is
  signal s0 : std_logic;
  signal s1 : std_logic;
  signal s2 : std_logic;
  signal s3 : std_logic;
begin
  s0 <= x(1) and y(0);
  s1 <= s0 xor '0';
  s2 <= s0 and '0';
  s3 <= x(0) and y(0);
  p(0) <= s3;
  p(1) <= s1;
  p(2) <= s2;
  p(3) <= y(1);
end architecture structural;
"""),
], ids=["adders-read-ports", "dffs-read-ports", "stored-out-of-id-order"])
def test_hand_built_design_text(build, text, add_primitive, reorder):
    assert emit_vhdl(validate(build(add_primitive, reorder))) == text


def test_combinational_entity_has_no_clock_port():
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(3, 3, False))))
    assert "clk" not in text
    assert "rising_edge" not in text
    assert "process" not in text


def test_pipelined_entity_has_clock_and_processes():
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(3, 3, True))))
    assert "clk : in std_logic" in text
    assert "rising_edge(clk)" in text


def test_custom_entity_name():
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    text = emit_vhdl(validate(nl), entity_name="my_mult")
    assert "entity my_mult is" in text
    assert "end entity my_mult;" in text


def test_empty_entity_name_is_not_the_default():
    from csmulgen.tbgen import emit_testbench
    report = validate(generate_multiplier(GeneratorConfig(2, 2, False)))
    with pytest.raises(EmissionError, match="'' is not a legal"):
        emit_vhdl(report, entity_name="")
    with pytest.raises(EmissionError, match="'' is not a legal"):
        emit_testbench(report, [(1, 2)], entity_name="")


def test_wide_output_bits_all_driven():
    nl = generate_multiplier(GeneratorConfig(6, 2, False))
    text = emit_vhdl(validate(nl))
    for j in range(8):
        assert f"p({j}) <=" in text


def test_output_uses_lf_and_ends_with_newline():
    text = emit_vhdl(validate(generate_multiplier(GeneratorConfig(2, 2, False))))
    assert "\r" not in text
    assert text.endswith("\n")


@pytest.mark.parametrize("widths, pipelined", [((64, 64), False), ((32, 32), True)])
def test_design_text_comes_in_chunks_of_whole_lines(widths, pipelined):
    nl = generate_multiplier(GeneratorConfig(*widths, pipelined))
    chunks = list(iter_vhdl(validate(nl)))
    assert len(chunks) >= 2
    for chunk in chunks:
        assert chunk.endswith("\n")
        assert chunk.count("\n") <= CHUNK_LINES
    # Every chunk but the last is full.
    assert {chunk.count("\n") for chunk in chunks[:-1]} == {CHUNK_LINES}


def test_emit_checks_before_the_first_chunk(add_primitive):
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    with pytest.raises(EmissionError, match="not a legal VHDL basic identifier"):
        iter_vhdl(validate(nl), entity_name="signal")
    bad = Netlist.create(1, 1)
    (s,) = add_primitive(bad, AND2, [bad.input_a[0], bad.input_b[0]])
    bad.output_p = [s, bad.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError, match="no driver"):
        iter_vhdl(validate(bad))


def test_cli_writes_the_emitted_bytes(tmp_path):
    """The CLI writes the design chunk by chunk; the file holds exactly
    the text `emit_vhdl` returns, over more than one chunk."""
    assert main(["--width-a", "32", "--width-b", "32", "--pipeline", "--tests", "4",
                 "--out-dir", str(tmp_path)]) == 0
    nl = generate_multiplier(GeneratorConfig(32, 32, True))
    want = emit_vhdl(validate(nl)).encode("utf-8")
    assert want.count(b"\n") > CHUNK_LINES
    assert (tmp_path / "mul_32x32_p.vhd").read_bytes() == want


@pytest.mark.parametrize("lo, hi", [
    (0, 1), (0, 999), (0, 1000), (0, 1001), (999, 1001), (1000, 2000), (990, 3010),
    (9_990, 10_010), (99_990, 100_010), (5, 12_345),
])
def test_declaration_blocks_equal_plain_rendering(lo, hi):
    want = [f"  signal s{i} : std_logic;" for i in range(lo, hi)]
    assert _declarations(lo, hi, _tails()).split("\n") == want


def test_names_equal_plain_rendering():
    names = list(islice(_names(_tails()), 100_010))
    assert names == [f"s{i}" for i in range(100_010)]


HEAD_1X1 = [
    "library ieee;",
    "use ieee.std_logic_1164.all;",
    "",
    "entity mul_1x1 is",
    "  port (",
    "    x : in std_logic_vector(0 downto 0);",
    "    y : in std_logic_vector(0 downto 0);",
    "    p : out std_logic_vector(1 downto 0)",
    "  );",
    "end entity mul_1x1;",
    "",
    "architecture structural of mul_1x1 is",
]


# Named-signal counts at the edges of the block rendering: none, under
# one block, around a block edge, around the end of the first chunk's
# room for declarations, a last chunk that is exactly full, and
# declarations that fill two chunks exactly.
@pytest.mark.parametrize("named", [
    0, 1, 999, 1000, 1001, CHUNK_LINES - len(HEAD_1X1) - 1, CHUNK_LINES - len(HEAD_1X1),
    CHUNK_LINES - len(HEAD_1X1) + 1, CHUNK_LINES - 8, 2 * CHUNK_LINES - len(HEAD_1X1),
])
def test_declarations_cut_at_chunk_ends(named, add_primitive):
    """A 1x1 netlist of a constant and a chain of `named` ANDs: the
    design text equals its plain rendering, and every chunk but the
    last holds exactly CHUNK_LINES lines."""
    nl = Netlist.create(1, 1)
    (sig,) = add_primitive(nl, CONST0, [])
    for _ in range(named):
        (sig,) = add_primitive(nl, AND2, [sig, nl.input_b[0]])
    nl.output_p = [sig, nl.input_a[0]]
    names = [f"s{i}" for i in range(named)]
    reads = ["'0'", *names]
    want = [
        *HEAD_1X1,
        *(f"  signal {s} : std_logic;" for s in names),
        "begin",
        *(f"  {s} <= {r} and y(0);" for s, r in zip(names, reads)),
        f"  p(0) <= {reads[-1]};",
        "  p(1) <= x(0);",
        "end architecture structural;",
    ]
    chunks = list(iter_vhdl(validate(nl)))
    assert "".join(chunks).split("\n") == [*want, ""]
    assert len(chunks) == -(-len(want) // CHUNK_LINES)
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert [chunk.count("\n") for chunk in chunks[:-1]] == [CHUNK_LINES] * (len(chunks) - 1)
