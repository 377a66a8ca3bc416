import hashlib
import pathlib

import pytest

from csmulgen.cli import main
from csmulgen.mulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import AND2, Netlist
from csmulgen.vhdl import (
    CHUNK_LINES, EmissionError, check_identifier, default_entity_name, emit_vhdl, iter_vhdl,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_default_entity_names():
    assert default_entity_name(generate_multiplier(GeneratorConfig(2, 2, False))) == "mul_2x2"
    assert default_entity_name(generate_multiplier(GeneratorConfig(8, 8, True))) == "mul_8x8_p"


def test_name_signals_ports_and_ordinals():
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    lines = emit_vhdl(nl).splitlines()
    assert "  s1 <= x(0) and y(1);" in lines  # input_a[0] and input_b[1]
    internal = [line.split()[1] for line in lines if line.startswith("  signal ")]
    assert internal == [f"s{i}" for i in range(len(internal))]


def test_identifier_rules():
    check_identifier("mul_4x4")
    for bad in ("signal", "2abc", "a__b", "trailing_", "", "a-b"):
        with pytest.raises(EmissionError):
            check_identifier(bad)


def test_emission_is_deterministic():
    cfg = GeneratorConfig(5, 3, True)
    one = emit_vhdl(generate_multiplier(cfg))
    two = emit_vhdl(generate_multiplier(cfg))
    assert one == two


def test_emit_rejects_invalid_netlist():
    nl = Netlist.create(1, 1)
    (s,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    nl.output_p = [s, nl.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError):
        emit_vhdl(nl)


def test_golden_2x2():
    text = emit_vhdl(generate_multiplier(GeneratorConfig(2, 2, False)))
    assert text == (GOLDENS / "mul_2x2.vhd").read_text()


def test_golden_8x8_pipelined():
    text = emit_vhdl(generate_multiplier(GeneratorConfig(8, 8, True)))
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
    text = emit_vhdl(generate_multiplier(GeneratorConfig(*widths, pipelined)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_combinational_entity_has_no_clock_port():
    text = emit_vhdl(generate_multiplier(GeneratorConfig(3, 3, False)))
    assert "clk" not in text
    assert "rising_edge" not in text
    assert "process" not in text


def test_pipelined_entity_has_clock_and_processes():
    text = emit_vhdl(generate_multiplier(GeneratorConfig(3, 3, True)))
    assert "clk : in std_logic" in text
    assert "rising_edge(clk)" in text


def test_custom_entity_name():
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    text = emit_vhdl(nl, entity_name="my_mult")
    assert "entity my_mult is" in text
    assert "end entity my_mult;" in text


def test_wide_output_bits_all_driven():
    nl = generate_multiplier(GeneratorConfig(6, 2, False))
    text = emit_vhdl(nl)
    for j in range(8):
        assert f"p({j}) <=" in text


def test_output_uses_lf_and_ends_with_newline():
    text = emit_vhdl(generate_multiplier(GeneratorConfig(2, 2, False)))
    assert "\r" not in text
    assert text.endswith("\n")


@pytest.mark.parametrize("widths, pipelined", [((64, 64), False), ((32, 32), True)])
def test_design_text_comes_in_chunks_of_whole_lines(widths, pipelined):
    nl = generate_multiplier(GeneratorConfig(*widths, pipelined))
    chunks = list(iter_vhdl(nl))
    assert len(chunks) >= 2
    for chunk in chunks:
        assert chunk.endswith("\n")
        assert chunk.count("\n") <= CHUNK_LINES
    # Every chunk but the last is full.
    assert {chunk.count("\n") for chunk in chunks[:-1]} == {CHUNK_LINES}


def test_emit_checks_before_the_first_chunk():
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    with pytest.raises(EmissionError, match="not a legal VHDL basic identifier"):
        iter_vhdl(nl, entity_name="signal")
    bad = Netlist.create(1, 1)
    (s,) = bad.add_primitive(AND2, [bad.input_a[0], bad.input_b[0]])
    bad.output_p = [s, bad.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError, match="no driver"):
        iter_vhdl(bad)


def test_cli_writes_the_emitted_bytes(tmp_path):
    """The CLI writes the design chunk by chunk; the file holds exactly
    the text `emit_vhdl` returns, over more than one chunk."""
    assert main(["--width-a", "32", "--width-b", "32", "--pipeline", "--tests", "4",
                 "--out-dir", str(tmp_path)]) == 0
    nl = generate_multiplier(GeneratorConfig(32, 32, True))
    want = emit_vhdl(nl).encode("utf-8")
    assert want.count(b"\n") > CHUNK_LINES
    assert (tmp_path / "mul_32x32_p.vhd").read_bytes() == want
