import hashlib

import pytest

from csmulgen.cli import main
from csmulgen.mulgen import GeneratorConfig, generate_multiplier, generate_with_annotations
from csmulgen.netlist import CODE, FULL_ADDER, compute_latency, validate
from csmulgen.sim import SimError, random_pairs, simulate, verify_pairs, verify_random
from csmulgen.tbgen import emit_testbench


def test_generate_vectors_deterministic():
    assert random_pairs(8, 8, 20, seed=5) == random_pairs(8, 8, 20, seed=5)
    assert random_pairs(8, 8, 20, seed=5) != random_pairs(8, 8, 20, seed=6)


def test_seed_6400_first_vector():
    assert random_pairs(8, 8, 1, seed=6400) == [(53, 23)]


@pytest.mark.parametrize("caller", [
    lambda report, count, seed: random_pairs(4, 4, count, seed),
    verify_random,
], ids=["random_pairs", "verify_random"])
def test_negative_count_is_rejected(caller):
    report = validate(generate_multiplier(GeneratorConfig(4, 4, False)))
    with pytest.raises(ValueError, match="count must be >= 0"):
        caller(report, -3, 1)


@pytest.mark.parametrize("pair", [(4, 0), (-1, 3), (3, -1)])
def test_plan_pairs_that_do_not_fit_raise_sim_error(pair):
    """A pair that is negative or wider than its port is refused by the
    one range check, `sim.check_pairs`, before any simulation or text."""
    report = validate(generate_multiplier(GeneratorConfig(2, 2, False)))
    for stage in (lambda pairs: verify_pairs(report, pairs, "testbench"),
                  lambda pairs: emit_testbench(report, pairs)):
        with pytest.raises(SimError, match=rf"^pair {pair[0]} x {pair[1]} does not fit"):
            stage([pair])


def test_verify_random_and_self_check_name_the_same_failing_pair(tmp_path, monkeypatch,
                                                                capsys, swap_outputs):
    # One seed gives one pair stream, so random verification and the
    # `--verify off` check of the testbench's own pairs blame the same pair.
    import csmulgen.cli as cli_mod
    nl, passes = generate_with_annotations(GeneratorConfig(6, 6, False))
    swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    monkeypatch.setattr(cli_mod, "generate_with_annotations", lambda cfg: (nl, passes))
    report = verify_random(validate(nl), 64, 3)
    assert not report.passed
    c = report.counterexample
    for mode in ("random", "off"):
        assert main(["--width-a", "6", "--width-b", "6", "--verify", mode,
                     "--tests", "64", "--seed", "3", "--out-dir", str(tmp_path)]) == 3
        assert f"FAIL: {c['a']} x {c['b']} expected" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def waittime(text):
    """The `waittime` constant an emitted testbench declares."""
    (line,) = [line for line in text.splitlines() if "constant waittime" in line]
    return int(line.rsplit(":=", 1)[1].rstrip(";"))


def test_wait_time_combinational():
    report = validate(generate_multiplier(GeneratorConfig(8, 8, False)))
    text = emit_testbench(report, random_pairs(8, 8, 5, 1))
    assert waittime(text) == compute_latency(report).gate_units + 1


def test_wait_time_pipelined_counts_cycles():
    report = validate(generate_multiplier(GeneratorConfig(8, 8, True)))
    text = emit_testbench(report, random_pairs(8, 8, 5, 1))
    assert waittime(text) == compute_latency(report).cycles + 1


def test_testbench_text_structure():
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    pairs = random_pairs(8, 8, 10, seed=6400)
    text = emit_testbench(validate(nl), pairs)
    assert "entity mul_8x8_tb is" in text
    assert '"00110101"' in text
    assert '"00010111"' in text
    assert "1219" in text
    assert text.count("assert") == 2 * len(pairs)
    assert "TESTBENCH OK" in text


def test_testbench_integer_reporting_only_when_narrow():
    narrow = generate_multiplier(GeneratorConfig(8, 8, False))
    wide = generate_multiplier(GeneratorConfig(20, 20, False))
    t_narrow = emit_testbench(validate(narrow), random_pairs(8, 8, 3, seed=1))
    t_wide = emit_testbench(validate(wide), random_pairs(20, 20, 3, seed=1))
    assert "vec2int" in t_narrow
    assert "vec2int" not in t_wide  # 40-bit product exceeds integer range


def test_pipelined_testbench_has_clock():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    text = emit_testbench(validate(nl), random_pairs(4, 4, 4, seed=1))
    assert "clk" in text
    assert "10 ns" in text


def test_testbench_grid_digest():
    # One sha256 over the testbench text of every n, k in 1..8 in both
    # modes, plus 15x16 and 16x16, which sit on either side of
    # INTEGER_REPORT_BITS: integer reports below it, hex reports above.
    h = hashlib.sha256()
    widths = [(n, k) for n in range(1, 9) for k in range(1, 9)] + [(15, 16), (16, 16)]
    for n, k in widths:
        for pipelined in (False, True):
            report = validate(generate_multiplier(GeneratorConfig(n, k, pipelined)))
            h.update(emit_testbench(report, random_pairs(n, k, 5, seed=1)).encode("utf-8"))
    assert h.hexdigest() == "28d9d11a4972ef3ea1091d4b3dfdce6b0a9e1d687dbf6bb8d760a13a0b8dbf5b"


def test_testbench_emission_deterministic():
    report = validate(generate_multiplier(GeneratorConfig(5, 7, True)))
    a = emit_testbench(report, random_pairs(5, 7, 12, seed=9))
    b = emit_testbench(report, random_pairs(5, 7, 12, seed=9))
    assert a == b


def fa_index(nl, nth):
    """Index of the netlist's nth full adder."""
    return [i for i, p in enumerate(nl.primitives) if p.kind == FULL_ADDER][nth]


def first_failure_per_vector(report, pairs):
    """The per-vector reference: index of the first vector the simulator gets wrong."""
    return next((idx for idx, (a, b) in enumerate(pairs)
                 if simulate(report, [(a, b)])[0] != a * b), None)


@pytest.mark.parametrize("n,k,pipe", [(8, 8, True), (5, 11, True), (13, 13, False)])
def test_lane_parallel_self_check_agrees_with_per_vector_runs(n, k, pipe, swap_outputs):
    """`--verify off` checks the testbench's pairs as lanes of one
    simulation, `verify_random` over the same seeded stream; it names the
    vector that one-pair runs find first."""
    good = validate(generate_multiplier(GeneratorConfig(n, k, pipe)))
    pairs = random_pairs(n, k, 40, seed=5)
    assert first_failure_per_vector(good, pairs) is None
    assert verify_random(good, 40, 5).passed
    for nth in (0, 3, -1):
        bad = generate_multiplier(GeneratorConfig(n, k, pipe))
        swap_outputs(bad, fa_index(bad, nth))
        bad_report = validate(bad)
        idx = first_failure_per_vector(bad_report, pairs)
        assert idx is not None
        report = verify_random(bad_report, 40, 5)
        assert report.tested == idx
        assert report.counterexample["got"] == simulate(bad_report, [pairs[idx]])[0]


def test_pipelined_fault_names_first_failing_vector(swap_outputs):
    nl = generate_multiplier(GeneratorConfig(6, 6, True))
    swap_outputs(nl, fa_index(nl, 0))
    report = validate(nl)
    idx = first_failure_per_vector(report, random_pairs(6, 6, 64, seed=3))
    assert idx is not None
    assert verify_random(report, 64, 3).tested == idx
