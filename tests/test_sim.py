import pytest
from hypothesis import given, settings, strategies as st

from csmulgen.mulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import DFF, UnbalancedPathError, validate
from csmulgen.sim import (
    SimError, VerificationReport,
    simulate, verify_exhaustive, verify_pairs, verify_random,
)


def test_initial_state_settles_2x2_all_pairs():
    """One vector from reset is the one-lane case of `simulate`."""
    report = validate(generate_multiplier(GeneratorConfig(2, 2, False)))
    for a in range(4):
        for b in range(4):
            assert simulate(report, [(a, b)]) == [a * b]


def test_pipelined_output_appears_after_latency_cycles(reference_outputs):
    """A pair held on the ports gives its product from cycle L on, and
    the reference sees only the reset value before that."""
    from csmulgen.netlist import compute_latency
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    report = validate(nl)
    latency = compute_latency(report).cycles
    held = [(13, 11)] * (latency + 1)
    assert simulate(report, held) == [13 * 11] * (latency + 1)
    assert reference_outputs(nl, held, latency + 1) == [0] * latency + [13 * 11]


def test_pipeline_streams_one_result_per_cycle():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    feed = [(3, 5), (15, 15), (0, 9), (7, 7), (12, 1), (6, 13)]
    assert simulate(validate(nl), feed) == [a * b for a, b in feed]


def test_verify_exhaustive_4x4():
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    report = verify_exhaustive(validate(nl))
    assert report.passed
    assert report.tested == 256
    assert report.mode == "exhaustive"
    assert report.counterexample is None


def test_verify_exhaustive_pipelined_4x4():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    report = verify_exhaustive(validate(nl))
    assert report.passed and report.tested == 256


def test_verify_exhaustive_9x9_runs_every_chunk():
    """18 input bits are four chunks of 2**16 lanes."""
    report = verify_exhaustive(validate(generate_multiplier(GeneratorConfig(9, 9, False))))
    assert report == VerificationReport(passed=True, tested=2 ** 18, mode="exhaustive")


def test_verify_exhaustive_names_the_first_failure_past_the_first_chunk(set_pin):
    """The AND of a0 and b8 reads b7 instead, so a product is off by
    a0 * (b7 - b8) * 2**8.  Pair t is a = t & 511,
    b = t >> 9, and the first pair with a0 set and b7 != b8 lies in the
    second chunk."""
    from csmulgen.netlist import AND2
    nl = generate_multiplier(GeneratorConfig(9, 9, False))
    a0, b7, b8 = nl.input_a[0], nl.input_b[7], nl.input_b[8]
    idx = next(i for i, p in enumerate(nl.primitives)
               if p.kind == AND2 and set(p.inputs) == {a0, b8})
    set_pin(nl, idx, nl.primitives[idx].inputs.index(b8), b7)
    t = next(t for t in range(2 ** 18) if t & 1 and (t >> 16 ^ t >> 17) & 1)
    a, b = t & 511, t >> 9
    got = a * b + (a & 1) * ((b >> 7 & 1) - (b >> 8 & 1)) * 2 ** 8
    assert (t, a, b, a * b, got) == (65537, 1, 128, 128, 384)
    report = verify_exhaustive(validate(nl))
    assert report == VerificationReport(
        passed=False, tested=t, mode="exhaustive",
        counterexample={"a": a, "b": b, "expected": a * b, "got": got})


def test_verify_random_is_seed_deterministic():
    nl = generate_multiplier(GeneratorConfig(12, 12, False))
    report = validate(nl)
    r1 = verify_random(report, 50, seed=7)
    r2 = verify_random(report, 50, seed=7)
    assert r1.passed and r2.passed
    assert r1.tested == r2.tested == 50
    assert r1 == r2


def test_verify_random_different_seeds_allowed():
    nl = generate_multiplier(GeneratorConfig(10, 6, True))
    report = validate(nl)
    assert verify_random(report, 25, seed=1).passed
    assert verify_random(report, 25, seed=2).passed


def test_fault_injection_is_caught(swap_outputs):
    from csmulgen.netlist import CODE, FULL_ADDER
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    report = verify_exhaustive(validate(nl))
    assert not report.passed
    assert report.counterexample is not None
    ce = report.counterexample
    assert ce["got"] != ce["expected"]
    assert ce["expected"] == ce["a"] * ce["b"]


def test_report_text_mentions_counterexample(swap_outputs):
    from csmulgen.netlist import CODE, HALF_ADDER
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    swap_outputs(nl, nl.kinds.index(CODE[HALF_ADDER]))
    report = verify_exhaustive(validate(nl))
    assert not report.passed
    assert "expected" in report.to_text().lower()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 7), data=st.data())
def test_simulator_matches_python_product(n, k, data):
    a = data.draw(st.integers(0, 2 ** n - 1))
    b = data.draw(st.integers(0, 2 ** k - 1))
    nl = generate_multiplier(GeneratorConfig(n, k, False))
    assert simulate(validate(nl), [(a, b)]) == [a * b]


@pytest.mark.parametrize("n, k, drop", [
    (3, 3, False), (4, 4, False), (5, 7, False), (8, 8, False), (4, 4, True),
])
def test_streamed_pass_matches_step_cycle(n, k, drop, drop_dff, reference_outputs):
    """With a new input pair every cycle, product t of `simulate`, where
    registers are wires, is the output word of the scalar reference,
    stepped one clock cycle at a time, in cycle L + t, from cycle L on.
    A netlist with a register dropped is unbalanced, and refused."""
    import random
    from csmulgen.netlist import compute_latency
    nl = generate_multiplier(GeneratorConfig(n, k, True))
    rng = random.Random(n * 16 + k)
    feed = [(rng.getrandbits(n), rng.getrandbits(k)) for _ in range(40)]
    if drop:
        dffs = [i for i, p in enumerate(nl.primitives) if p.kind == DFF]
        drop_dff(nl, dffs[len(dffs) // 2])
        with pytest.raises(UnbalancedPathError):
            simulate(validate(nl), feed)
        return
    report = validate(nl)
    latency = compute_latency(report).cycles
    want = reference_outputs(nl, feed, latency + len(feed))[latency:]
    assert simulate(report, feed) == want


@pytest.mark.parametrize("n, k, nth", [(4, 4, 0), (4, 4, -1), (5, 7, 0), (5, 7, 7)])
def test_simulate_matches_reference_on_a_miswired_adder(n, k, nth, reference_outputs,
                                                       swap_outputs):
    """With a full adder's sum and carry swapped, `simulate` still
    returns what the circuit computes: the reference's output words at
    cycles L .. L + len(feed) - 1."""
    import random
    from csmulgen.netlist import FULL_ADDER, compute_latency
    nl = generate_multiplier(GeneratorConfig(n, k, True))
    swap_outputs(nl, [i for i, p in enumerate(nl.primitives) if p.kind == FULL_ADDER][nth])
    report = validate(nl)
    latency = compute_latency(report).cycles
    rng = random.Random(nth)
    feed = [(rng.getrandbits(n), rng.getrandbits(k)) for _ in range(30)]
    got = simulate(report, feed)
    assert got == reference_outputs(nl, feed, latency + len(feed))[latency:]
    assert got != [a * b for a, b in feed]


@pytest.mark.parametrize("n, k", [(4, 4), (5, 7), (3, 9)])
def test_registers_in_a_netlist_marked_combinational_never_pass(n, k):
    """Registers are wires in simulation, so a pipelined netlist flagged
    combinational must be refused: its outputs carry L registers, not 0."""
    nl = generate_multiplier(GeneratorConfig(n, k, True))
    nl.pipelined = False
    report = validate(nl)
    checks = [verify_exhaustive, lambda rep: verify_random(rep, 20, seed=1),
              lambda rep: simulate(rep, [(1, 1), (3, 2)])]
    for check in checks:
        with pytest.raises(UnbalancedPathError, match="combinational output bits carry"):
            check(report)


@pytest.mark.parametrize("width", [1, 8, 512])
def test_lane_masks_match_a_per_bit_loop(width):
    import random
    from csmulgen.sim import _lane_masks
    rng = random.Random(width)
    words = [rng.getrandbits(width) for _ in range(37)] + [0, (1 << width) - 1]
    want = [sum(((w >> i) & 1) << t for t, w in enumerate(words)) for i in range(width)]
    assert _lane_masks(words, width) == want
    assert _lane_masks([], width) == [0] * width
    for lanes in (words, [], words[:1]):
        assert _lane_masks(_lane_masks(lanes, width), len(lanes)) == lanes


def test_empty_pair_list_passes_after_analysis():
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    report = validate(nl)
    assert simulate(report, []) == []
    assert verify_pairs(report, [], "x") == VerificationReport(passed=True, tested=0, mode="x")


def test_verify_random_settles_the_netlist_once(monkeypatch):
    from csmulgen import sim
    settle = sim._settle
    calls = []

    def counted(*args):
        calls.append(1)
        return settle(*args)

    monkeypatch.setattr(sim, "_settle", counted)
    nl = generate_multiplier(GeneratorConfig(16, 16, True))
    assert verify_random(validate(nl), 20, seed=1).passed
    assert len(calls) == 1


def test_no_pass_for_any_dropped_register(drop_dff):
    """Dropping any one register leaves some output bit unbalanced, and
    the streamed check refuses the netlist rather than passing it."""
    from csmulgen.netlist import DFF, NetlistError
    cfg = GeneratorConfig(4, 4, True)
    count = sum(p.kind == DFF for p in generate_multiplier(cfg).primitives)
    assert count == 69
    for i in range(count):
        nl = generate_multiplier(cfg)
        drop_dff(nl, [j for j, p in enumerate(nl.primitives) if p.kind == DFF][i])
        with pytest.raises(NetlistError):
            verify_exhaustive(validate(nl))


@pytest.mark.parametrize("pairs, named", [
    ([(15, 15), (0, 255)], "pair 0 x 255 "),
    ([(3, 2), (17, 1)], "pair 17 x 1 "),
    ([(-1, 3)], "pair -1 x 3 "),
])
def test_verify_pairs_rejects_operands_wider_than_the_ports(pairs, named):
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    with pytest.raises(SimError, match=named):
        verify_pairs(validate(nl), pairs, "x")


def test_output_bits_at_different_register_depths_are_unbalanced(drop_dff):
    """Every output bit balanced, but bit 0 one register short of the rest."""
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    drop_dff(nl, next(i for i, p in enumerate(nl.primitives)
                      if p.kind == DFF and p.outputs == (nl.output_p[0],)))
    with pytest.raises(UnbalancedPathError, match=r"\[5, 6\]"):
        verify_random(validate(nl), 4, seed=1)
