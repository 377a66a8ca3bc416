import pytest

from csmulgen.mulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import CODE, FULL_ADDER, compute_latency
from csmulgen.sim import SimError, simulate, verify_random
from csmulgen.tbgen import PlanError, emit_testbench, make_plan, self_check_plan


def test_generate_vectors_deterministic():
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    assert make_plan(nl, 20, seed=5).pairs == make_plan(nl, 20, seed=5).pairs
    assert make_plan(nl, 20, seed=5).pairs != make_plan(nl, 20, seed=6).pairs


def test_seed_6400_first_vector():
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    assert make_plan(nl, 1, seed=6400).pairs == [(53, 23)]


@pytest.mark.parametrize("caller", [make_plan, verify_random])
def test_negative_count_is_rejected(caller):
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    with pytest.raises(ValueError, match="count must be >= 0"):
        caller(nl, -3, 1)


@pytest.mark.parametrize("pair", [(4, 0), (-1, 3), (3, -1)])
def test_plan_pairs_that_do_not_fit_raise_sim_error(pair):
    """A pair that is negative or wider than its port is refused by the
    one range check, `sim.check_pairs`, before any simulation or text."""
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    plan = make_plan(nl, 0, seed=1)
    plan.pairs = [pair]
    for stage in (self_check_plan, emit_testbench):
        with pytest.raises(SimError, match=rf"^pair {pair[0]} x {pair[1]} does not fit"):
            stage(nl, plan)


def test_self_check_plan_passes_for_generated_design():
    nl = generate_multiplier(GeneratorConfig(6, 6, True))
    plan = make_plan(nl, 30, seed=3)
    assert self_check_plan(nl, plan)


def test_self_check_plan_without_a_report_validates_once(monkeypatch):
    """Its latency check and its simulation share one `validate`."""
    import csmulgen.netlist as netlist_mod
    import csmulgen.tbgen as tbgen_mod
    nl = generate_multiplier(GeneratorConfig(6, 6, True))
    plan = make_plan(nl, 30, seed=3)
    real, calls = netlist_mod.validate, []

    def counted(netlist):
        calls.append(netlist is nl)
        return real(netlist)
    for module in (netlist_mod, tbgen_mod):
        monkeypatch.setattr(module, "validate", counted, raising=False)
    assert self_check_plan(nl, plan)
    assert calls == [True]


def test_self_check_plan_catches_fault(swap_outputs):
    nl = generate_multiplier(GeneratorConfig(6, 6, False))
    plan = make_plan(nl, 64, seed=3)
    swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    with pytest.raises(PlanError):
        self_check_plan(nl, plan)


def test_verify_random_and_self_check_name_the_same_failing_pair(swap_outputs):
    # One seed gives one pair stream, so both stages blame the same pair.
    nl = generate_multiplier(GeneratorConfig(6, 6, False))
    swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    report = verify_random(nl, 64, 3)
    assert not report.passed
    c = report.counterexample
    with pytest.raises(PlanError, match=rf"^vector {report.tested}: .* for {c['a']}x{c['b']}$"):
        self_check_plan(nl, make_plan(nl, 64, 3))


def test_wait_time_combinational():
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    plan = make_plan(nl, 5, seed=1)
    assert plan.wait_time == compute_latency(nl).gate_units + 1


def test_wait_time_pipelined_counts_cycles():
    nl = generate_multiplier(GeneratorConfig(8, 8, True))
    plan = make_plan(nl, 5, seed=1)
    assert plan.wait_time == compute_latency(nl).cycles + 1


@pytest.mark.parametrize("n, k", [(4, 4), (8, 8), (5, 11)])
def test_self_check_rejects_wait_shorter_than_latency(n, k):
    """The testbench asserts each product after the plan's wait; it sees
    that vector's product only when the wait covers the latency."""
    nl = generate_multiplier(GeneratorConfig(n, k, True))
    latency = compute_latency(nl).cycles
    plan = make_plan(nl, 10, seed=2)
    for wait in (1, latency - 1):
        plan.wait_time = wait
        with pytest.raises(PlanError, match="latency"):
            self_check_plan(nl, plan)
    for wait in (latency, latency + 1):
        plan.wait_time = wait
        assert self_check_plan(nl, plan)


def test_testbench_text_structure():
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    plan = make_plan(nl, 10, seed=6400)
    text = emit_testbench(nl, plan)
    assert "entity mul_8x8_tb is" in text
    assert '"00110101"' in text
    assert '"00010111"' in text
    assert "1219" in text
    assert text.count("assert") == 2 * len(plan.pairs)
    assert "TESTBENCH OK" in text


def test_testbench_integer_reporting_only_when_narrow():
    narrow = generate_multiplier(GeneratorConfig(8, 8, False))
    wide = generate_multiplier(GeneratorConfig(20, 20, False))
    t_narrow = emit_testbench(narrow, make_plan(narrow, 3, seed=1))
    t_wide = emit_testbench(wide, make_plan(wide, 3, seed=1))
    assert "vec2int" in t_narrow
    assert "vec2int" not in t_wide  # 40-bit product exceeds integer range


def test_pipelined_testbench_has_clock():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    text = emit_testbench(nl, make_plan(nl, 4, seed=1))
    assert "clk" in text
    assert "10 ns" in text


def test_testbench_emission_deterministic():
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    a = emit_testbench(nl, make_plan(nl, 12, seed=9))
    b = emit_testbench(nl, make_plan(nl, 12, seed=9))
    assert a == b


def fa_index(nl, nth):
    """Index of the netlist's nth full adder."""
    return [i for i, p in enumerate(nl.primitives) if p.kind == FULL_ADDER][nth]


def first_failure_per_vector(nl, plan):
    """The per-vector reference: index of the first vector the simulator gets wrong."""
    return next((idx for idx, (a, b) in enumerate(plan.pairs)
                 if simulate(nl, [(a, b)])[0] != a * b), None)


@pytest.mark.parametrize("n,k,pipe", [(8, 8, True), (5, 11, True), (13, 13, False)])
def test_lane_parallel_self_check_agrees_with_per_vector_runs(n, k, pipe, swap_outputs):
    nl = generate_multiplier(GeneratorConfig(n, k, pipe))
    plan = make_plan(nl, 40, seed=5)
    assert first_failure_per_vector(nl, plan) is None
    assert self_check_plan(nl, plan)
    for nth in (0, 3, -1):
        bad = generate_multiplier(GeneratorConfig(n, k, pipe))
        swap_outputs(bad, fa_index(bad, nth))
        idx = first_failure_per_vector(bad, plan)
        assert idx is not None
        got = simulate(bad, [plan.pairs[idx]])[0]
        with pytest.raises(PlanError, match=rf"^vector {idx}: circuit computes {got},"):
            self_check_plan(bad, plan)


def test_pipelined_fault_names_first_failing_vector(swap_outputs):
    nl = generate_multiplier(GeneratorConfig(6, 6, True))
    plan = make_plan(nl, 64, seed=3)
    swap_outputs(nl, fa_index(nl, 0))
    idx = first_failure_per_vector(nl, plan)
    assert idx is not None
    with pytest.raises(PlanError, match=rf"^vector {idx}: "):
        self_check_plan(nl, plan)


def test_self_check_plan_without_vectors():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    assert self_check_plan(nl, make_plan(nl, 0, seed=1))
