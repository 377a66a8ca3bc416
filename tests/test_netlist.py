import copy

import pytest

from csmulgen.netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER,
    Netlist, NetlistError, OutOfOrderError, UnbalancedPathError,
    analyze, compute_latency, max_stage_depth, validate,
)
from csmulgen.mulgen import GeneratorConfig, generate_multiplier


def test_generated_2x2_validates_clean():
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    assert validate(nl).findings == []


def test_undriven_output_bit_reported():
    nl = Netlist.create(2, 2)
    (s,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    nl.output_p = [s, s, s, nl.new_signal()]  # bit 3 floats
    codes = [f.code for f in validate(nl).errors]
    assert "undriven-output" in codes


def test_multiple_drivers_reported(set_pin):
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    prim2_out = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    # point the second AND's output at the first one's signal
    set_pin(nl, 1, 3, s0)
    nl.output_p = [s0, prim2_out[0]]
    codes = [f.code for f in validate(nl).errors]
    assert "multiple-drivers" in codes


def test_arity_mismatch_reported():
    """A kind's arity fixes its pin slots, so `add_primitive` is the one
    place an input count can be wrong: it refuses one and stores nothing."""
    nl = Netlist.create(1, 1)
    a, b = nl.input_a[0], nl.input_b[0]
    with pytest.raises(NetlistError, match="and2 expects 2 inputs, got 3"):
        nl.add_primitive(AND2, [a, b, a])
    with pytest.raises(NetlistError, match="fa expects 3 inputs, got 2"):
        nl.add_primitive(FULL_ADDER, [a, b])
    assert (len(nl.kinds), len(nl.pins), nl.signal_count) == (0, 0, 2)


def test_unread_internal_is_warning_not_error():
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])  # dangles
    (zero,) = nl.add_primitive(CONST0, [])
    nl.output_p = [s0, zero]
    rep = validate(nl)
    assert rep.is_valid()
    assert [(f.severity, f.code) for f in rep.findings] == [("warning", "unread-signal")]


def test_terminated_signal_suppresses_warning():
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (s1,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (zero,) = nl.add_primitive(CONST0, [])
    nl.output_p = [s0, zero]
    nl.terminated.add(s1)
    assert validate(nl).findings == []


def test_combinational_cycle_reported(set_pin):
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (s1,) = nl.add_primitive(AND2, [s0, nl.input_b[0]])
    set_pin(nl, 0, 0, s1)  # s0 depends on s1 depends on s0
    nl.output_p = [s0, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.errors] == [
        ("out-of-order", f"primitive 0 (and2) input 0 (s{s1}) is read before its driver")]
    assert report.analysis is None
    with pytest.raises(OutOfOrderError) as raised:
        analyze(nl)
    assert str(raised.value) == report.errors[0].message


def test_reads_before_any_driver_split_into_undriven_and_out_of_order(set_pin):
    """A read of a signal with no driver yet is `undriven-input` when
    nothing ever drives it, and `out-of-order` when a later primitive does."""
    nl = Netlist.create(1, 1)
    floating = nl.new_signal()
    (s0,) = nl.add_primitive(AND2, [floating, floating])      # both pins undriven
    (s1,) = nl.add_primitive(AND2, [floating, nl.input_a[0]])
    (s2,) = nl.add_primitive(AND2, [s0, s1])
    set_pin(nl, 1, 1, s2)                                     # pin 1 driven later
    nl.output_p = [s2, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.findings] == [
        ("undriven-input", f"primitive 0 (and2) input 0 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 0 (and2) input 1 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 1 (and2) input 0 (s{floating}) has no driver"),
        ("out-of-order", f"primitive 1 (and2) input 1 (s{s2}) is read before its driver"),
    ]
    assert report.analysis is None


def _place(nl, where, sig, set_pin):
    """Put `sig` on one port bit or primitive pin of a 2x2 netlist and
    return how `validate` names that place."""
    if where == "input pin":
        set_pin(nl, 4, 1, sig)
        return "primitive 4 (ha) input 1"
    if where == "output pin":
        set_pin(nl, 5, 3, sig)
        return "primitive 5 (ha) output 0"
    if where == "input port":
        nl.input_b[1] = sig
        return "input_b bit 1"
    nl.output_p[2] = sig
    return "output bit 2"


@pytest.mark.parametrize("sig", [12, -1])
@pytest.mark.parametrize("where", ["input pin", "output pin", "input port", "output port"])
def test_signal_id_outside_the_netlist_is_unknown_signal(where, sig, set_pin):
    """An id at or past signal_count, or below 0, is reported and never
    used as an index: a negative index would alias a signal from the end."""
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    assert nl.signal_count == 12
    place = _place(nl, where, sig, set_pin)
    report = validate(nl)
    message = f"{place} (s{sig}) is not one of the 12 signals"
    assert [(f.code, f.message) for f in report.findings] == [("unknown-signal", message)]
    assert report.analysis is None
    with pytest.raises(NetlistError) as raised:
        analyze(nl)
    assert type(raised.value) is NetlistError and str(raised.value) == message


def test_first_unknown_signal_is_the_one_finding(set_pin):
    """Port bits are checked before pins, and pins in primitive order.
    The first id outside the netlist is the one finding."""
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    for where, sig in (("output pin", 99), ("input pin", -1), ("output port", 12)):
        _place(nl, where, sig, set_pin)
    messages = lambda: [f.message for f in validate(nl).findings]
    assert messages() == ["output bit 2 (s12) is not one of the 12 signals"]
    nl.output_p[2] = 10
    assert messages() == ["primitive 4 (ha) input 1 (s-1) is not one of the 12 signals"]
    set_pin(nl, 4, 1, 6)
    assert messages() == ["primitive 5 (ha) output 0 (s99) is not one of the 12 signals"]


def test_validation_order_is_deterministic():
    def build():
        nl = Netlist.create(2, 2)
        (s,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
        nl.add_primitive(AND2, [nl.input_a[1], nl.input_b[1]])  # unread
        nl.output_p = [s, s, s, nl.new_signal()]
        return validate(nl)
    assert build().findings == build().findings


def test_levelize_1x1():
    nl = generate_multiplier(GeneratorConfig(1, 1, False))
    by_id = analyze(nl).depth
    assert by_id[nl.output_p[0]] == 1  # single AND gate
    assert by_id[nl.output_p[1]] == 0  # constant


def test_levelize_2x2_max_depth_three():
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    by_id = analyze(nl).depth
    assert max(by_id[b] for b in nl.output_p) == 3


def test_full_adder_counts_two_gate_units():
    nl = Netlist.create(2, 1)
    (a,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (b,) = nl.add_primitive(AND2, [nl.input_a[1], nl.input_b[0]])
    s, c = nl.add_primitive(FULL_ADDER, [a, b, nl.input_a[0]])
    nl.output_p = [s, c, a]
    by_id = analyze(nl).depth
    assert by_id[s] == 3  # and (1) + fa (2)


def _dependency_order(nl, rng, reorder):
    """A copy of `nl` with its primitives in another dependency order:
    each still comes after the drivers of its inputs, ties broken by `rng`."""
    prims = nl.primitives
    driver = {s: i for i, p in enumerate(prims) for s in p.outputs}
    waits = [sum(1 for s in p.inputs if s in driver) for p in prims]
    readers = [[] for _ in prims]
    for i, p in enumerate(prims):
        for s in p.inputs:
            if s in driver:
                readers[driver[s]].append(i)
    ready = [i for i, w in enumerate(waits) if w == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for r in readers[i]:
            waits[r] -= 1
            if waits[r] == 0:
                ready.append(r)
    assert len(order) == len(prims)
    shuffled = copy.deepcopy(nl)
    reorder(shuffled, order)
    return shuffled


def test_levelize_independent_of_insertion_order(reorder):
    import random
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    base = analyze(nl).depth
    shuffled = _dependency_order(nl, random.Random(0), reorder)
    assert shuffled.primitives != nl.primitives
    assert analyze(shuffled).depth == base


def test_pipelined_8x8_stage_depth_at_most_two():
    nl = generate_multiplier(GeneratorConfig(8, 8, True))
    assert max_stage_depth(nl) <= 2


def test_register_depth_uniform_on_pipelined():
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    an = analyze(nl)
    assert all(an.reg_min[bit] == an.reg_max[bit] for bit in nl.output_p)
    assert len({an.reg_min[bit] for bit in nl.output_p}) == 1


def test_register_depth_zero_when_not_pipelined():
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    an = analyze(nl)
    assert all(an.reg_min[bit] == an.reg_max[bit] == 0 for bit in nl.output_p)


def test_register_depth_unbalanced_path_error():
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (q,) = nl.add_primitive(DFF, [nl.input_a[0]])
    s, c = nl.add_primitive(HALF_ADDER, [s0, q])  # mixes 0- and 1-register paths
    nl.output_p = [s, c]
    an = analyze(nl)
    assert an.reg_min[s] != an.reg_max[s]
    with pytest.raises(UnbalancedPathError):
        compute_latency(nl, analysis=an)


def test_netlist_without_output_bits_raises_netlist_error():
    """With no output bit there is no latency to read; every caller of
    `compute_latency` gets a NetlistError naming the missing bits."""
    from csmulgen.sim import simulate
    nl = Netlist.create(1, 1)
    nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    for call in (compute_latency, lambda nl: simulate(nl, [(1, 1)])):
        with pytest.raises(NetlistError, match="^the netlist has none of its 2 output bits$"):
            call(nl)


def test_netlist_retains_under_32_bytes_per_primitive():
    """Primitives live in flat stores, not one object per gate: a
    64x64p netlist keeps its kind codes and pins in about 21 B each."""
    import tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nl = generate_multiplier(GeneratorConfig(64, 64, True))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(nl.primitives) < 32


def unbalanced_findings(nl):
    return [f for f in validate(nl).errors if f.code == "unbalanced-registers"]


def test_every_dropped_dff_fails_validation(drop_dff):
    base = generate_multiplier(GeneratorConfig(4, 4, True))
    positions = [i for i, p in enumerate(base.primitives) if p.kind == DFF]
    assert positions
    for pos in positions:
        nl = generate_multiplier(GeneratorConfig(4, 4, True))
        drop_dff(nl, pos)
        assert unbalanced_findings(nl), f"dropping DFF {pos} went unnoticed"


def test_every_duplicated_dff_fails_validation(double_dff):
    base = generate_multiplier(GeneratorConfig(4, 4, True))
    positions = [i for i, p in enumerate(base.primitives) if p.kind == DFF]
    for pos in positions:
        nl = generate_multiplier(GeneratorConfig(4, 4, True))
        double_dff(nl, pos)
        assert unbalanced_findings(nl), f"doubling DFF {pos} went unnoticed"


def test_register_loop_is_out_of_order(set_pin):
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (q,) = nl.add_primitive(DFF, [s0])
    s, c = nl.add_primitive(HALF_ADDER, [q, q])
    set_pin(nl, 1, 0, s)  # q now feeds back on itself through s
    nl.output_p = [s, c]
    assert [(f.code, f.message) for f in validate(nl).errors] == [
        ("out-of-order", f"primitive 1 (dff) input 0 (s{s}) is read before its driver")]
    from csmulgen.sim import verify_random
    with pytest.raises(NetlistError):
        verify_random(nl, 4, seed=1)


def test_analysis_of_shuffled_pipelined_netlist_matches(reorder):
    import random
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    base = analyze(nl)
    shuffled = _dependency_order(nl, random.Random(1), reorder)
    assert shuffled.primitives != nl.primitives
    again = analyze(shuffled)
    assert (again.depth, again.reg_min, again.reg_max) == \
        (base.depth, base.reg_min, base.reg_max)
    assert len(set(base.reg_min[b] for b in nl.output_p)) == 1
    assert validate(shuffled).findings == []


def test_shuffled_pipelined_netlist_is_rejected(reorder):
    """Dependency order is part of the IR: a shuffled netlist fails
    validation, and every library entry point refuses to analyse it
    rather than return a product."""
    import random
    from csmulgen.sim import simulate, verify_exhaustive, verify_pairs, verify_random
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    order = list(range(len(nl.kinds)))
    random.Random(1).shuffle(order)
    reorder(nl, order)
    report = validate(nl)
    assert [f.code for f in report.findings] == ["out-of-order"]
    assert report.analysis is None
    for call in (analyze, compute_latency, verify_exhaustive,
                 lambda nl: verify_random(nl, 4, seed=1),
                 lambda nl: simulate(nl, [(3, 5)]),
                 lambda nl: simulate(nl, []),
                 lambda nl: verify_pairs(nl, [], "x")):
        with pytest.raises(OutOfOrderError):
            call(nl)


def _netlist_with_every_defect(set_pin):
    nl = Netlist.create(2, 2)
    a0, a1 = nl.input_a
    b0, b1 = nl.input_b
    (s_and,) = nl.add_primitive(AND2, [a0, b0])
    nl.add_primitive(AND2, [a1, b1])                       # unread
    (s_loop,) = nl.add_primitive(AND2, [a0, b1])
    set_pin(nl, 2, 1, s_loop)                              # reads itself: out of order
    nl.add_primitive(AND2, [a1, b0])
    set_pin(nl, 3, 3, b1)                                  # drives a port bit
    (s_twice,) = nl.add_primitive(AND2, [a0, b0])
    nl.add_primitive(AND2, [a1, b1])
    set_pin(nl, 5, 3, s_twice)                             # second driver
    floating = nl.new_signal()
    (s_term,) = nl.add_primitive(AND2, [floating, b0])     # undriven input
    nl.terminated.add(s_term)                              # but read below
    nl.add_primitive(DFF, [s_twice])                       # no clock, not pipelined
    nl.output_p = [s_and, s_term, nl.new_signal()]         # 3 bits, one floats
    return nl


def test_every_defect_gives_exact_findings_in_order(set_pin):
    report = validate(_netlist_with_every_defect(set_pin))
    assert not report.is_valid() and report.analysis is None
    findings = [(f.severity, f.code, f.message) for f in report.findings]
    assert findings == [
        ("error", "multiple-drivers", "port bit s3 is driven by a primitive"),
        ("error", "multiple-drivers", "signal s8 has 2 drivers"),
        ("error", "undriven-input", "primitive 6 (and2) input 0 (s10) has no driver"),
        ("error", "undriven-output", "output bit 2 (s13) has no driver"),
        ("warning", "unread-signal", "internal signal s5 drives nothing"),
        ("error", "terminated-but-read",
         "signal s11 is declared terminated but has readers"),
        ("warning", "unread-signal", "internal signal s12 drives nothing"),
        ("error", "out-of-order", "primitive 2 (and2) input 1 (s6) is read before its driver"),
        ("error", "clock-consistency", "pipelined=False but dffs=1, clock=absent"),
        ("error", "output-width", "output has 3 bits, expected 4"),
    ]


@pytest.mark.parametrize("which, expected", [
    (0, [("error", "unbalanced-registers",
          f"output bit {j} (s{s}) mixes paths with 5 and 6 registers")
         for j, s in [(1, 107), (2, 111), (3, 114), (4, 116), (5, 117),
                      (6, 95), (7, 96)]]),
    (-1, [("error", "unbalanced-registers",
           "output bits disagree on register depth: [5, 6]")]),
])
def test_dropped_dff_gives_exact_findings(drop_dff, which, expected):
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    drop_dff(nl, [i for i, p in enumerate(nl.primitives) if p.kind == DFF][which])
    assert [(f.severity, f.code, f.message) for f in validate(nl).findings] == expected
    with pytest.raises(UnbalancedPathError) as raised:
        compute_latency(nl)
    assert str(raised.value) == expected[0][2]
