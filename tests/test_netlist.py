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


def test_multiple_drivers_reported():
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    prim2_out = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    # point the second AND's output at the first one's signal
    nl.primitives[1].outputs[0] = s0
    nl.output_p = [s0, prim2_out[0]]
    codes = [f.code for f in validate(nl).errors]
    assert "multiple-drivers" in codes


def test_arity_mismatch_reported():
    nl = Netlist.create(1, 1)
    outs = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    nl.primitives[0].inputs.append(nl.input_a[0])
    nl.output_p = [outs[0], outs[0]]
    codes = [f.code for f in validate(nl).errors]
    assert "arity-mismatch" in codes


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


def test_combinational_cycle_reported():
    nl = Netlist.create(1, 1)
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (s1,) = nl.add_primitive(AND2, [s0, nl.input_b[0]])
    nl.primitives[0].inputs[0] = s1  # s0 depends on s1 depends on s0
    nl.output_p = [s0, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.errors] == [
        ("out-of-order", f"primitive 0 (and2) input 0 (s{s1}) is read before its driver")]
    assert report.analysis is None
    with pytest.raises(OutOfOrderError) as raised:
        analyze(nl)
    assert str(raised.value) == report.errors[0].message


def test_reads_before_any_driver_split_into_undriven_and_out_of_order():
    """A read of a signal with no driver yet is `undriven-input` when
    nothing ever drives it, and `out-of-order` when a later primitive does."""
    nl = Netlist.create(1, 1)
    floating = nl.new_signal()
    (s0,) = nl.add_primitive(AND2, [floating, floating])      # both pins undriven
    (s1,) = nl.add_primitive(AND2, [floating, nl.input_a[0]])
    (s2,) = nl.add_primitive(AND2, [s0, s1])
    nl.primitives[1].inputs[1] = s2                           # pin 1 driven later
    nl.output_p = [s2, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.findings] == [
        ("undriven-input", f"primitive 0 (and2) input 0 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 0 (and2) input 1 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 1 (and2) input 0 (s{floating}) has no driver"),
        ("out-of-order", f"primitive 1 (and2) input 1 (s{s2}) is read before its driver"),
    ]
    assert report.analysis is None


def _set_pin(nl, where, sig):
    """Put `sig` on one port bit or primitive pin of a 2x2 netlist and
    return how `validate` names that place."""
    if where == "input pin":
        nl.primitives[4].inputs[1] = sig
        return "primitive 4 (ha) input 1"
    if where == "output pin":
        nl.primitives[5].outputs[0] = sig
        return "primitive 5 (ha) output 0"
    if where == "input port":
        nl.input_b[1] = sig
        return "input_b bit 1"
    nl.output_p[2] = sig
    return "output bit 2"


@pytest.mark.parametrize("sig", [12, -1])
@pytest.mark.parametrize("where", ["input pin", "output pin", "input port", "output port"])
def test_signal_id_outside_the_netlist_is_unknown_signal(where, sig):
    """An id at or past signal_count, or below 0, is reported and never
    used as an index: a negative index would alias a signal from the end."""
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    assert nl.signal_count == 12
    place = _set_pin(nl, where, sig)
    report = validate(nl)
    message = f"{place} (s{sig}) is not one of the 12 signals"
    assert [(f.code, f.message) for f in report.findings] == [("unknown-signal", message)]
    assert report.analysis is None
    with pytest.raises(NetlistError) as raised:
        analyze(nl)
    assert type(raised.value) is NetlistError and str(raised.value) == message


def test_first_unknown_signal_is_the_one_finding():
    """Port bits are checked before pins, and pins in primitive order.
    The first id outside the netlist is the one finding, so an arity
    mismatch ahead of it is not reported."""
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    nl.primitives[0].inputs.append(nl.input_a[0])
    for where, sig in (("output pin", 99), ("input pin", -1), ("output port", 12)):
        _set_pin(nl, where, sig)
    messages = lambda: [f.message for f in validate(nl).findings]
    assert messages() == ["output bit 2 (s12) is not one of the 12 signals"]
    nl.output_p[2] = 10
    assert messages() == ["primitive 4 (ha) input 1 (s-1) is not one of the 12 signals"]
    nl.primitives[4].inputs[1] = 6
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


def _dependency_order(nl, rng):
    """The same primitives in another dependency order: each still comes
    after the drivers of its inputs, ties broken by `rng`."""
    driver = {s: i for i, p in enumerate(nl.primitives) for s in p.outputs}
    waits = [sum(1 for s in p.inputs if s in driver) for p in nl.primitives]
    readers = [[] for _ in nl.primitives]
    for i, p in enumerate(nl.primitives):
        for s in p.inputs:
            if s in driver:
                readers[driver[s]].append(i)
    ready = [i for i, w in enumerate(waits) if w == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(nl.primitives[i])
        for r in readers[i]:
            waits[r] -= 1
            if waits[r] == 0:
                ready.append(r)
    assert len(order) == len(nl.primitives)
    return Netlist(
        width_a=nl.width_a, width_b=nl.width_b,
        input_a=nl.input_a, input_b=nl.input_b, output_p=nl.output_p,
        clock=nl.clock, primitives=order,
        pipelined=nl.pipelined, signal_count=nl.signal_count, terminated=nl.terminated)


def test_levelize_independent_of_insertion_order():
    import random
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    base = analyze(nl).depth
    shuffled = _dependency_order(nl, random.Random(0))
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


def unbalanced_findings(nl):
    return [f for f in validate(nl).errors if f.code == "unbalanced-registers"]


def test_every_dropped_dff_fails_validation(drop_dff):
    base = generate_multiplier(GeneratorConfig(4, 4, True))
    positions = [i for i, p in enumerate(base.primitives) if p.kind == DFF]
    assert positions
    for pos in positions:
        nl = generate_multiplier(GeneratorConfig(4, 4, True))
        drop_dff(nl, nl.primitives[pos])
        assert unbalanced_findings(nl), f"dropping DFF {pos} went unnoticed"


def test_every_duplicated_dff_fails_validation():
    base = generate_multiplier(GeneratorConfig(4, 4, True))
    positions = [i for i, p in enumerate(base.primitives) if p.kind == DFF]
    for pos in positions:
        nl = generate_multiplier(GeneratorConfig(4, 4, True))
        q_old = nl.primitives[pos].outputs[0]
        (q,) = nl.add_primitive(DFF, [q_old])  # a second register in series
        second = nl.primitives.pop()
        for prim in nl.primitives:
            prim.inputs = [q if s == q_old else s for s in prim.inputs]
        nl.primitives.insert(pos + 1, second)  # right after the one it doubles
        nl.output_p = [q if s == q_old else s for s in nl.output_p]
        assert unbalanced_findings(nl), f"doubling DFF {pos} went unnoticed"


def test_register_loop_is_out_of_order():
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (s0,) = nl.add_primitive(AND2, [nl.input_a[0], nl.input_b[0]])
    (q,) = nl.add_primitive(DFF, [s0])
    s, c = nl.add_primitive(HALF_ADDER, [q, q])
    nl.primitives[1].inputs[0] = s  # q now feeds back on itself through s
    nl.output_p = [s, c]
    assert [(f.code, f.message) for f in validate(nl).errors] == [
        ("out-of-order", f"primitive 1 (dff) input 0 (s{s}) is read before its driver")]
    from csmulgen.sim import verify_random
    with pytest.raises(NetlistError):
        verify_random(nl, 4, seed=1)


def test_analysis_of_shuffled_pipelined_netlist_matches():
    import random
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    base = analyze(nl)
    shuffled = _dependency_order(nl, random.Random(1))
    assert shuffled.primitives != nl.primitives
    again = analyze(shuffled)
    assert (again.depth, again.reg_min, again.reg_max) == \
        (base.depth, base.reg_min, base.reg_max)
    assert len(set(base.reg_min[b] for b in nl.output_p)) == 1
    assert validate(shuffled).findings == []


def test_shuffled_pipelined_netlist_is_rejected():
    """Dependency order is part of the IR: a shuffled netlist fails
    validation, and every library entry point refuses to analyse it
    rather than return a product."""
    import random
    from csmulgen.sim import simulate, verify_exhaustive, verify_pairs, verify_random
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    random.Random(1).shuffle(nl.primitives)
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


def _netlist_with_every_defect():
    nl = Netlist.create(2, 2)
    a0, a1 = nl.input_a
    b0, b1 = nl.input_b
    (s_and,) = nl.add_primitive(AND2, [a0, b0])
    nl.primitives[-1].inputs.append(a1)                    # arity mismatch
    nl.add_primitive(AND2, [a1, b1])                       # unread
    (s_loop,) = nl.add_primitive(AND2, [a0, b1])
    nl.primitives[-1].inputs[1] = s_loop                   # reads itself: out of order
    nl.add_primitive(AND2, [a1, b0])
    nl.primitives[-1].outputs[0] = b1                      # drives a port bit
    (s_twice,) = nl.add_primitive(AND2, [a0, b0])
    nl.add_primitive(AND2, [a1, b1])
    nl.primitives[-1].outputs[0] = s_twice                 # second driver
    floating = nl.new_signal()
    (s_term,) = nl.add_primitive(AND2, [floating, b0])     # undriven input
    nl.terminated.add(s_term)                              # but read below
    nl.add_primitive(DFF, [s_twice])                       # no clock, not pipelined
    nl.output_p = [s_and, s_term, nl.new_signal()]         # 3 bits, one floats
    return nl


def test_every_defect_gives_exact_findings_in_order():
    report = validate(_netlist_with_every_defect())
    assert not report.is_valid() and report.analysis is None
    findings = [(f.severity, f.code, f.message) for f in report.findings]
    assert findings == [
        ("error", "arity-mismatch", "primitive 0 (and2) has 3 inputs and 1 outputs"),
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
    drop_dff(nl, [p for p in nl.primitives if p.kind == DFF][which])
    assert [(f.severity, f.code, f.message) for f in validate(nl).findings] == expected
    with pytest.raises(UnbalancedPathError) as raised:
        compute_latency(nl)
    assert str(raised.value) == expected[0][2]
