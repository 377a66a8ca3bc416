import copy

import pytest

from csmulgen.netlist import (
    AND2, CONST0, DFF, FULL_ADDER, HALF_ADDER, KINDS,
    Finding, LatencyInfo, Netlist, NetlistError, OutOfOrderError, Primitive, UnbalancedPathError,
    compute_latency, validate,
)
from csmulgen.mulgen import GeneratorConfig, generate_multiplier


def test_generated_2x2_validates_clean():
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    assert validate(nl).findings == []


def test_findings_and_latency_are_immutable_values():
    finding = Finding("error", "code", "message")
    latency = LatencyInfo(pipelined=False, gate_units=3)
    assert finding == Finding("error", "code", "message")
    assert finding != Finding("warning", "code", "message")
    assert latency == LatencyInfo(False, None, 3)
    assert latency != LatencyInfo(pipelined=False, gate_units=4)
    assert LatencyInfo(pipelined=True, cycles=2) != LatencyInfo(pipelined=True, cycles=3)
    with pytest.raises(AttributeError):
        finding.code = "other"
    with pytest.raises(AttributeError):
        latency.cycles = 1


def test_undriven_output_bit_reported(add_primitive):
    nl = Netlist.create(2, 2)
    (s,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    nl.output_p = [s, s, s, nl.new_signal()]  # bit 3 floats
    codes = [f.code for f in validate(nl).errors]
    assert "undriven-output" in codes


def test_multiple_drivers_reported(set_pin, add_primitive):
    nl = Netlist.create(1, 1)
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    prim2_out = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    # point the second AND's output at the first one's signal
    set_pin(nl, 1, 3, s0)
    nl.output_p = [s0, prim2_out[0]]
    codes = [f.code for f in validate(nl).errors]
    assert "multiple-drivers" in codes


def test_arity_mismatch_reported(add_primitive):
    """A kind's arity fixes its pin slots, so a hand-built netlist's
    writer, the tests' `add_primitive`, is the one place an input count
    can be wrong: it refuses one and stores nothing."""
    nl = Netlist.create(1, 1)
    a, b = nl.input_a[0], nl.input_b[0]
    with pytest.raises(NetlistError, match="and2 expects 2 inputs, got 3"):
        add_primitive(nl, AND2, [a, b, a])
    with pytest.raises(NetlistError, match="fa expects 3 inputs, got 2"):
        add_primitive(nl, FULL_ADDER, [a, b])
    assert (len(nl.kinds), len(nl.pins), nl.signal_count) == (0, 0, 2)


def test_unknown_kind_is_refused(add_primitive):
    nl = Netlist.create(1, 1)
    with pytest.raises(NetlistError, match="^unknown primitive kind 'xor'$"):
        add_primitive(nl, "xor", [nl.input_a[0], nl.input_b[0]])
    assert (len(nl.kinds), len(nl.pins), nl.signal_count) == (0, 0, 2)


def test_unknown_kind_code_is_one_finding():
    """A kind code outside KINDS stops the walk: the primitive and its
    code are the report's one finding, and its latency verdict."""
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    nl.kinds[0] = 9
    report = validate(nl)
    message = "primitive 0 has kind code 9, not one of the 5 kinds"
    assert [(f.severity, f.code, f.message) for f in report.findings] == [
        ("error", "unknown-kind", message)]
    assert report.stage_depth is None
    with pytest.raises(NetlistError) as raised:
        compute_latency(report)
    assert type(raised.value) is NetlistError and str(raised.value) == message


@pytest.mark.parametrize("idx", [0, 4])
def test_decoded_view_refuses_an_unknown_kind_code(idx):
    """`nl.primitives` raises NetlistError on a kind code outside KINDS,
    with the message of `validate`'s `unknown-kind` finding."""
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    nl.kinds[idx] = 9
    (finding,) = validate(nl).findings
    assert finding.message == f"primitive {idx} has kind code 9, not one of the 5 kinds"
    with pytest.raises(NetlistError) as raised:
        nl.primitives
    assert type(raised.value) is NetlistError and str(raised.value) == finding.message


@pytest.mark.parametrize("bad", [None, 2 ** 40], ids=["not-an-int", "out-of-range"])
def test_unstorable_input_leaves_the_netlist_as_it_was(bad, add_primitive):
    """An input the pin store cannot hold is refused before the kind is
    stored or an output allocated, so the next primitive is stored whole."""
    nl = Netlist.create(1, 1)
    a, b = nl.input_a[0], nl.input_b[0]
    (s,) = add_primitive(nl, AND2, [a, b])
    with pytest.raises(NetlistError, match="^and2 inputs cannot be stored"):
        add_primitive(nl, AND2, [a, bad])
    assert (list(nl.kinds), len(nl.pins), nl.signal_count) == ([0], 5, 3)
    (t,) = add_primitive(nl, AND2, [s, b])
    assert nl.primitives[-1] == Primitive(AND2, (s, b), (t,)) and t == 3
    nl.output_p = [s, t]
    assert validate(nl).findings == []


def test_unread_internal_is_warning_not_error(add_primitive):
    nl = Netlist.create(1, 1)
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])  # dangles
    (zero,) = add_primitive(nl, CONST0, [])
    nl.output_p = [s0, zero]
    rep = validate(nl)
    assert rep.is_valid()
    assert [(f.severity, f.code) for f in rep.findings] == [("warning", "unread-signal")]


def test_terminated_signal_suppresses_warning(add_primitive):
    nl = Netlist.create(1, 1)
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (s1,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (zero,) = add_primitive(nl, CONST0, [])
    nl.output_p = [s0, zero]
    nl.terminated.add(s1)
    assert validate(nl).findings == []


def test_combinational_cycle_reported(set_pin, add_primitive):
    nl = Netlist.create(1, 1)
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (s1,) = add_primitive(nl, AND2, [s0, nl.input_b[0]])
    set_pin(nl, 0, 0, s1)  # s0 depends on s1 depends on s0
    nl.output_p = [s0, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.errors] == [
        ("out-of-order", f"primitive 0 (and2) input 0 (s{s1}) is read before its driver")]
    assert report.stage_depth is None
    with pytest.raises(OutOfOrderError) as raised:
        compute_latency(report)
    assert str(raised.value) == report.errors[0].message


def test_reads_before_any_driver_split_into_undriven_and_out_of_order(set_pin, add_primitive):
    """A read of a signal with no driver yet is `undriven-input` when
    nothing ever drives it, and `out-of-order` when a later primitive does."""
    nl = Netlist.create(1, 1)
    floating = nl.new_signal()
    (s0,) = add_primitive(nl, AND2, [floating, floating])      # both pins undriven
    (s1,) = add_primitive(nl, AND2, [floating, nl.input_a[0]])
    (s2,) = add_primitive(nl, AND2, [s0, s1])
    set_pin(nl, 1, 1, s2)                                     # pin 1 driven later
    nl.output_p = [s2, s1]
    report = validate(nl)
    assert [(f.code, f.message) for f in report.findings] == [
        ("undriven-input", f"primitive 0 (and2) input 0 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 0 (and2) input 1 (s{floating}) has no driver"),
        ("undriven-input", f"primitive 1 (and2) input 0 (s{floating}) has no driver"),
        ("out-of-order", f"primitive 1 (and2) input 1 (s{s2}) is read before its driver"),
    ]
    assert report.stage_depth is None


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
    assert report.stage_depth is None
    with pytest.raises(NetlistError) as raised:
        compute_latency(report)
    assert type(raised.value) is NetlistError and str(raised.value) == message


@pytest.mark.parametrize("sig", [-1, 10**6])
def test_terminated_id_outside_the_netlist_is_unknown_signal(sig):
    """A terminated id is checked like a port bit, before the walk: it
    is the one finding, and the latency verdict raises its message."""
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    n = nl.signal_count
    nl.terminated.add(sig)
    report = validate(nl)
    message = f"terminated id (s{sig}) is not one of the {n} signals"
    assert [(f.code, f.message) for f in report.findings] == [("unknown-signal", message)]
    with pytest.raises(NetlistError) as raised:
        compute_latency(report)
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


def test_validation_order_is_deterministic(add_primitive):
    def build():
        nl = Netlist.create(2, 2)
        (s,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
        add_primitive(nl, AND2, [nl.input_a[1], nl.input_b[1]])  # unread
        nl.output_p = [s, s, s, nl.new_signal()]
        return validate(nl)
    assert build().findings == build().findings


def test_levelize_1x1(signal_levels):
    nl = generate_multiplier(GeneratorConfig(1, 1, False))
    by_id = signal_levels(nl)[0]
    assert by_id[nl.output_p[0]] == 1  # single AND gate
    assert by_id[nl.output_p[1]] == 0  # constant
    report = validate(nl)
    assert compute_latency(report).gate_units == report.stage_depth == 1


def test_levelize_2x2_max_depth_three(signal_levels):
    nl = generate_multiplier(GeneratorConfig(2, 2, False))
    by_id = signal_levels(nl)[0]
    assert max(by_id[b] for b in nl.output_p) == 3
    report = validate(nl)
    assert compute_latency(report).gate_units == report.stage_depth == 3


def test_full_adder_counts_two_gate_units(signal_levels, add_primitive):
    nl = Netlist.create(2, 1)
    (a,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (b,) = add_primitive(nl, AND2, [nl.input_a[1], nl.input_b[0]])
    s, c = add_primitive(nl, FULL_ADDER, [a, b, nl.input_a[0]])
    nl.output_p = [s, c, a]
    by_id = signal_levels(nl)[0]
    assert by_id[s] == 3  # and (1) + fa (2)
    report = validate(nl)
    assert compute_latency(report).gate_units == report.stage_depth == 3


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


def test_levelize_independent_of_insertion_order(reorder, signal_levels):
    import random
    nl = generate_multiplier(GeneratorConfig(3, 3, False))
    base = validate(nl)
    shuffled = _dependency_order(nl, random.Random(0), reorder)
    assert shuffled.primitives != nl.primitives
    again = validate(shuffled)
    assert (again.latency, again.stage_depth) == (base.latency, base.stage_depth)
    assert base.latency.gate_units == max(signal_levels(nl)[0][b] for b in nl.output_p)


def test_pipelined_8x8_stage_depth_at_most_two():
    nl = generate_multiplier(GeneratorConfig(8, 8, True))
    assert validate(nl).stage_depth <= 2


def test_register_depth_uniform_on_pipelined(signal_levels):
    nl = generate_multiplier(GeneratorConfig(4, 4, True))
    _, reg_min, reg_max = signal_levels(nl)
    assert all(reg_min[bit] == reg_max[bit] for bit in nl.output_p)
    assert {reg_min[bit] for bit in nl.output_p} == {compute_latency(validate(nl)).cycles}


def test_register_depth_zero_when_not_pipelined(signal_levels):
    nl = generate_multiplier(GeneratorConfig(4, 4, False))
    _, reg_min, reg_max = signal_levels(nl)
    assert all(reg_min[bit] == reg_max[bit] == 0 for bit in nl.output_p)
    assert compute_latency(validate(nl)).cycles is None


def test_register_depth_unbalanced_path_error(signal_levels, add_primitive):
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (q,) = add_primitive(nl, DFF, [nl.input_a[0]])
    s, c = add_primitive(nl, HALF_ADDER, [s0, q])  # mixes 0- and 1-register paths
    nl.output_p = [s, c]
    _, reg_min, reg_max = signal_levels(nl)
    assert reg_min[s] != reg_max[s]
    with pytest.raises(UnbalancedPathError):
        compute_latency(validate(nl))


def test_netlist_without_output_bits_raises_netlist_error(add_primitive):
    """With no output bit there is no latency to read; every caller of
    `compute_latency` gets a NetlistError naming the missing bits."""
    from csmulgen.sim import simulate
    nl = Netlist.create(1, 1)
    add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    report = validate(nl)
    for call in (compute_latency, lambda rep: simulate(rep, [(1, 1)])):
        with pytest.raises(NetlistError, match="^the netlist has none of its 2 output bits$"):
            call(report)


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


def test_report_keeps_no_per_signal_list():
    """A signal's levels are locals of `validate`'s walk: a 64x64p
    report keeps its findings and verdict, not lists over every signal."""
    import tracemalloc
    nl = generate_multiplier(GeneratorConfig(64, 64, True))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = validate(nl)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.is_valid() and report.latency.cycles > 0
    assert retained < 4096


def _expected_verdict(nl, levels):
    """The latency verdict by its rules, from reference levels: a
    LatencyInfo, or the (class, message) of the error it must raise."""
    depth, reg_min, reg_max = levels
    bits = nl.output_p
    if not bits:
        return NetlistError, (f"the netlist has none of its "
                              f"{nl.width_a + nl.width_b} output bits")
    for j, b in enumerate(bits):
        if reg_min[b] != reg_max[b]:
            return UnbalancedPathError, (f"output bit {j} (s{b}) mixes paths with "
                                         f"{reg_min[b]} and {reg_max[b]} registers")
    cycles = sorted({reg_min[b] for b in bits})
    if len(cycles) > 1:
        return UnbalancedPathError, f"output bits disagree on register depth: {cycles}"
    if cycles[0] and not nl.pipelined:
        return UnbalancedPathError, f"combinational output bits carry {cycles[0]} registers"
    if nl.pipelined:
        return LatencyInfo(pipelined=True, cycles=cycles[0])
    return LatencyInfo(pipelined=False, gate_units=max(depth[b] for b in bits))


def _variants(n, k, pipe, drop_dff, double_dff, swap_outputs):
    """The generated netlist, then one fault of each kind it can take:
    its top output bit left undriven, its middle adder's outputs
    swapped, its first register dropped, its last register doubled, and
    its pipelined flag cleared."""
    make = lambda: generate_multiplier(GeneratorConfig(n, k, pipe))
    nl = make()
    yield "as generated", nl
    adders = [i for i, c in enumerate(nl.kinds) if KINDS[c] in (HALF_ADDER, FULL_ADDER)]
    dffs = [i for i, c in enumerate(nl.kinds) if KINDS[c] == DFF]
    faults = [("undriven bit", lambda nl: nl.output_p.__setitem__(-1, nl.new_signal()))]
    if adders:
        middle = adders[len(adders) // 2]
        faults.append(("swapped adder", lambda nl: swap_outputs(nl, middle)))
    if dffs:
        faults += [("dropped dff", lambda nl: drop_dff(nl, dffs[0])),
                   ("doubled dff", lambda nl: double_dff(nl, dffs[-1])),
                   ("flag cleared", lambda nl: setattr(nl, "pipelined", False))]
    for name, fault in faults:
        nl = make()
        fault(nl)
        yield name, nl


@pytest.mark.parametrize("pipe", [False, True])
def test_report_verdict_and_stage_depth_match_the_reference(
        pipe, signal_levels, drop_dff, double_dff, swap_outputs):
    """Widths 1..8 and 13x5, each as generated and with each fault: the
    stored verdict, what `compute_latency` returns or raises, and the
    stage depth all equal what the reference levels give."""
    shapes = [(n, k) for n in range(1, 9) for k in range(1, 9)] + [(13, 5)]
    seen = set()
    for n, k in shapes:
        for name, nl in _variants(n, k, pipe, drop_dff, double_dff, swap_outputs):
            levels = signal_levels(nl)
            want = _expected_verdict(nl, levels)
            report = validate(nl)
            got = report.latency
            try:
                outcome = compute_latency(report)
            except NetlistError as exc:
                outcome = type(exc), str(exc)
            if isinstance(got, Exception):
                got = type(got), str(got)
            assert got == outcome == want, (n, k, pipe, name)
            depth = levels[0]
            ends = [p.inputs[0] for p in nl.primitives if p.kind == DFF] + nl.output_p
            assert report.stage_depth == max(depth[s] for s in ends), (n, k, pipe, name)
            seen.add("ok" if isinstance(want, LatencyInfo) else
                     next(w for w in ("mixes", "disagree", "carry") if w in want[1]))
    # Every branch of the verdict was reached.
    assert seen == ({"ok", "mixes", "disagree", "carry"} if pipe else {"ok"})


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


def test_register_loop_is_out_of_order(set_pin, add_primitive):
    nl = Netlist.create(1, 1)
    nl.pipelined = True
    nl.add_clock()
    (s0,) = add_primitive(nl, AND2, [nl.input_a[0], nl.input_b[0]])
    (q,) = add_primitive(nl, DFF, [s0])
    s, c = add_primitive(nl, HALF_ADDER, [q, q])
    set_pin(nl, 1, 0, s)  # q now feeds back on itself through s
    nl.output_p = [s, c]
    assert [(f.code, f.message) for f in validate(nl).errors] == [
        ("out-of-order", f"primitive 1 (dff) input 0 (s{s}) is read before its driver")]
    from csmulgen.sim import verify_random
    with pytest.raises(NetlistError):
        verify_random(validate(nl), 4, seed=1)


def test_analysis_of_shuffled_pipelined_netlist_matches(reorder, signal_levels):
    import random
    nl = generate_multiplier(GeneratorConfig(5, 7, True))
    base = validate(nl)
    shuffled = _dependency_order(nl, random.Random(1), reorder)
    assert shuffled.primitives != nl.primitives
    again = validate(shuffled)
    assert (again.latency, again.stage_depth) == (base.latency, base.stage_depth)
    reg_min = signal_levels(nl)[1]
    assert {reg_min[b] for b in nl.output_p} == {base.latency.cycles}
    assert again.findings == []


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
    assert report.stage_depth is None
    for call in (compute_latency, verify_exhaustive,
                 lambda rep: verify_random(rep, 4, seed=1),
                 lambda rep: simulate(rep, [(3, 5)]),
                 lambda rep: simulate(rep, []),
                 lambda rep: verify_pairs(rep, [], "x")):
        with pytest.raises(OutOfOrderError):
            call(report)


def _netlist_with_every_defect(set_pin, add_primitive):
    nl = Netlist.create(2, 2)
    a0, a1 = nl.input_a
    b0, b1 = nl.input_b
    (s_and,) = add_primitive(nl, AND2, [a0, b0])
    add_primitive(nl, AND2, [a1, b1])                       # unread
    (s_loop,) = add_primitive(nl, AND2, [a0, b1])
    set_pin(nl, 2, 1, s_loop)                              # reads itself: out of order
    add_primitive(nl, AND2, [a1, b0])
    set_pin(nl, 3, 3, b1)                                  # drives a port bit
    (s_twice,) = add_primitive(nl, AND2, [a0, b0])
    add_primitive(nl, AND2, [a1, b1])
    set_pin(nl, 5, 3, s_twice)                             # second driver
    floating = nl.new_signal()
    (s_term,) = add_primitive(nl, AND2, [floating, b0])     # undriven input
    nl.terminated.add(s_term)                              # but read below
    add_primitive(nl, DFF, [s_twice])                       # no clock, not pipelined
    nl.output_p = [s_and, s_term, nl.new_signal()]         # 3 bits, one floats
    return nl


def test_every_defect_gives_exact_findings_in_order(set_pin, add_primitive):
    report = validate(_netlist_with_every_defect(set_pin, add_primitive))
    assert not report.is_valid() and report.stage_depth is None
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
        compute_latency(validate(nl))
    assert str(raised.value) == expected[0][2]
