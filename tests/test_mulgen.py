import gc
import hashlib
import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from csmulgen.mulgen import (
    CapacityError, GeneratorConfig, _Builder, build_partial_products,
    generate_multiplier, generate_with_annotations, reduce_step, run_reduction, schedule,
)
from csmulgen.netlist import (
    AND2, CODE, DFF, FULL_ADDER, HALF_ADDER, STRIDE, UNUSED, Netlist, NetlistError,
    compute_latency, validate,
)
from csmulgen.sim import simulate, verify_exhaustive
from csmulgen.vhdl import emit_vhdl


def count(nl, kind):
    return sum(1 for p in nl.primitives if p.kind == kind)


def test_config_rejects_nonpositive_widths():
    with pytest.raises(ValueError):
        GeneratorConfig(0, 4, False)
    with pytest.raises(ValueError):
        GeneratorConfig(4, -1, False)


def test_config_is_immutable():
    cfg = GeneratorConfig(4, 4)
    assert not cfg.pipelined
    with pytest.raises(AttributeError):
        cfg.width_a = 8


def test_partial_products_shape():
    nl = Netlist.create(4, 3)
    matrix = build_partial_products(GeneratorConfig(4, 3, False), _Builder(nl))
    assert [len(col) for col in matrix] == [1, 2, 3, 3, 2, 1, 0]
    assert count(nl, AND2) == 12


def test_reduction_terminates_with_columns_at_most_two():
    nl = Netlist.create(8, 8)
    builder = _Builder(nl)
    matrix = build_partial_products(GeneratorConfig(8, 8, False), builder)
    matrix, stages = run_reduction(matrix, builder)
    assert all(len(col) <= 2 for col in matrix)
    assert stages >= 1


def test_design_grid_digest():
    # One sha256 over the design text of every n, k in 1..16 in both
    # modes, so a change to reduction order or window placement shows
    # even where no single-size pin or golden reaches.
    h = hashlib.sha256()
    for n in range(1, 17):
        for k in range(1, 17):
            for pipelined in (False, True):
                nl = generate_multiplier(GeneratorConfig(n, k, pipelined))
                h.update(emit_vhdl(validate(nl)).encode("utf-8"))
    assert h.hexdigest() == "2ed4da8dfa78732ea6cb33120e8fcddc9b7c2c3c86a256a90cafafab0cb35516"


def test_generator_store_digest():
    # One sha256 over what the generator writes: both stores, the output
    # bits, the terminated ids, the signal count, the clock and the pass
    # count.  The design text cannot see the unused pin slots, which must
    # hold UNUSED, nor `terminated`, and the builder writes both itself.
    h = hashlib.sha256()
    sizes = [(n, k, p) for n in range(1, 17) for k in range(1, 17) for p in (False, True)]
    sizes += [(13, 5, True), (17, 33, True), (2, 40, True), (40, 2, True), (64, 64, True)]
    for n, k, pipelined in sizes:
        nl, passes = generate_with_annotations(GeneratorConfig(n, k, pipelined))
        h.update(bytes(nl.kinds))
        h.update(nl.pins.tobytes())
        h.update(repr((nl.output_p, sorted(nl.terminated), nl.signal_count, nl.clock,
                       passes)).encode())
    assert h.hexdigest() == "c7affe43d3086246aa3b0174d0bd3fdc11d4e98ccca04c7691596105b87d1b42"


def test_2x2_structure():
    nl, passes = generate_with_annotations(GeneratorConfig(2, 2, False))
    assert count(nl, AND2) == 4
    assert count(nl, HALF_ADDER) == 2
    assert count(nl, FULL_ADDER) == 0
    assert compute_latency(validate(nl)).gate_units == 3


def test_2x2_pipelined_latency():
    nl = generate_multiplier(GeneratorConfig(2, 2, True))
    info = compute_latency(validate(nl))
    assert info.pipelined and info.cycles == 2


def test_dot_count_conservation_per_column_weight():
    # total weighted dot count entering the final adder must still be
    # able to represent every product; checked indirectly by exhaustive
    # simulation at a size where that is cheap
    nl = generate_multiplier(GeneratorConfig(5, 3, False))
    report = verify_exhaustive(validate(nl))
    assert report.passed and report.tested == 2 ** 8


def test_pipelined_netlist_has_clock_and_dffs():
    nl = generate_multiplier(GeneratorConfig(3, 3, True))
    assert nl.pipelined and nl.clock is not None
    assert count(nl, DFF) > 0


def test_combinational_netlist_has_no_dffs():
    nl = generate_multiplier(GeneratorConfig(6, 4, False))
    assert not nl.pipelined and nl.clock is None
    assert count(nl, DFF) == 0


def test_pipelined_preserves_function():
    cfg = GeneratorConfig(4, 4, True)
    report = validate(generate_multiplier(cfg))
    for a, b in [(0, 0), (15, 15), (9, 11), (3, 14)]:
        assert simulate(report, [(a, b)]) == [a * b]


def registers_as_wires(nl):
    """The netlist with every DFF collapsed into a wire and the signals
    renumbered in order of definition, port bits first: its primitives
    as (code, i0, i1, i2, o0, o1), its output bits and its sorted
    terminated ids."""
    new = {UNUSED: UNUSED}
    for s in nl.input_a + nl.input_b:
        new[s] = len(new) - 1
    fresh, prims = len(new) - 1, []
    for i, code in enumerate(nl.kinds):
        i0, i1, i2, o0, o1 = nl.pins[STRIDE * i:STRIDE * i + STRIDE]
        if code == CODE[DFF]:
            new[o0] = new[i0]
            continue
        for o in (o0, o1):
            if o != UNUSED:
                new[o], fresh = fresh, fresh + 1
        prims.append((code, new[i0], new[i1], new[i2], new[o0], new[o1]))
    return prims, [new[s] for s in nl.output_p], sorted(new[s] for s in nl.terminated)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 17) for k in range(1, 17)]
                         + [(64, 64), (13, 5), (100, 3), (3, 100), (17, 33), (2, 150)])
def test_gate_counts_match_between_modes(n, k):
    # Pipelining only adds registers: read as wires, the pipelined design
    # is the combinational one primitive for primitive, pins included.
    comb, passes_c = generate_with_annotations(GeneratorConfig(n, k, False))
    pipe, passes_p = generate_with_annotations(GeneratorConfig(n, k, True))
    assert CODE[DFF] in pipe.kinds and CODE[DFF] not in comb.kinds
    assert registers_as_wires(pipe) == registers_as_wires(comb)
    assert passes_c == passes_p


def test_long_register_chains_need_no_deep_recursion():
    # 2x150p has a latency of about 150 cycles, so its deskew chains are
    # about 150 DFFs long; building one must not recurse once per DFF.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        nl = generate_multiplier(GeneratorConfig(2, 150, True))
    finally:
        sys.setrecursionlimit(limit)
    assert compute_latency(validate(nl)).cycles > 100


def test_each_delay_adds_a_fresh_chain():
    nl = Netlist.create(2, 2)
    nl.pipelined = True
    nl.add_clock()
    builder = _Builder(nl)
    sig = builder.add(CODE[HALF_ADDER], 0, nl.input_a[0], nl.input_b[0])

    def assert_new_chain(first, q):
        """Primitives `first` on are DFFs, each reading the one before,
        from `sig` to `q`."""
        assert set(nl.kinds[first:]) == {CODE[DFF]}
        ins = [nl.pins[STRIDE * i] for i in range(first, len(nl.kinds))]
        outs = [nl.pins[STRIDE * i + 3] for i in range(first, len(nl.kinds))]
        assert ins == [sig] + outs[:-1] and outs[-1] == q

    assert builder.delayed(sig, 0) == sig and len(nl.kinds) == 1
    q3 = builder.delayed(sig, 3)
    assert len(nl.kinds) == 1 + 3
    assert_new_chain(1, q3)
    assert builder.slot[q3] == builder.slot[sig] + 3
    q5 = builder.delayed(sig, 5)
    assert len(nl.kinds) == 4 + 5
    assert_new_chain(4, q5)
    with pytest.raises(NetlistError, match="negative pipeline delay"):
        builder.delayed(sig, -1)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9) for k in range(1, 9)]
                         + [(13, 5), (17, 33), (2, 40), (40, 2)])
def test_every_signal_a_dff_reads_has_one_reader(n, k):
    # The builder gives every delayed signal a chain of its own.  That
    # wastes no DFF only while each such signal has one reader; a second
    # reader would make sharing a chain worth it again.
    nl = generate_multiplier(GeneratorConfig(n, k, True))
    readers = [0] * nl.signal_count
    for i in range(len(nl.kinds)):
        for s in nl.pins[STRIDE * i:STRIDE * i + 3]:
            if s != UNUSED:
                readers[s] += 1
    for s in nl.output_p:
        readers[s] += 1
    delayed = [nl.pins[STRIDE * i] for i, code in enumerate(nl.kinds) if code == CODE[DFF]]
    assert delayed
    assert [s for s in delayed if readers[s] != 1] == []


def test_pipelined_build_keeps_no_tracked_object_per_delayed_signal(monkeypatch):
    # 32x32p delays thousands of signals.  The builder's pipelined state
    # is a flat array, so while it is alive the objects the cyclic collector
    # tracks grow by a few per build, not by one per delayed signal.
    import csmulgen.mulgen as mulgen
    kept = []

    class KeptBuilder(mulgen._Builder):
        def __init__(self, nl):
            super().__init__(nl)
            kept.append(self)

    monkeypatch.setattr(mulgen, "_Builder", KeptBuilder)
    gc.collect()
    before = len(gc.get_objects())
    nl, _ = generate_with_annotations(GeneratorConfig(32, 32, True))
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(kept) == 1
    assert nl.kinds.count(CODE[DFF]) > 7000
    assert grown < 50


def test_annotations_consistent_with_netlist():
    cfg = GeneratorConfig(8, 8, False)
    nl, passes = generate_with_annotations(cfg)
    probe = _Builder(Netlist.create(8, 8))
    matrix, stages = run_reduction(build_partial_products(cfg, probe), probe)
    assert stages == passes
    fa = count(nl, FULL_ADDER)
    ha = count(nl, HALF_ADDER)
    assert count(probe.nl, FULL_ADDER) + count(probe.nl, HALF_ADDER) <= fa + ha
    assert sum(map(len, matrix)) <= 2 * (nl.width_a + nl.width_b)


def test_schedule_matches_the_generator():
    # The plan's pass, full adder and half adder counts against what the
    # reduction writes, in a probe that stops before the final adder.
    # Each full adder removes one bit and a half adder none.  The pinned
    # pass counts were read from the generator before it followed a
    # schedule.
    sizes = [(n, k) for n in range(1, 33) for k in range(1, 33)]
    for n, k in sizes + [(256, 256), (2, 600), (8, 1024)]:
        passes = schedule(n, k)
        probe = _Builder(Netlist.create(n, k))
        matrix, stages = run_reduction(
            build_partial_products(GeneratorConfig(n, k, False), probe), probe)
        full = sum(f for plan in passes for f, _ in plan)
        half = sum(h for plan in passes for _, h in plan)
        assert (len(passes), full, half) == (
            stages, probe.nl.kinds.count(CODE[FULL_ADDER]),
            probe.nl.kinds.count(CODE[HALF_ADDER])), (n, k)
        assert full == n * k - sum(map(len, matrix)) and max(map(len, matrix)) <= 2
    assert [len(schedule(n, n)) for n in (9, 13, 32, 256, 1024)] == [8, 7, 12, 18, 21]


def heights_per_pass(n, k):
    """Column heights before each pass of `schedule(n, k)` and after
    the last, as the writer leaves them."""
    builder = _Builder(Netlist.create(n, k))
    columns = build_partial_products(GeneratorConfig(n, k, False), builder)
    heights = [[len(col) for col in columns]]
    for i, plan in enumerate(schedule(n, k)):
        columns = reduce_step(columns, plan, i, builder)
        heights.append([len(col) for col in columns])
    return heights


def test_schedule_3x3_by_hand():
    # Pass 0: column 1 takes a half adder and column 2 a full adder,
    # whose carry lands in column 3, so rule A defers column 3's pair.
    # Pass 1: column 2 takes a half adder and column 3 a full adder.
    __, half, full = (0, False), (0, True), (1, False)
    assert schedule(3, 3) == [[__, half, full, __, __, __],
                              [__, __, half, full, __, __]]
    assert heights_per_pass(3, 3) == [[1, 2, 3, 2, 1, 0], [1, 1, 2, 3, 1, 0],
                                      [1, 1, 1, 2, 2, 0]]


def test_schedule_3x4_by_hand():
    # Pass 2: no carry lands in column 5, whose neighbour holds one bit,
    # but column 3's full adder carries into column 4, which leaves with
    # two bits, so rule B alone defers column 5's pair.
    __, half, full = (0, False), (0, True), (1, False)
    assert schedule(3, 4) == [[__, half, full, full, __, __, __],
                              [__, __, half, __, full, __, __],
                              [__, __, __, full, __, __, __]]
    assert heights_per_pass(3, 4) == [
        [1, 2, 3, 3, 2, 1, 0], [1, 1, 2, 2, 3, 1, 0], [1, 1, 1, 3, 1, 2, 0],
        [1, 1, 1, 1, 2, 2, 0]]


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", "8")
    with pytest.raises(CapacityError):
        generate_multiplier(GeneratorConfig(9, 2, False))
    generate_multiplier(GeneratorConfig(8, 8, False))  # at the limit is fine


def test_capacity_env_garbage_is_rejected(monkeypatch):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", "not-a-number")
    with pytest.raises(ValueError, match="CSMULGEN_MAX_WIDTH"):
        generate_multiplier(GeneratorConfig(4, 4, False))


def test_capacity_env_empty_means_default(monkeypatch):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", "")
    generate_multiplier(GeneratorConfig(4, 4, False))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), k=st.integers(1, 10), pipe=st.booleans())
def test_generated_netlists_validate_clean(n, k, pipe):
    nl = generate_multiplier(GeneratorConfig(n, k, pipe))
    assert validate(nl).findings == []
    assert len(nl.output_p) == n + k


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 6),
       a=st.integers(0, 63), b=st.integers(0, 63))
def test_product_matches_oracle(n, k, a, b):
    a &= (1 << n) - 1
    b &= (1 << k) - 1
    nl = generate_multiplier(GeneratorConfig(n, k, False))
    assert simulate(validate(nl), [(a, b)]) == [a * b]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 8))
def test_reduction_stage_count_monotone_floor(n, k):
    nl, passes = generate_with_annotations(GeneratorConfig(n, k, False))
    # Column j holds min(j+1, n, k, n+k-1-j) partial products.
    tallest = min(n, k)
    if tallest <= 2:
        assert passes == 0
    else:
        assert passes >= 1
