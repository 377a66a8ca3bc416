import dataclasses
import json

from csmulgen.metrics import compute_metrics, render_json
from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
from csmulgen.netlist import AND2, DFF, FULL_ADDER, HALF_ADDER, validate


def metrics_for(n, k, pipe, **kw):
    nl, passes = generate_with_annotations(GeneratorConfig(n, k, pipe))
    return nl, compute_metrics(validate(nl), passes, **kw)


def test_2x2_counts():
    nl, m = metrics_for(2, 2, False)
    assert m.and_gates == 4
    assert m.half_adders == 2
    assert m.full_adders == 0
    assert m.adders == 2
    assert m.dffs == 0
    assert m.reduction_stages == 0
    assert m.latency.gate_units == 3


def test_counts_match_primitive_list():
    nl, m = metrics_for(8, 8, True)
    by_kind = {}
    for p in nl.primitives:
        by_kind[p.kind] = by_kind.get(p.kind, 0) + 1
    assert m.and_gates == by_kind[AND2]
    assert m.full_adders == by_kind[FULL_ADDER]
    assert m.half_adders == by_kind[HALF_ADDER]
    assert m.adders == m.full_adders + m.half_adders
    assert m.dffs == by_kind[DFF]


def test_signal_count_excludes_clock():
    nl, m = metrics_for(4, 4, True)
    assert m.signals == nl.signal_count - 1  # clock is not a data signal
    nl2, m2 = metrics_for(4, 4, False)
    assert m2.signals == nl2.signal_count


def test_latency_semantics_per_mode():
    _, comb = metrics_for(8, 8, False)
    _, pipe = metrics_for(8, 8, True)
    assert not comb.latency.pipelined and comb.latency.gate_units >= 1
    assert pipe.latency.pipelined and pipe.latency.cycles >= 1
    # pipelined latency counts cycles, so with stage depth capped at two
    # gate units it can never exceed the combinational gate-unit depth
    assert pipe.latency.cycles <= comb.latency.gate_units


def test_render_json_shape_and_key_order():
    _, m = metrics_for(8, 8, True, generation_time_ms=12.5)
    text = render_json(m)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schema_version"] == 1
    assert data["width_a"] == 8 and data["width_b"] == 8
    assert data["pipelined"] is True
    assert data["generation_time_ms"] == 12.5
    assert data["latency"] == {"pipelined": True,
                               "cycles": m.latency.cycles,
                               "gate_units": None}
    assert list(data) == sorted(data, key=list(data).index)  # stable order
    assert render_json(m) == render_json(m)


def test_render_json_holds_every_field():
    _, m = metrics_for(5, 9, False, generation_time_ms=3.25)
    data = json.loads(render_json(m))
    assert data.pop("schema_version") == 1
    assert data == dataclasses.asdict(m)


def test_generation_time_optional():
    _, m = metrics_for(3, 3, False)
    data = json.loads(render_json(m))
    assert data["generation_time_ms"] is None


PINNED_4X4 = """{
  "schema_version": 1,
  "width_a": 4,
  "width_b": 4,
  "pipelined": false,
  "signals": 48,
  "and_gates": 16,
  "full_adders": 8,
  "half_adders": 4,
  "adders": 12,
  "dffs": 0,
  "reduction_stages": 3,
  "latency": {
    "pipelined": false,
    "cycles": null,
    "gate_units": 12
  },
  "generation_time_ms": 12.345
}
"""

PINNED_8X8_P = """{
  "schema_version": 1,
  "width_a": 8,
  "width_b": 8,
  "pipelined": true,
  "signals": 582,
  "and_gates": 64,
  "full_adders": 48,
  "half_adders": 8,
  "adders": 56,
  "dffs": 390,
  "reduction_stages": 5,
  "latency": {
    "pipelined": true,
    "cycles": 14,
    "gate_units": null
  },
  "generation_time_ms": 12.345
}
"""


def test_render_json_pinned_text():
    _, comb = metrics_for(4, 4, False, generation_time_ms=12.345)
    _, pipe = metrics_for(8, 8, True, generation_time_ms=12.345)
    assert render_json(comb) == PINNED_4X4
    assert render_json(pipe) == PINNED_8X8_P
