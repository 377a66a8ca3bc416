"""One validation per CLI job, whose report every stage shares.

Each stage takes the `ValidationReport` as `report=`, and must give
exactly what it gives when it validates the netlist itself, and must
refuse a report of a different netlist.
"""

from collections import Counter

import pytest

import csmulgen.cli as cli_mod
import csmulgen.mulgen as mulgen_mod
import csmulgen.netlist as netlist_mod
import csmulgen.sim as sim_mod
import csmulgen.tbgen as tbgen_mod
import csmulgen.vhdl as vhdl_mod
from csmulgen.cli import main
from csmulgen.metrics import compute_metrics, render_json
from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
from csmulgen.netlist import (
    AND2, CODE, FULL_ADDER, Finding, NetlistError, Netlist, ValidationReport,
    compute_latency, validate,
)
from csmulgen.sim import (
    random_pairs, simulate, verify_exhaustive, verify_pairs, verify_random,
)
from csmulgen.tbgen import emit_testbench
from csmulgen.vhdl import EmissionError, emit_vhdl, iter_vhdl

CASES = [(1, 1, False), (3, 7, False), (8, 8, True), (13, 13, False), (5, 11, True)]
# Each case as generated, and (where it has a full adder) with one broken.
FAULT_CASES = [case + (faulty,) for case in CASES for faulty in (False, True)
               if not (faulty and case[:2] == (1, 1))]


@pytest.mark.parametrize("n,k,pipe,faulty", FAULT_CASES)
def test_shared_analysis_gives_the_same_results(n, k, pipe, faulty, swap_outputs):
    nl, passes = generate_with_annotations(GeneratorConfig(n, k, pipe))
    if faulty:
        swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    report = validate(nl)
    assert report.is_valid()

    if n + k <= 16:
        assert verify_exhaustive(nl) == verify_exhaustive(nl, report=report)
    want = verify_random(nl, 60, 7)
    assert want.passed != faulty
    assert want == verify_random(nl, 60, 7, report=report)
    assert compute_latency(nl) == compute_latency(nl, report=report)
    pairs = random_pairs(n, k, 30, 5)
    assert emit_testbench(nl, pairs) == emit_testbench(nl, pairs, report=report)
    assert (render_json(compute_metrics(nl, passes))
            == render_json(compute_metrics(nl, passes, report=report)))
    assert emit_vhdl(nl) == emit_vhdl(nl, report=report)


def test_emit_refuses_a_report_with_errors():
    nl, _ = generate_with_annotations(GeneratorConfig(2, 2, False))
    report = ValidationReport(findings=[Finding("error", "test", "handed-in defect")])
    with pytest.raises(EmissionError, match="handed-in defect"):
        emit_vhdl(nl, report=report)
    with pytest.raises(EmissionError, match="handed-in defect"):
        iter_vhdl(nl, report=report)  # when called, before any chunk

    bad = Netlist.create(1, 1)
    (s,) = bad.add_primitive(AND2, [bad.input_a[0], bad.input_b[0]])
    bad.output_p = [s, bad.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError, match="no driver"):
        emit_vhdl(bad, report=validate(bad))


STAGES = {
    "simulate": lambda nl, passes, rep: simulate(nl, [(1, 2)], report=rep),
    "verify_pairs": lambda nl, passes, rep: verify_pairs(nl, [(1, 2)], "x", report=rep),
    "verify_random": lambda nl, passes, rep: verify_random(nl, 5, 1, report=rep),
    "verify_exhaustive": lambda nl, passes, rep: verify_exhaustive(nl, report=rep),
    "compute_latency": lambda nl, passes, rep: compute_latency(nl, report=rep),
    "emit_testbench": lambda nl, passes, rep: emit_testbench(nl, [(1, 2)], report=rep),
    "compute_metrics": lambda nl, passes, rep: compute_metrics(nl, passes, report=rep),
    "emit_vhdl": lambda nl, passes, rep: emit_vhdl(nl, report=rep),
    # Called, not consumed: the check runs before the first chunk.
    "iter_vhdl": lambda nl, passes, rep: iter_vhdl(nl, report=rep),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_analysis_of_another_netlist_is_rejected(stage):
    cfg = GeneratorConfig(4, 4, True)
    nl, passes = generate_with_annotations(cfg)
    twin, _ = generate_with_annotations(cfg)  # same structure, different object
    with pytest.raises(NetlistError, match="different netlist"):
        STAGES[stage](nl, passes, validate(twin))
    STAGES[stage](nl, passes, validate(nl))


@pytest.mark.parametrize("argv", [
    ["--width-a", "4", "--width-b", "4"],
    ["--width-a", "9", "--width-b", "9", "--verify", "exhaustive"],
    ["--width-a", "5", "--width-b", "11", "--pipeline"],
    ["--width-a", "13", "--width-b", "13"],
    ["--width-a", "5", "--width-b", "11", "--pipeline", "--verify", "off"],
])
def test_cli_job_analyses_and_validates_once(argv, tmp_path, monkeypatch):
    """A CLI job walks its netlist once: one `validate`.  It is also
    counted as `compute_latency` looks it up in `netlist`, so a stage
    that validated the netlist itself would add to the count."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Wrap the name in every module that may import it; raising=False
    # covers modules that do not.
    real_validate = netlist_mod.validate
    for module in (netlist_mod, cli_mod, vhdl_mod, mulgen_mod, sim_mod, tbgen_mod):
        monkeypatch.setattr(module, "validate", counted("validate", real_validate),
                            raising=False)
    assert main(argv + ["--tests", "10", "--out-dir", str(tmp_path)]) == 0
    assert dict(calls) == {"validate": 1}
