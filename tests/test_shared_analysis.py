"""One validation per CLI job, whose analysis every stage shares.

Each stage that takes `analysis=` (or `report=`, for `emit_vhdl` and
`iter_vhdl`) must give exactly what it gives when it analyses the
netlist itself, and must refuse an analysis of a different netlist.
"""

from collections import Counter

import pytest

import csmulgen.cli as cli_mod
import csmulgen.mulgen as mulgen_mod
import csmulgen.netlist as netlist_mod
import csmulgen.sim as sim_mod
import csmulgen.vhdl as vhdl_mod
from csmulgen.cli import main
from csmulgen.metrics import compute_metrics, render_json
from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
from csmulgen.netlist import (
    AND2, CODE, FULL_ADDER, Finding, NetlistError, Netlist, ValidationReport, analyze,
    compute_latency, validate,
)
from csmulgen.sim import verify_exhaustive, verify_random
from csmulgen.tbgen import PlanError, make_plan, self_check_plan
from csmulgen.vhdl import EmissionError, emit_vhdl, iter_vhdl

CASES = [(1, 1, False), (3, 7, False), (8, 8, True), (13, 13, False), (5, 11, True)]
# Each case as generated, and (where it has a full adder) with one broken.
FAULT_CASES = [case + (faulty,) for case in CASES for faulty in (False, True)
               if not (faulty and case[:2] == (1, 1))]


def _plan_outcome(nl, plan, **kw):
    try:
        return self_check_plan(nl, plan, **kw)
    except PlanError as exc:
        return str(exc)


@pytest.mark.parametrize("n,k,pipe,faulty", FAULT_CASES)
def test_shared_analysis_gives_the_same_results(n, k, pipe, faulty, swap_outputs):
    nl, passes = generate_with_annotations(GeneratorConfig(n, k, pipe))
    if faulty:
        swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    report = validate(nl)
    an = report.analysis
    assert report.is_valid() and an is not None

    if n + k <= 16:
        assert verify_exhaustive(nl) == verify_exhaustive(nl, analysis=an)
    want = verify_random(nl, 60, 7)
    assert want.passed != faulty
    assert want == verify_random(nl, 60, 7, analysis=an)
    assert compute_latency(nl) == compute_latency(nl, analysis=an)
    plan = make_plan(nl, 30, 5)
    assert plan == make_plan(nl, 30, 5, analysis=an)
    assert _plan_outcome(nl, plan) == _plan_outcome(nl, plan, analysis=an)
    assert (render_json(compute_metrics(nl, passes))
            == render_json(compute_metrics(nl, passes, analysis=an)))
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
    "verify_random": lambda nl, passes, an: verify_random(nl, 5, 1, analysis=an),
    "verify_exhaustive": lambda nl, passes, an: verify_exhaustive(nl, analysis=an),
    "compute_latency": lambda nl, passes, an: compute_latency(nl, analysis=an),
    "make_plan": lambda nl, passes, an: make_plan(nl, 5, 1, analysis=an),
    "self_check_plan": lambda nl, passes, an: self_check_plan(
        nl, make_plan(nl, 5, 1), analysis=an),
    "compute_metrics": lambda nl, passes, an: compute_metrics(nl, passes, analysis=an),
    "emit_vhdl": lambda nl, passes, an: emit_vhdl(nl, report=ValidationReport(analysis=an)),
    # Called, not consumed: the check runs before the first chunk.
    "iter_vhdl": lambda nl, passes, an: iter_vhdl(nl, report=ValidationReport(analysis=an)),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_analysis_of_another_netlist_is_rejected(stage):
    cfg = GeneratorConfig(4, 4, True)
    nl, passes = generate_with_annotations(cfg)
    twin, _ = generate_with_annotations(cfg)  # same structure, different object
    with pytest.raises(NetlistError, match="different netlist"):
        STAGES[stage](nl, passes, analyze(twin))
    STAGES[stage](nl, passes, analyze(nl))


@pytest.mark.parametrize("argv", [
    ["--width-a", "4", "--width-b", "4"],
    ["--width-a", "9", "--width-b", "9", "--verify", "exhaustive"],
    ["--width-a", "5", "--width-b", "11", "--pipeline"],
    ["--width-a", "13", "--width-b", "13"],
])
def test_cli_job_analyses_and_validates_once(argv, tmp_path, monkeypatch):
    """A CLI job walks its netlist once: one `validate`, and no `analyze`.
    `validate` is also counted as `analyze` looks it up in `netlist`, so
    a stage that analysed the netlist itself would add to both counts."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Wrap the name in every module that may import it; raising=False
    # covers modules that no longer do.
    real_analyze, real_validate = netlist_mod.analyze, netlist_mod.validate
    for module in (netlist_mod, mulgen_mod, sim_mod):
        monkeypatch.setattr(module, "analyze", counted("analyze", real_analyze),
                            raising=False)
    for module in (netlist_mod, cli_mod, vhdl_mod):
        monkeypatch.setattr(module, "validate", counted("validate", real_validate),
                            raising=False)
    assert main(argv + ["--tests", "10", "--out-dir", str(tmp_path)]) == 0
    assert dict(calls) == {"validate": 1}
