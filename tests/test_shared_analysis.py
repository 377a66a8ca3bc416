"""One validation per CLI job, whose report every stage takes.

Each stage takes the `ValidationReport` of `validate(nl)` and reads the
netlist and its latency verdict from it, so a CLI job validates its
netlist once.
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
from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
from csmulgen.netlist import (
    AND2, CODE, FULL_ADDER, Finding, Netlist, ValidationReport, validate,
)
from csmulgen.sim import verify_exhaustive, verify_random
from csmulgen.vhdl import EmissionError, emit_vhdl, iter_vhdl

CASES = [(1, 1, False), (3, 7, False), (8, 8, True), (13, 13, False), (5, 11, True)]
# Each case as generated, and (where it has a full adder) with one broken.
FAULT_CASES = [case + (faulty,) for case in CASES for faulty in (False, True)
               if not (faulty and case[:2] == (1, 1))]


@pytest.mark.parametrize("n,k,pipe,faulty", FAULT_CASES)
def test_shared_analysis_gives_the_same_results(n, k, pipe, faulty, swap_outputs):
    """Verification on the report fails a broken design and passes a
    good one, exhaustively and on random pairs alike."""
    nl, _ = generate_with_annotations(GeneratorConfig(n, k, pipe))
    if faulty:
        swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
    report = validate(nl)
    assert report.is_valid()

    if n + k <= 16:
        assert verify_exhaustive(report).passed != faulty
    assert verify_random(report, 60, 7).passed != faulty


def test_emit_refuses_a_report_with_errors(add_primitive):
    nl, _ = generate_with_annotations(GeneratorConfig(2, 2, False))
    report = ValidationReport(nl, findings=[Finding("error", "test", "handed-in defect")])
    with pytest.raises(EmissionError, match="handed-in defect"):
        emit_vhdl(report)
    with pytest.raises(EmissionError, match="handed-in defect"):
        iter_vhdl(report)  # when called, before any chunk

    bad = Netlist.create(1, 1)
    (s,) = add_primitive(bad, AND2, [bad.input_a[0], bad.input_b[0]])
    bad.output_p = [s, bad.new_signal()]  # undriven output bit
    with pytest.raises(EmissionError, match="no driver"):
        emit_vhdl(validate(bad))


@pytest.mark.parametrize("argv", [
    ["--width-a", "4", "--width-b", "4"],
    ["--width-a", "9", "--width-b", "9", "--verify", "exhaustive"],
    ["--width-a", "5", "--width-b", "11", "--pipeline"],
    ["--width-a", "13", "--width-b", "13"],
    ["--width-a", "5", "--width-b", "11", "--pipeline", "--verify", "off"],
])
def test_cli_job_analyses_and_validates_once(argv, tmp_path, monkeypatch):
    """A CLI job walks its netlist once: one `validate`.  It is counted
    under its name in every module, `netlist` included, so a stage that
    validated the netlist itself would add to the count."""
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
