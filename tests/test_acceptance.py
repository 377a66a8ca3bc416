"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line even under pytest output capture.  Criterion 2 includes a large
512x512 generation and is the slow part of the suite.
"""

import json

import pytest

from csmulgen.mulgen import (
    GeneratorConfig, _Builder, build_partial_products, generate_multiplier, run_reduction,
)
from csmulgen.netlist import (
    AND2, DFF, FULL_ADDER, Netlist, compute_latency, validate,
)
from csmulgen.sim import random_pairs, simulate, verify_exhaustive, verify_random
from csmulgen import tbgen
from csmulgen.vhdl import emit_vhdl
from csmulgen.cli import main as cli_main

import pathlib

GOLDENS = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture
def report(capsys):
    def _report(number, label, ok):
        with capsys.disabled():
            print(f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {number} failed"
    return _report


def test_criterion_1_exhaustive_small_grid(report):
    ok = True
    for n in range(1, 7):
        for k in range(1, 7):
            for pipe in (False, True):
                nl = generate_multiplier(GeneratorConfig(n, k, pipe))
                r = verify_exhaustive(validate(nl))
                ok = ok and r.passed and r.tested == 2 ** (n + k)
    report(1, "exhaustive 1..6 grid, both modes", ok)


def test_criterion_2_random_at_scale(report):
    ok = True
    for n in (8, 16, 32, 64):
        for k in (8, 16, 32, 64):
            nl = generate_multiplier(GeneratorConfig(n, k, False))
            r = verify_random(validate(nl), 100, seed=n * 100 + k)
            ok = ok and r.passed and r.tested == 100
    big = generate_multiplier(GeneratorConfig(512, 512, False))
    big_report = verify_random(validate(big), 3, seed=1)
    ok = ok and big_report.passed
    report(2, "100 random pairs at scale plus 512x512", ok)


def test_criterion_3_structural_invariants(report):
    ok = True
    for n in range(1, 17):
        for k in range(1, 17):
            nl = generate_multiplier(GeneratorConfig(n, k, False))
            ok = ok and sum(1 for p in nl.primitives if p.kind == AND2) == n * k
            probe = _Builder(Netlist.create(n, k))
            matrix = build_partial_products(GeneratorConfig(n, k, False), probe)
            matrix, _ = run_reduction(matrix, probe)
            reduced = probe.nl.primitives
            ok = ok and nl.primitives[:len(reduced)] == reduced
            fa_red = sum(1 for p in reduced if p.kind == FULL_ADDER)
            ok = ok and fa_red == n * k - sum(map(len, matrix))
            ok = ok and all(len(col) <= 2 for col in matrix)
            ok = ok and sum(1 for p in nl.primitives if p.kind == DFF) == 0
            ok = ok and validate(nl).findings == []
    report(3, "structural invariants over 1..16 grid", ok)


def test_criterion_4_pipeline_properties(report, signal_levels):
    ok = True
    for n, k in ((4, 4), (8, 8), (13, 63), (16, 16)):
        nl = generate_multiplier(GeneratorConfig(n, k, True))
        _, reg_min, reg_max = signal_levels(nl)
        ok = ok and all(reg_min[bit] == reg_max[bit] for bit in nl.output_p)
        depths = {reg_min[bit] for bit in nl.output_p}
        ok = ok and len(depths) == 1
        latency = depths.pop()
        rep = validate(nl)
        ok = ok and compute_latency(rep).cycles == latency

        a, b = (1 << n) - 1, (1 << k) - 1
        ok = ok and simulate(rep, [(a, b)] * (latency + 1)) == [a * b] * (latency + 1)

        feed = [(i * 7 + 3) % (1 << n) for i in range(latency + 5)]
        feed = [(x, (x * 5 + 1) % (1 << k)) for x in feed]
        ok = ok and simulate(rep, feed) == [x * y for x, y in feed]

        ok = ok and rep.stage_depth <= 2
    report(4, "pipeline latency, streaming and stage depth", ok)


def test_criterion_5_testbench_integrity(report):
    ok = True
    for n, k, pipe in ((8, 8, False), (8, 8, True), (5, 11, True)):
        nl = generate_multiplier(GeneratorConfig(n, k, pipe))
        pairs = random_pairs(n, k, 50, seed=2)
        rep = validate(nl)
        ok = ok and verify_random(rep, 50, seed=2).passed
        text = tbgen.emit_testbench(rep, pairs)
        outputs = [ln.split(": ")[1] for ln in text.splitlines() if "-- output: " in ln]
        ok = ok and outputs == [str(a * b) for a, b in pairs]
    nl = generate_multiplier(GeneratorConfig(8, 8, False))
    pairs = random_pairs(8, 8, 10, seed=6400)
    ok = ok and pairs[0] == (53, 23)
    text = tbgen.emit_testbench(validate(nl), pairs)
    ok = ok and '"00110101"' in text and '"00010111"' in text
    ok = ok and "1219" in text
    report(5, "testbench expected values and 53x23 exemplar", ok)


def test_criterion_6_determinism_and_goldens(report, tmp_path):
    ok = True
    for d in (tmp_path / "a", tmp_path / "b"):
        code = cli_main(["--width-a", "8", "--width-b", "8", "--pipeline",
                         "--seed", "4", "--tests", "20", "--out-dir", str(d)])
        ok = ok and code == 0
    for name in ("mul_8x8_p.vhd", "mul_8x8_p_tb.vhd"):
        ok = ok and ((tmp_path / "a" / name).read_bytes()
                     == (tmp_path / "b" / name).read_bytes())
    ok = ok and (emit_vhdl(validate(generate_multiplier(GeneratorConfig(2, 2, False))))
                 == (GOLDENS / "mul_2x2.vhd").read_text())
    ok = ok and (emit_vhdl(validate(generate_multiplier(GeneratorConfig(8, 8, True))))
                 == (GOLDENS / "mul_8x8_p.vhd").read_text())
    report(6, "byte-identical reruns and stable goldens", ok)


def test_criterion_7_fault_sensitivity(report, swap_outputs):
    ok = True
    base = generate_multiplier(GeneratorConfig(4, 4, False))
    fa_positions = [i for i, p in enumerate(base.primitives)
                    if p.kind == FULL_ADDER]
    ok = ok and len(fa_positions) > 0
    for pos in fa_positions:
        nl = generate_multiplier(GeneratorConfig(4, 4, False))
        swap_outputs(nl, pos)
        r = verify_exhaustive(validate(nl))
        ok = ok and not r.passed and r.counterexample is not None
        if r.counterexample is not None:
            ce = r.counterexample
            ok = ok and ce["expected"] == ce["a"] * ce["b"]
            ok = ok and ce["got"] != ce["expected"]
    report(7, "swapped FA outputs always caught", ok)
