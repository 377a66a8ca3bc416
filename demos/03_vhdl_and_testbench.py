"""Emit synthesizable VHDL and a matching self-checking testbench.

Writes mul_8x8.vhd and mul_8x8_tb.vhd into ./demo_out.  The testbench
applies seeded random vectors and asserts each product; every expected
value is re-derived arithmetically, and the same seeded vectors are
cross-checked in the built-in simulator before anything is written.
Both emitters and the simulator take the design's validation report.
"""

import pathlib

from csmulgen import GeneratorConfig, generate_multiplier, validate, verify_random
from csmulgen import tbgen
from csmulgen.sim import random_pairs
from csmulgen.vhdl import emit_vhdl

out = pathlib.Path("demo_out")
out.mkdir(exist_ok=True)

report = validate(generate_multiplier(GeneratorConfig(8, 8, pipelined=False)))
design = emit_vhdl(report)

pairs = random_pairs(8, 8, count=20, seed=6400)
check = verify_random(report, count=20, seed=6400)
if not check.passed:
    raise SystemExit(check.to_text())
bench = tbgen.emit_testbench(report, pairs)

(out / "mul_8x8.vhd").write_text(design, newline="\n")
(out / "mul_8x8_tb.vhd").write_text(bench, newline="\n")

print(f"wrote {out / 'mul_8x8.vhd'} ({len(design.splitlines())} lines)")
print(f"wrote {out / 'mul_8x8_tb.vhd'} ({len(bench.splitlines())} lines)")
a, b = pairs[0]
print(f"first vector: {a} * {b} = {a * b}")
print("first stimulus block of the testbench:")
lines = bench.splitlines()
start = next(i for i, ln in enumerate(lines) if "-- input vector" in ln)
print("\n".join(lines[start:start + 10]))
