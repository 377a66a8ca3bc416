"""Build a small multiplier netlist and watch it multiply.

Generates a combinational 4x4 design, validates it and prints its
composition, then checks a handful of products against Python's own
arithmetic and runs the full exhaustive sweep.  Every stage after
validation takes the validation report.
"""

from csmulgen import (
    GeneratorConfig, compute_latency, generate_multiplier,
    simulate, validate, verify_exhaustive,
)

cfg = GeneratorConfig(width_a=4, width_b=4, pipelined=False)
nl = generate_multiplier(cfg)

print(f"4x4 multiplier: {len(nl.primitives)} primitives, "
      f"{nl.signal_count} signals")
report = validate(nl)
print(f"validation findings: {len(report.findings)}")
print(f"critical path: {compute_latency(report).gate_units} gate units")

pairs = [(0, 0), (3, 5), (15, 15), (9, 11)]
for (a, b), product in zip(pairs, simulate(report, pairs)):
    print(f"  {a:2d} * {b:2d} = {product}")

print(verify_exhaustive(report).to_text())
