"""Build a small multiplier netlist and watch it multiply.

Generates a combinational 4x4 design, prints its composition, then
checks a handful of products against Python's own arithmetic and runs
the full exhaustive sweep.
"""

from csmulgen import (
    GeneratorConfig, compute_latency, generate_multiplier,
    simulate, validate, verify_exhaustive,
)

cfg = GeneratorConfig(width_a=4, width_b=4, pipelined=False)
nl = generate_multiplier(cfg)

print(f"4x4 multiplier: {len(nl.primitives)} primitives, "
      f"{nl.signal_count} signals")
print(f"validation findings: {len(validate(nl).findings)}")
print(f"critical path: {compute_latency(nl).gate_units} gate units")

pairs = [(0, 0), (3, 5), (15, 15), (9, 11)]
for (a, b), product in zip(pairs, simulate(nl, pairs)):
    print(f"  {a:2d} * {b:2d} = {product}")

report = verify_exhaustive(nl)
print(report.to_text())
