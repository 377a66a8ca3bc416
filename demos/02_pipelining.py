"""Pipelined generation: uniform latency and per-cycle streaming.

The pipelined variant registers every reduction boundary, so after an
initial fill of L cycles the design produces one product per clock.
This script validates the design, reads L and the worst logic depth
between registers from the validation report, and streams a burst of
operand pairs through the pipe.
"""

from csmulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import compute_latency, validate
from csmulgen.sim import simulate

nl = generate_multiplier(GeneratorConfig(8, 8, pipelined=True))
report = validate(nl)
latency = compute_latency(report).cycles

print(f"latency: {latency} cycles, the same on every output bit")
print(f"worst logic depth between registers: {report.stage_depth} gate units")

feed = [(53, 23), (255, 255), (0, 77), (128, 2), (99, 101), (17, 34)]
print("streaming one pair per cycle:")
for t, ((a, b), got) in enumerate(zip(feed, simulate(report, feed))):
    mark = "ok" if got == a * b else "WRONG"
    print(f"  cycle {t + latency:2d}: {a:3d} * {b:3d} -> {got:5d}  {mark}")
