"""Pipelined generation: uniform latency and per-cycle streaming.

The pipelined variant registers every reduction boundary, so after an
initial fill of L cycles the design produces one product per clock.
This script measures L, shows that every output bit agrees on it, and
streams a burst of operand pairs through the pipe.
"""

from csmulgen import GeneratorConfig, generate_multiplier
from csmulgen.netlist import analyze, compute_latency, max_stage_depth
from csmulgen.sim import simulate

nl = generate_multiplier(GeneratorConfig(8, 8, pipelined=True))
an = analyze(nl)
latency = compute_latency(nl, analysis=an).cycles

depths = sorted({d for bit in nl.output_p for d in (an.reg_min[bit], an.reg_max[bit])})
print(f"latency: {latency} cycles (per-bit register depths: {depths})")
print(f"worst logic depth between registers: {max_stage_depth(nl, analysis=an)} gate units")

feed = [(53, 23), (255, 255), (0, 77), (128, 2), (99, 101), (17, 34)]
print("streaming one pair per cycle:")
for t, ((a, b), got) in enumerate(zip(feed, simulate(nl, feed, analysis=an))):
    mark = "ok" if got == a * b else "WRONG"
    print(f"  cycle {t + latency:2d}: {a:3d} * {b:3d} -> {got:5d}  {mark}")
