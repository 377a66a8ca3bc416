"""Survey component counts and latency across operand widths.

Generates both variants for a range of square widths and tabulates the
metrics reports, showing how adder count grows quadratically while the
pipelined cycle count grows only with the number of reduction stages.
"""

from csmulgen import GeneratorConfig
from csmulgen.metrics import compute_metrics, render_json
from csmulgen.mulgen import generate_with_annotations
from csmulgen.netlist import validate

print(f"{'n':>3} {'mode':<13} {'and':>5} {'fa':>5} {'ha':>4} "
      f"{'dff':>6} {'stages':>6} {'latency':>10}")
for n in (4, 8, 16, 32):
    for pipe in (False, True):
        nl, passes = generate_with_annotations(GeneratorConfig(n, n, pipe))
        m = compute_metrics(validate(nl), passes)
        lat = (f"{m.latency.cycles} cyc" if pipe
               else f"{m.latency.gate_units} gates")
        mode = "pipelined" if pipe else "combinational"
        print(f"{n:>3} {mode:<13} {m.and_gates:>5} {m.full_adders:>5} "
              f"{m.half_adders:>4} {m.dffs:>6} {m.reduction_stages:>6} "
              f"{lat:>10}")

print()
print("full JSON report for the pipelined 8x8 design:")
nl, passes = generate_with_annotations(GeneratorConfig(8, 8, True))
print(render_json(compute_metrics(validate(nl), passes)), end="")
