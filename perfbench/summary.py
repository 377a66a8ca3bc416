"""Trace summary: per-layer self time and exact counts, per workload.

Prints each traced workload next to the per-call baseline that ROADMAP
item 1 measured at the commit this benchmark was defined on (Python
3.11.7, 2 cores, single runs).  A measured time more than five
times off its baseline, or a primitive count that differs at all, is
flagged: it most likely means a wrapper sits on the wrong name.

    python3 perfbench/summary.py        # every trace_*.json written so far
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import jobs as jobs_mod
import tracer

# ROADMAP item-1 baseline, milliseconds per call; "prims" is exact.
# verify_random is omitted for 8x8p, which the CLI verifies exhaustively.
# self_check_plan was measured with 100 vectors and is linear in them, so
# it is scaled to the job's --tests.
BASELINE = {
    "8x8p": {"prims": 510, "generate": 3.5, "validate": 1.2, "compute_latency": 30,
             "self_check_plan": 850, "emit_vhdl": 3.2},
    "16x16p": {"prims": 2341, "generate": 17, "validate": 7.9, "compute_latency": 220,
               "verify_random": 25, "self_check_plan": 5399, "emit_vhdl": 8.0},
}
SPAN_FOR = {
    "generate": "mulgen.generate",
    "validate": "netlist.validate",
    "compute_latency": "mulgen.compute_latency",
    "verify_random": "sim.verify",
    "self_check_plan": "tbgen.self_check_plan",
    "emit_vhdl": "vhdl.emit_vhdl",
}
PLAUSIBLE_RATIO = 5.0
EXACT_COUNTS = [
    "mulgen.cells", "mulgen.dffs", "mulgen.reduction_passes", "mulgen.latency_calls",
    "netlist.findings", "netlist.register_depth_calls", "netlist.topo_sort_calls",
    "sim.vectors_verified", "sim.run_to_output_calls", "tbgen.bytes", "vhdl.bytes",
    "trace.spans",
]


def baseline_rows(spans, tests):
    """(job, function, calls, measured ms per call, baseline, flag) rows.

    `tests` maps a job name to its --tests value.
    """
    per_job = defaultdict(lambda: defaultdict(list))
    prims = {}
    for s in spans:
        per_job[s[tracer.JOB]][s[tracer.NAME]].append((s[tracer.END] - s[tracer.START]) / 1e6)
        if s[tracer.NAME] == "mulgen.generate" and s[tracer.COUNTS]:
            prims[s[tracer.JOB]] = s[tracer.COUNTS]["prims"]
    rows = []
    for job, base in BASELINE.items():
        if job not in per_job:
            continue
        got = prims.get(job)
        rows.append((job, "prims", 1, got, base["prims"],
                     "" if got == base["prims"] else "CHECK: count differs"))
        for fn, span_name in SPAN_FOR.items():
            if fn not in base:
                continue
            times = per_job[job].get(span_name, [])
            mean = sum(times) / len(times) if times else 0.0
            expected = base[fn] * (tests[job] / 100 if fn == "self_check_plan" else 1)
            ratio = mean / expected
            flag = ("" if 1 / PLAUSIBLE_RATIO <= ratio <= PLAUSIBLE_RATIO
                    else "CHECK: wrapper misplaced?")
            rows.append((job, fn, len(times), mean, round(expected, 1), flag))
    return rows


def render(doc):
    """Text summary of one traced workload (a tracer.py output document)."""
    spans = doc["spans"]
    metrics = tracer.layer_metrics(spans, [], 0.0)
    lines = [f"trace summary: workload {doc['workload']}, seed {doc['seed']}, "
             f"{len(doc['jobs'])} jobs"]
    if doc["missing"]:
        lines.append("  wrapped names not found (0 calls): " + ", ".join(doc["missing"]))
    lines.append(f"  {'layer':<8} {'self_ms':>12} {'errors':>6}")
    for layer in tracer.LAYERS:
        lines.append(f"  {layer:<8} {metrics[layer + '.self_ms']:>12.1f} "
                     f"{metrics[layer + '.errors']:>6}")
    lines.append("  exact counts: " + ", ".join(f"{k}={metrics[k]}" for k in EXACT_COUNTS))
    ref = jobs_mod.load_reference()
    rows = baseline_rows(spans, {name: spec["tests"] for name, spec in ref["jobs"].items()})
    if rows:
        lines.append(f"  {'job':<7} {'function':<16} {'calls':>5} {'measured':>10} "
                     f"{'baseline':>9}  (ms per call; prims exact)")
        for job, fn, calls, got, base, flag in rows:
            shown = "-" if got is None else f"{got:.1f}"
            lines.append(f"  {job:<7} {fn:<16} {calls:>5} {shown:>10} {base:>9}  {flag}")
    return "\n".join(lines)


def main():
    paths = sorted(jobs_mod.WORK_ROOT.glob("trace_*.json"))
    if not paths:
        print("no traces yet: run `python3 perfbench/run.py ... --trace 1` first",
              file=sys.stderr)
        return 1
    for path in paths:
        print(render(json.loads(path.read_text(encoding="utf-8"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
