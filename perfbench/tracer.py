"""Traced in-process run: spans around the calls into each csmulgen layer.

The wrappers are installed from outside the program, at the names each
calling module looks up (`sim.topological_order`, `tbgen.compute_latency`,
...), so `src/` carries no tracing code.  Each span records its name,
start, end, parent span, job and whether it raised.  Spans stay in
memory and are written out when the run ends.

Run as a script, it traces one workload's job list and writes the spans
and the checked job results as JSON:

    python3 perfbench/tracer.py --workload pipelined_mid --seed 1 --out spans.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import jobs as jobs_mod

# (module, attribute, span name).  The layer is the span name's prefix.
WRAPPED = [
    ("csmulgen.cli", "generate_with_annotations", "mulgen.generate"),
    ("csmulgen.mulgen", "reduce_step", "mulgen.reduce_step"),
    ("csmulgen.tbgen", "compute_latency", "mulgen.compute_latency"),
    ("csmulgen.metrics", "compute_latency", "mulgen.compute_latency"),
    ("csmulgen.cli", "validate", "netlist.validate"),
    ("csmulgen.vhdl", "validate", "netlist.validate"),
    ("csmulgen.mulgen", "register_depth", "netlist.register_depth"),
    ("csmulgen.sim", "register_depth", "netlist.register_depth"),
    ("csmulgen.mulgen", "levelize", "netlist.levelize"),
    ("csmulgen.netlist", "topological_order", "netlist.topological_order"),
    ("csmulgen.sim", "topological_order", "netlist.topological_order"),
    ("csmulgen.cli", "verify_exhaustive", "sim.verify"),
    ("csmulgen.cli", "verify_random", "sim.verify"),
    ("csmulgen.tbgen", "run_to_output", "sim.run_to_output"),
    ("csmulgen.tbgen", "make_plan", "tbgen.make_plan"),
    ("csmulgen.tbgen", "self_check_plan", "tbgen.self_check_plan"),
    ("csmulgen.tbgen", "emit_testbench", "tbgen.emit_testbench"),
    ("csmulgen.cli", "emit_vhdl", "vhdl.emit_vhdl"),
    ("csmulgen.metrics", "compute_metrics", "metrics.compute_metrics"),
    ("csmulgen.metrics", "render_json", "metrics.render_json"),
]
JOB_SPAN = "cli.main"
LAYERS = ["mulgen", "netlist", "sim", "tbgen", "vhdl", "metrics", "cli"]


def _generated(result):
    nl = result[0]
    return {"prims": len(nl.primitives),
            "dffs": sum(1 for p in nl.primitives if p.kind == "dff")}


# Exact counts taken from a wrapped call's return value.
OBSERVERS = {
    "mulgen.generate": _generated,
    "netlist.validate": lambda report: {"findings": len(report.findings)},
    "sim.verify": lambda report: {"vectors": report.tested},
    "tbgen.emit_testbench": lambda text: {"bytes": len(text.encode("utf-8"))},
    "vhdl.emit_vhdl": lambda text: {"bytes": len(text.encode("utf-8"))},
}

# Span fields, in the order they are stored and written.
NAME, START, END, PARENT, JOB, ERROR, COUNTS = range(7)


class Tracer:
    """Span recorder; `install` patches the wrapped names, `uninstall` restores them."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.job = None
        self._stack = []
        self._patched = []

    def install(self):
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                # A renamed or removed function reports 0 calls.
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, span_name))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, observe, fn, *args, **kwargs)

        return traced

    def call(self, name, observe, fn, *args, **kwargs):
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, self.job, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        if observe is not None:
            span[COUNTS] = observe(result)
        return result


def import_cli():
    """Import csmulgen.cli from this checkout's src/, never from elsewhere."""
    if str(jobs_mod.SRC) not in sys.path:
        sys.path.insert(0, str(jobs_mod.SRC))
    cli = importlib.import_module("csmulgen.cli")
    if Path(cli.__file__).resolve().parent.parent != jobs_mod.SRC:
        raise ImportError(f"csmulgen imported from {cli.__file__}, not {jobs_mod.SRC}")
    return cli


def traced_run(job_list, seed: int, work_dir: Path):
    """Run each job through `csmulgen.cli.main` with the wrappers installed.

    Returns (tracer, results); each result carries the same correctness
    checks as a CLI subprocess job.
    """
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    results = []
    try:
        for job in job_list:
            out_dir = jobs_mod.fresh_dir(work_dir / job.name)
            stdout = io.StringIO()
            result = jobs_mod.JobResult(job)
            tracer.job = job.name
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = tracer.call(JOB_SPAN, None, cli.main, job.argv(seed, out_dir))
            except Exception as exc:  # a crashing job is counted, not fatal
                result.problems.append(f"raised {exc!r}")
                code = None
            result.wall_s = time.perf_counter() - t0
            results.append(jobs_mod.check_job(result, code, stdout.getvalue(), out_dir))
    finally:
        tracer.uninstall()
        tracer.job = None
    return tracer, results


def layer_metrics(spans, results, untraced_net_s: float):
    """Every per-layer metric from a traced run's spans and job results.

    `untraced_net_s` is the same jobs' CLI time minus interpreter set-up;
    the traced jobs' wall time over it is the tracing overhead.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def counts(i):  # a span that raised has no counts
        return spans[i][COUNTS] or {}

    prims = {spans[i][JOB]: counts(i).get("prims", 0) for i in by_name["mulgen.generate"]}

    def calls(name):
        return len(by_name[name])

    def ms(name):
        return sum(dur[i] for i in by_name[name]) / 1e6

    def count(name, key):
        return sum(counts(i).get(key, 0) for i in by_name[name])

    def per_cell(name, scale_ns, weight=lambda i: 1):
        cells = sum(prims.get(spans[i][JOB], 0) * weight(i) for i in by_name[name])
        return ms(name) * 1e6 / scale_ns / cells if cells else 0.0

    layer_self = dict.fromkeys(LAYERS, 0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    for i, s in enumerate(spans):
        layer = s[NAME].split(".", 1)[0]
        layer_self[layer] += dur[i] - child[i]
        layer_errors[layer] += s[ERROR]

    traced_s = sum(r.wall_s for r in results)
    out = {
        "mulgen.generate_ms": ms("mulgen.generate"),
        "mulgen.generate_us_per_cell": per_cell("mulgen.generate", 1e3),
        "mulgen.latency_ms": ms("mulgen.compute_latency"),
        "mulgen.latency_calls": calls("mulgen.compute_latency"),
        "mulgen.reduction_passes": calls("mulgen.reduce_step"),
        "mulgen.dffs": count("mulgen.generate", "dffs"),
        "mulgen.cells": count("mulgen.generate", "prims"),
        "mulgen.latency_cycles": sum(r.latency_cycles for r in results),
        "netlist.validate_ms": ms("netlist.validate"),
        "netlist.validate_us_per_cell": per_cell("netlist.validate", 1e3),
        "netlist.findings": count("netlist.validate", "findings"),
        "netlist.register_depth_calls": calls("netlist.register_depth"),
        "netlist.register_depth_ms": ms("netlist.register_depth"),
        "netlist.topo_sort_calls": calls("netlist.topological_order"),
        "netlist.topo_sort_ms": ms("netlist.topological_order"),
        "sim.verify_ms": ms("sim.verify"),
        "sim.vectors_verified": count("sim.verify", "vectors"),
        "sim.verify_ns_per_vector_cell": per_cell(
            "sim.verify", 1.0, lambda i: counts(i).get("vectors", 0)),
        "sim.run_to_output_calls": calls("sim.run_to_output"),
        "sim.run_to_output_ms": ms("sim.run_to_output"),
        "tbgen.plan_ms": ms("tbgen.make_plan"),
        "tbgen.self_check_ms": ms("tbgen.self_check_plan"),
        "tbgen.emit_ms": ms("tbgen.emit_testbench"),
        "tbgen.bytes": count("tbgen.emit_testbench", "bytes"),
        "vhdl.emit_ms": ms("vhdl.emit_vhdl"),
        "vhdl.emit_us_per_cell": per_cell("vhdl.emit_vhdl", 1e3),
        "vhdl.bytes": count("vhdl.emit_vhdl", "bytes"),
        "metrics.compute_ms": ms("metrics.compute_metrics"),
        "metrics.render_ms": ms("metrics.render_json"),
        "cli.job_ms": ms(JOB_SPAN),
        "trace.spans": len(spans),
        "trace.overhead_ratio": traced_s / untraced_net_s if untraced_net_s > 0 else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
        out[f"{layer}.errors"] = layer_errors[layer]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    job_list = jobs_mod.workload_jobs(jobs_mod.load_reference(), args.workload)
    work_dir = jobs_mod.fresh_dir(jobs_mod.WORK_ROOT / f"{args.workload}.traced")
    tracer, results = traced_run(job_list, args.seed, work_dir)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "missing": tracer.missing,
        "jobs": [{"name": r.job.name, "problems": r.problems, "wall_s": r.wall_s,
                  "vectors": r.vectors, "cells": r.cells,
                  "latency_cycles": r.latency_cycles, "vhdl_bytes": r.vhdl_bytes}
                 for r in results],
        "spans": tracer.spans,
    }
    args.out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
