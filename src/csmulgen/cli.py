"""Command-line front end: generate, verify, emit, report.

Writes <entity>.vhd, <entity>_tb.vhd and <entity>_metrics.json into the
output directory.  Exit codes: 0 success, 1 usage error, 2 netlist
validation errors, 3 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from . import metrics as metrics_mod
from . import tbgen
from .mulgen import (
    CapacityError, GeneratorConfig, generate_with_annotations, max_width_ceiling,
)
from .netlist import NetlistError, validate
from .sim import EXHAUSTIVE_GUARD_BITS, SimError, verify_exhaustive, verify_random
from .vhdl import EmissionError, check_identifier, default_entity_name, iter_vhdl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

AUTO_EXHAUSTIVE_BITS = 16
DEFAULT_TESTS = 100
DEFAULT_SEED = 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csmulgen",
        description="Generate a gate-level unsigned multiplier: structural VHDL, "
                    "a self-checking random testbench and a JSON metrics report.")
    parser.add_argument("--width-a", type=int, required=True,
                        help="bit width of operand x (>= 1)")
    parser.add_argument("--width-b", type=int, required=True,
                        help="bit width of operand y (>= 1)")
    parser.add_argument("--pipeline", action="store_true",
                        help="insert pipeline registers (one stage per iteration)")
    parser.add_argument("--tests", type=int, default=DEFAULT_TESTS,
                        help="number of testbench vectors (default %(default)s)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random seed for testbench vectors (default %(default)s)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--verify", choices=["off", "random", "exhaustive", "auto"],
                        default="auto",
                        help="simulator verification policy (default %(default)s): "
                             "auto is exhaustive for small widths, 100 random "
                             "vectors otherwise")
    parser.add_argument("--entity-name", default=None,
                        help="override the generated entity name")
    return parser


def run(args) -> int:
    try:
        max_width_ceiling()  # a malformed variable fails before any work
        if args.entity_name:
            check_identifier(args.entity_name)
    except (ValueError, EmissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.width_a < 1 or args.width_b < 1:
        print("error: operand widths must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.tests < 0:
        print("error: --tests must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.verify == "exhaustive" and args.width_a + args.width_b > EXHAUSTIVE_GUARD_BITS:
        print(f"error: exhaustive verification is capped at "
              f"{EXHAUSTIVE_GUARD_BITS} total input bits", file=sys.stderr)
        return EXIT_USAGE

    cfg = GeneratorConfig(args.width_a, args.width_b, args.pipeline)
    print(f"generating {cfg.width_a}x{cfg.width_b} "
          f"{'pipelined' if cfg.pipelined else 'combinational'} multiplier ...")
    t0 = time.perf_counter()
    try:
        nl, passes = generate_with_annotations(cfg)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    gen_ms = (time.perf_counter() - t0) * 1000.0

    report = validate(nl)
    if not report.is_valid():
        for finding in report.errors:
            print(f"validation error [{finding.code}]: {finding.message}",
                  file=sys.stderr)
        return EXIT_VALIDATION

    try:
        return _verify_and_write(args, cfg, nl, passes, gen_ms, report)
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def _verify_and_write(args, cfg, nl, passes, gen_ms, report) -> int:
    """Everything after validation: simulate, emit, self-check, write.

    Every stage shares the analysis `validate` computed, and `iter_vhdl`
    takes the report instead of validating again: the netlist does not
    change after generation.  `iter_vhdl` checks when called but renders
    only as the write block consumes it, chunk by chunk: no file is
    written before the self-check passes, and the whole design text is
    never held in memory.
    """
    an = report.analysis
    mode = args.verify
    if mode == "auto":
        mode = ("exhaustive"
                if cfg.width_a + cfg.width_b <= AUTO_EXHAUSTIVE_BITS else "random")
    if mode != "off":
        print(f"verifying ({mode}) ...")
        vrep = (verify_exhaustive(nl, analysis=an) if mode == "exhaustive"
                else verify_random(nl, DEFAULT_TESTS, args.seed, analysis=an))
        print(vrep.to_text())
        if not vrep.passed:
            return EXIT_VERIFICATION

    entity = args.entity_name or default_entity_name(nl)
    try:
        design_chunks = iter_vhdl(nl, entity_name=entity, report=report)
        plan = tbgen.make_plan(nl, args.tests, args.seed, analysis=an)
        tbgen.self_check_plan(nl, plan, analysis=an)
        tb_text = tbgen.emit_testbench(nl, plan, entity_name=entity)
    except (EmissionError, tbgen.PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

    mrep = metrics_mod.compute_metrics(nl, passes, generation_time_ms=round(gen_ms, 3),
                                       analysis=an)
    out_dir = args.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        design_path = out_dir / f"{entity}.vhd"
        tb_path = out_dir / f"{entity}_tb.vhd"
        metrics_path = out_dir / f"{entity}_metrics.json"
        with open(design_path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(design_chunks)
        tb_path.write_text(tb_text, encoding="utf-8", newline="\n")
        metrics_path.write_text(metrics_mod.render_json(mrep), encoding="utf-8",
                                newline="\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lat = mrep.latency
    lat_text = (f"{lat.cycles} cycles" if lat.pipelined
                else f"{lat.gate_units} gate units")
    print(f"wrote {design_path}")
    print(f"wrote {tb_path}")
    print(f"wrote {metrics_path}")
    print(f"components: {mrep.and_gates} and, {mrep.full_adders} fa, "
          f"{mrep.half_adders} ha, {mrep.dffs} dff; latency {lat_text}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one CLI job with the cyclic garbage collector paused.

    A netlist holds no reference cycles, so reference counting frees
    it; the collector would only rescan its many small objects while it
    grows.  The collector's previous state is restored on the way out.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
