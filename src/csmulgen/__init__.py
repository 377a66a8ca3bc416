"""Gate-level unsigned multiplier generator.

Builds AND-network / carry-save-tree / ripple-carry multiplier
netlists at arbitrary operand widths, optionally pipelined, verifies
them against exact big-integer products with a built-in simulator, and
emits structural VHDL plus a self-checking randomized testbench.
"""

from .mulgen import (
    CapacityError, GeneratorConfig, generate_multiplier, generate_with_annotations,
)
from .metrics import MetricsReport, compute_metrics, render_json
from .netlist import LatencyInfo, Netlist, ValidationReport, compute_latency, validate
from .sim import VerificationReport, simulate, verify_exhaustive, verify_random
from .tbgen import emit_testbench
from .vhdl import emit_vhdl

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "GeneratorConfig", "LatencyInfo", "MetricsReport",
    "Netlist", "ValidationReport", "VerificationReport",
    "compute_latency", "compute_metrics", "emit_testbench", "emit_vhdl",
    "generate_multiplier", "generate_with_annotations",
    "render_json", "simulate", "validate",
    "verify_exhaustive", "verify_random",
]
