"""Per-design statistics: component counts, reduction depth, latency.

Rendered as a versioned JSON document with a stable key order so two
runs of the same configuration are machine-diffable (only the
generation_time_ms field varies).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .netlist import (
    AND2, DFF, FULL_ADDER, HALF_ADDER, KINDS, LatencyInfo, ValidationReport,
    compute_latency,
)

SCHEMA_VERSION = 1


class MetricsReport(NamedTuple):
    width_a: int
    width_b: int
    pipelined: bool
    signals: int
    and_gates: int
    full_adders: int
    half_adders: int
    adders: int
    dffs: int
    reduction_stages: int
    latency: LatencyInfo
    generation_time_ms: float | None = None


def compute_metrics(report: ValidationReport, reduction_stages: int,
                    generation_time_ms: float | None = None) -> MetricsReport:
    """Exact counts of each primitive kind in the netlist of `report`,
    `validate(nl)`, and the latency `compute_latency` reads from it.

    The signals figure counts every port bit and internal wire; the
    clock is excluded.
    """
    nl = report.netlist
    counts = {kind: nl.kinds.count(code) for code, kind in enumerate(KINDS)}
    return MetricsReport(
        width_a=nl.width_a,
        width_b=nl.width_b,
        pipelined=nl.pipelined,
        signals=nl.signal_count - (nl.clock is not None),
        and_gates=counts[AND2],
        full_adders=counts[FULL_ADDER],
        half_adders=counts[HALF_ADDER],
        adders=counts[FULL_ADDER] + counts[HALF_ADDER],
        dffs=counts[DFF],
        reduction_stages=reduction_stages,
        latency=compute_latency(report),
        generation_time_ms=generation_time_ms,
    )


def render_json(report: MetricsReport) -> str:
    doc = {"schema_version": SCHEMA_VERSION, **dict(zip(report._fields, report))}
    doc["latency"] = dict(zip(report.latency._fields, report.latency))
    return json.dumps(doc, indent=2) + "\n"
