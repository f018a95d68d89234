"""Reporting and analysis helpers for simulation results."""

from repro.analysis.compare import ComparisonTable
from repro.analysis.trace import (
    PhaseSpan,
    collect_timeline,
    phase_occupancy,
    to_chrome_trace,
)
from repro.analysis.report import (
    LayerRow,
    RunSummary,
    format_breakdown,
    format_layer_table,
    layer_rows,
)

__all__ = [
    "ComparisonTable",
    "PhaseSpan",
    "collect_timeline",
    "phase_occupancy",
    "to_chrome_trace",
    "LayerRow",
    "RunSummary",
    "format_breakdown",
    "format_layer_table",
    "layer_rows",
]
