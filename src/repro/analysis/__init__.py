"""Experiment records, farm tasks and plain-text reporting.

The evaluation grids themselves live in :mod:`repro.plan.builtin`
(``builtin_plan("fig7").run(farm)``).
"""

from repro.analysis.records import (
    ExperimentRecord,
    MeasurementRow,
    PAPER_TABLE1,
    paper_table1_values,
    paper_value,
)
from repro.analysis.report import (
    format_table,
    render_farm_summary,
    render_record,
    render_series,
    render_table1,
)

__all__ = [
    "ExperimentRecord",
    "MeasurementRow",
    "PAPER_TABLE1",
    "paper_table1_values",
    "paper_value",
    "format_table",
    "render_farm_summary",
    "render_record",
    "render_series",
    "render_table1",
]
