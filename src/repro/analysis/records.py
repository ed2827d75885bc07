"""Run-record schema shared by benchmarks, examples and EXPERIMENTS.md.

Every experiment produces :class:`MeasurementRow` items; a
:class:`ExperimentRecord` groups the rows of one table/figure and can be
rendered by :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class MeasurementRow:
    """One measured point: a (scenario, metric) cell with optional
    paper reference value for side-by-side reporting."""

    scenario: str
    metric: str
    value: float
    unit: str
    paper_value: Optional[float] = None
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio_to_paper(self) -> Optional[float]:
        if self.paper_value in (None, 0):
            return None
        return self.value / self.paper_value


@dataclass
class ExperimentRecord:
    """All rows of one table or figure reproduction."""

    experiment: str  # e.g. "Table I", "Figure 4"
    description: str
    rows: List[MeasurementRow] = field(default_factory=list)

    def add(
        self,
        scenario: str,
        metric: str,
        value: float,
        unit: str,
        paper_value: Optional[float] = None,
        **detail: float,
    ) -> MeasurementRow:
        row = MeasurementRow(
            scenario=scenario,
            metric=metric,
            value=value,
            unit=unit,
            paper_value=paper_value,
            detail=dict(detail),
        )
        self.rows.append(row)
        return row

    def by_metric(self, metric: str) -> List[MeasurementRow]:
        return [r for r in self.rows if r.metric == metric]

    def value_of(self, scenario: str, metric: str) -> Optional[float]:
        for row in self.rows:
            if row.scenario == scenario and row.metric == metric:
                return row.value
        return None

    def ordering(self, metric: str, descending: bool = True) -> List[str]:
        """Scenario names ordered by measured value for one metric."""
        rows = sorted(
            self.by_metric(metric), key=lambda r: r.value, reverse=descending
        )
        return [r.scenario for r in rows]

    # ------------------------------------------------------------------
    # serialisation (archival of reproduction runs)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "description": self.description,
            "rows": [
                {
                    "scenario": r.scenario,
                    "metric": r.metric,
                    "value": r.value,
                    "unit": r.unit,
                    "paper_value": r.paper_value,
                    "detail": r.detail,
                }
                for r in self.rows
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        record = cls(data["experiment"], data["description"])
        for row in data["rows"]:
            record.add(
                row["scenario"],
                row["metric"],
                row["value"],
                row["unit"],
                paper_value=row.get("paper_value"),
                **row.get("detail", {}),
            )
        return record


#: paper reference values (Table I of the paper)
PAPER_TABLE1 = {
    ("linespeed", "tcp_mbps"): 474.0,
    ("dup3", "tcp_mbps"): 122.0,
    ("dup5", "tcp_mbps"): 72.0,
    ("central3", "tcp_mbps"): 145.0,
    ("central5", "tcp_mbps"): 78.0,
    ("linespeed", "udp_mbps"): 278.0,
    ("dup3", "udp_mbps"): 266.0,
    ("dup5", "udp_mbps"): 149.0,
    ("central3", "udp_mbps"): 245.0,
    ("central5", "udp_mbps"): 156.0,
    ("linespeed", "rtt_ms"): 0.181,
    ("dup3", "rtt_ms"): 0.189,
    ("dup5", "rtt_ms"): 0.26,
    ("central3", "rtt_ms"): 0.319,
    ("central5", "rtt_ms"): 0.415,
}


def paper_value(scenario: str, metric: str) -> Optional[float]:
    return PAPER_TABLE1.get((scenario, metric))


def paper_table1_values() -> Dict[str, Dict[str, float]]:
    """The paper's Table I as ``values[metric][scenario]`` — the layout
    the ``table1`` plan merges to and ``render_table1`` prints."""
    values: Dict[str, Dict[str, float]] = {}
    for (scenario, metric), value in PAPER_TABLE1.items():
        values.setdefault(metric, {})[scenario] = value
    return values
