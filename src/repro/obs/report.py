"""Run reports: deterministic JSON snapshots of one experiment run.

A :class:`RunReport` bundles everything the CI regression gate and a
human reader need from a run: the flattened metrics snapshot, the
experiment records, packet-lifecycle span statistics, and farm progress.
Every value in a report derives from simulated time and seeded RNG
streams, so the same experiment at the same seed produces an identical
report — which is what lets ``repro obs diff`` compare a fresh run
against a checked-in baseline and fail loudly when a watched counter
drifts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import sanitise_value

__all__ = [
    "RunReport",
    "WatchRule",
    "DEFAULT_WATCHES",
    "DiffFinding",
    "diff_reports",
    "dump_records_jsonl",
]

REPORT_VERSION = 1


# ----------------------------------------------------------------------
# the report itself
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One run's worth of observability output, JSON-serialisable."""

    name: str
    meta: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)
    spans: Dict[str, Any] = field(default_factory=dict)
    farm: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "name": self.name,
            "meta": self.meta,
            "metrics": self.metrics,
            "records": self.records,
            "spans": self.spans,
            "farm": self.farm,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        version = data.get("version", REPORT_VERSION)
        if version > REPORT_VERSION:
            raise ValueError(f"run report version {version} is newer than {REPORT_VERSION}")
        return cls(
            name=data.get("name", ""),
            meta=dict(data.get("meta", {})),
            metrics=dict(data.get("metrics", {})),
            records=list(data.get("records", [])),
            spans=dict(data.get("spans", {})),
            farm=data.get("farm"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def counter_value(self, key: str) -> float:
        """Scalar value of one sample key (histograms yield their count)."""
        value = self.metrics.get(key, 0.0)
        if isinstance(value, dict):
            return float(value.get("count", 0))
        return float(value)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WatchRule:
    """A regression watch over metric sample keys.

    ``pattern`` is an ``fnmatch`` glob over the full flattened sample key
    (name plus labels).  A matched value regresses when it exceeds both
    ``base * max_ratio`` and ``base + max_increase`` — the absolute slack
    keeps tiny baselines (0 or 1 drops) from tripping on noise, the ratio
    keeps large baselines honest.
    """

    pattern: str
    max_ratio: float = 1.25
    max_increase: float = 0.0
    note: str = ""

    def breached(self, base: float, new: float) -> bool:
        return new > base * self.max_ratio and new > base + self.max_increase


#: watches applied by ``repro obs diff`` when none are supplied: the
#: counters whose growth historically signals a real regression.
DEFAULT_WATCHES = (
    WatchRule("flowtable_scan_steps_total*", max_ratio=1.25, max_increase=64.0,
              note="wildcard scan work per lookup crept up (index regression?)"),
    WatchRule("flowtable_lookups_total*", max_ratio=1.5, max_increase=256.0,
              note="more lookups for the same workload"),
    WatchRule("link_queue_drops_total*", max_ratio=1.2, max_increase=16.0,
              note="drop-tail losses grew"),
    WatchRule("switch_dropped_service_queue_total*", max_ratio=1.2, max_increase=16.0,
              note="switch service queue overflowed more often"),
    WatchRule("compare_queue_drops_total*", max_ratio=1.2, max_increase=16.0,
              note="compare processor queue overflowed more often"),
    WatchRule("compare_expired_unreleased_total*", max_ratio=1.25, max_increase=16.0,
              note="more packets timed out without reaching quorum"),
    WatchRule("host_rx_dropped_total*", max_ratio=1.2, max_increase=16.0,
              note="host receive queues overflowed more often"),
    WatchRule("sim_events_processed_total*", max_ratio=1.3, max_increase=4096.0,
              note="event count blew up for the same workload"),
)


@dataclass
class DiffFinding:
    """One watched sample key's base-vs-new comparison."""

    key: str
    base: float
    new: float
    rule: WatchRule
    breached: bool

    def describe(self) -> str:
        status = "FAIL" if self.breached else "ok"
        line = f"[{status}] {self.key}: {self.base:g} -> {self.new:g}"
        if self.breached and self.rule.note:
            line += f"  ({self.rule.note})"
        return line


def diff_reports(
    base: RunReport,
    new: RunReport,
    watches: Iterable[WatchRule] = DEFAULT_WATCHES,
) -> List[DiffFinding]:
    """Compare two reports under the given watches.

    Every sample key present in either report is tested against the
    first watch whose pattern matches it; keys nothing watches are
    ignored.  Findings are returned for all watched keys (breached or
    not) so callers can render the full comparison.
    """
    watches = list(watches)
    findings: List[DiffFinding] = []
    keys = sorted(set(base.metrics) | set(new.metrics))
    for key in keys:
        for rule in watches:
            if fnmatchcase(key, rule.pattern):
                base_v = base.counter_value(key)
                new_v = new.counter_value(key)
                findings.append(
                    DiffFinding(
                        key=key,
                        base=base_v,
                        new=new_v,
                        rule=rule,
                        breached=rule.breached(base_v, new_v),
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# JSONL trace dumps
# ----------------------------------------------------------------------
def dump_records_jsonl(records: Iterable, fh) -> int:
    """Write trace records as JSON lines; returns the line count."""
    count = 0
    for record in records:
        fh.write(
            json.dumps(
                {
                    "time": record.time,
                    "topic": record.topic,
                    "source": record.source,
                    "data": {k: sanitise_value(v) for k, v in record.data.items()},
                },
                sort_keys=True,
            )
        )
        fh.write("\n")
        count += 1
    return count
