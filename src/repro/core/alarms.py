"""Alarm reporting for the NetCo compare element.

The paper (Section IV) describes two operator-facing signals:

* a router that stops delivering copies of consecutive packets is assumed
  unavailable and "raises an alarm to the network administrator";
* a router flooding one ingress port triggers the DoS mitigation (the
  compare advises the switch to block the port).

:class:`AlarmSink` collects these as structured records and mirrors them
onto the trace bus so tests and operators can observe them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceBus

ALARM_ROUTER_UNAVAILABLE = "router_unavailable"
ALARM_DOS_SUSPECTED = "dos_suspected"
ALARM_SINGLE_SOURCE_PACKET = "single_source_packet"
ALARM_SPOOFED_BRANCH = "spoofed_branch"
ALARM_MINORITY_DIVERGENCE = "minority_divergence"
#: a branch was taken out of the vote (self-healing; Section V's
#: "take the faulty router out of service", automated)
ALARM_BRANCH_QUARANTINED = "branch_quarantined"
#: a quarantined branch completed its probation window and rejoined
ALARM_BRANCH_READMITTED = "branch_readmitted"
#: a stored copy no longer encodes to the bytes that were voted for it
#: (its sender rewrote it after submitting); the release is refused
ALARM_COPY_REWRITTEN = "copy_rewritten"


@dataclass(frozen=True)
class Alarm:
    """One operator alarm raised by a trusted component."""

    time: float
    kind: str
    source: str
    branch: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        branch = f" branch={self.branch}" if self.branch is not None else ""
        return f"[{self.time:.6f}] {self.kind} from {self.source}{branch} {self.details}"


class AlarmSink:
    """Collects alarms; optionally mirrors them to a trace bus."""

    def __init__(self, trace_bus: Optional[TraceBus] = None) -> None:
        self._trace_bus = trace_bus
        self.alarms: List[Alarm] = []

    def raise_alarm(
        self,
        time: float,
        kind: str,
        source: str,
        branch: Optional[int] = None,
        **details: Any,
    ) -> Alarm:
        alarm = Alarm(time=time, kind=kind, source=source, branch=branch, details=details)
        self.alarms.append(alarm)
        if self._trace_bus is not None:
            self._trace_bus.emit(time, "alarm", source, kind=kind, branch=branch, **details)
        return alarm

    def of_kind(self, kind: str) -> List[Alarm]:
        return [a for a in self.alarms if a.kind == kind]

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.alarms)
        return len(self.of_kind(kind))

    def counts(self) -> Dict[str, int]:
        """Alarms per kind, in order of first occurrence."""
        counts: Dict[str, int] = {}
        for alarm in self.alarms:
            counts[alarm.kind] = counts.get(alarm.kind, 0) + 1
        return counts

    def clear(self) -> None:
        self.alarms.clear()
