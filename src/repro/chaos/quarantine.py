"""Self-healing glue: turn availability alarms into quarantine actions.

The paper stops at the alarm — "the network administrator … can take the
faulty router out of service" (Section V).  :class:`QuarantineController`
automates that administrator: it subscribes to the compare element's
alarm topic and, on ``ALARM_ROUTER_UNAVAILABLE``, asks the compare to
quarantine the branch (shrinking the quorum from k to k−1 so forwarding
continues; with k=3 nothing is masked any more, which the critical alarm
severity records).  The compare itself re-admits the branch after its
probation window of clean copies; the controller just keeps the ordered
transition log that RunReports and tests consume.

Because ``TraceBus.emit`` dispatches synchronously, the quarantine
happens *inside* the unavailability alarm's emit — the alarm record
always precedes the quarantine record, the ordering the tests pin down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_ROUTER_UNAVAILABLE,
)
from repro.obs.metrics import bind_counter
from repro.sim.trace import TraceBus, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compare import CompareCore


class QuarantineController:
    """Listens for availability alarms and quarantines the branch.

    ``core`` is any quorum element with the membership API — the
    data-plane :class:`~repro.core.compare.CompareCore` or the
    control-plane :class:`~repro.ctrl.compare.ControlCompare`.
    ``trigger_kinds`` selects which alarms provoke a quarantine; the
    control plane adds ``ALARM_MINORITY_DIVERGENCE`` (a lying replica
    diverges rather than going silent).
    """

    def __init__(
        self,
        core: "CompareCore",
        trace_bus: TraceBus,
        trigger_kinds: Sequence[str] = (ALARM_ROUTER_UNAVAILABLE,),
    ) -> None:
        self.core = core
        self._bus = trace_bus
        self._trigger_kinds = tuple(trigger_kinds)
        #: ordered transition log: dicts of time/event/branch
        self.transitions: List[dict] = []
        self._c_transitions = bind_counter(
            "quarantine_transitions_total",
            "branch quarantine/readmit transitions",
            labelnames=("event",),
        )
        trace_bus.subscribe("alarm", self._on_alarm)

    def detach(self) -> None:
        self._bus.unsubscribe("alarm", self._on_alarm)

    # ------------------------------------------------------------------
    def _on_alarm(self, record: TraceRecord) -> None:
        if record.source != self.core.name:
            return
        kind = record.data.get("kind")
        branch = record.data.get("branch")
        if kind in self._trigger_kinds:
            if branch is None or self.core.is_quarantined(branch):
                return
            # Re-entrant: quarantine_branch raises ALARM_BRANCH_QUARANTINED,
            # which lands back here (below) while this frame is live.
            self.core.quarantine_branch(branch, reason=kind)
        elif kind == ALARM_BRANCH_QUARANTINED:
            self._log(record.time, "quarantine", branch)
        elif kind == ALARM_BRANCH_READMITTED:
            self._log(record.time, "readmit", branch)

    def _log(self, time: float, event: str, branch: Optional[int]) -> None:
        self.transitions.append({"time": time, "event": event, "branch": branch})
        if self._c_transitions is not None:
            self._c_transitions.labels(event).inc()

    # ------------------------------------------------------------------
    def quarantined_branches(self) -> List[int]:
        return self.core.quarantined_branches()

    def __repr__(self) -> str:
        return (
            f"QuarantineController(core={self.core.name!r}, "
            f"transitions={len(self.transitions)})"
        )
