"""The trusted control-plane voter (P4BFT-style quorum over flow-mods).

:class:`ControlCompare` is to the control plane what
:class:`~repro.core.compare.CompareCore` is to the data plane: a trusted
element that receives every replica's outbound control message, votes on
the canonical byte encoding (:mod:`repro.ctrl.digest`), and releases a
message to the switch only once a strict majority of replicas produced a
byte-identical copy.  Both are adapters of the one
:class:`~repro.core.membership.QuorumVoter`: the vote, the expiry sweep,
the two failure signatures and quarantine / dynamic quorum / probation
re-admission are that class's, byte for byte what the data-plane compare
runs, and the shared alarm kinds let the existing
:class:`~repro.chaos.quarantine.QuarantineController` close the loop
unchanged (pointed at this voter instead of a compare core).  What is
the control plane's own: the vote key ``(datapath_id, digest(message))``
(the entry's payload slot holds the first counted copy), release
through ``register_switch``, and the taint / entry-trace / ``blocked_*``
accounting.

The copies are objects the replicas built and still hold, so what is
released is the copy whose arrival completed the quorum — digested in
that same call, before its replica runs again.  A quorum shrink releases
with no copy arriving: the stored copy is encoded again and refused,
with ``ALARM_COPY_REWRITTEN``, if its bytes moved.

Two failure signatures are distinguished:

* a replica that *stops emitting* (crash) goes missing from released
  decisions; ``miss_threshold`` consecutive misses raise
  ``ALARM_ROUTER_UNAVAILABLE`` — same rule, same alarm as a silent
  router;
* a replica that *lies* (compromise) emits bytes no majority ever
  confirms; its entries expire unreleased, and after
  ``divergence_threshold`` strikes the voter raises
  ``ALARM_MINORITY_DIVERGENCE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.alarms import ALARM_COPY_REWRITTEN, AlarmSink
from repro.core.membership import QuorumConfig, QuorumVoter
from repro.core.votes import VoteEntry, VoteOutcome
from repro.ctrl.digest import DigestError, digest
from repro.obs.metrics import StatBlock, bind_histogram
from repro.openflow.messages import FlowMod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus

__all__ = ["ControlCompareConfig", "CtrlStats", "ControlCompare"]


@dataclass
class ControlCompareConfig(QuorumConfig):
    """Tunable parameters of the control-plane voter."""

    #: how long a decision waits for its majority before it is voided;
    #: replicas answer the same fanned-out event synchronously (plus
    #: their service time), so this can be much shorter than a data-plane
    #: buffer timeout
    vote_timeout: float = 2e-3
    miss_threshold: int = 4
    #: the lying signature; 1 = zero tolerance
    divergence_threshold: int = 1
    probation_clean_target: int = 6
    #: the control plane may degrade all the way to one replica (an
    #: unreplicated controller is today's baseline, not an outage)
    min_active_branches: int = 1

    def validate(self) -> None:
        super().validate()
        if self.vote_timeout <= 0:
            raise ValueError("vote_timeout must be positive")


class CtrlStats(StatBlock):
    """Counters exposed by a control-plane voter."""

    __slots__ = (
        "submissions",
        "released",
        "late_copies",
        "branch_duplicates",
        # decisions voided: expired without a majority
        "blocked_no_quorum",
        # decisions voided that only ever had probation votes
        "blocked_quarantined",
        "expired_released",
        "quarantined_copies",
        # released decisions whose digest a compromised replica also
        # emitted — the acceptance metric; must stay 0 under a minority
        # of liars
        "malicious_released",
        "quarantines",
        "readmissions",
        "probation_resets",
    )

    @property
    def blocked(self) -> int:
        return self.blocked_no_quorum + self.blocked_quarantined

    def as_dict(self) -> dict:
        data = super().as_dict()
        data["blocked"] = self.blocked
        return data


class ControlCompare(QuorumVoter):
    """Majority vote over replica control messages, per switch."""

    trace_prefix = "ctrl"

    def __init__(
        self,
        sim: Simulator,
        config: ControlCompareConfig,
        name: str = "ctrl_compare",
        alarm_sink: Optional[AlarmSink] = None,
        trace_bus: Optional[TraceBus] = None,
        replica_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            sim, config, config.vote_timeout,
            CtrlStats().publish("ctrl", compare=name), name,
            alarm_sink, trace_bus, replica_ids,
        )
        #: datapath_id -> release callable (delivers one winning message)
        self._releases: Dict[int, Callable[[object], None]] = {}
        # vote keys a compromised replica emitted (simulation-side truth,
        # used only to score the malicious_released acceptance metric)
        self._tainted: Set[Tuple[int, bytes]] = set()
        # vote key -> trace id of the data-plane packet that caused the
        # decision (first submission wins); telemetry only — lets
        # `repro obs trace` stitch control-plane spans onto a packet's
        # data-plane trajectory
        self._entry_trace: Dict[Tuple[int, bytes], int] = {}
        self._h_vote_latency = bind_histogram(
            "ctrl_vote_latency_seconds",
            "time from a decision's first copy arriving to its release",
            compare=name,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_switch(
        self, datapath_id: int, release: Callable[[object], None]
    ) -> None:
        """Attach the release path for one switch's control channel."""
        self._releases[datapath_id] = release

    # ------------------------------------------------------------------
    # submission path (replica -> voter)
    # ------------------------------------------------------------------
    def submit(
        self,
        replica: int,
        datapath_id: int,
        message: object,
        tainted: bool = False,
        trace: Optional[int] = None,
    ) -> None:
        """Accept one outbound control message from ``replica``.

        ``tainted`` marks copies a compromise hook modified; it never
        influences voting (the voter cannot know), only the
        ``malicious_released`` accounting the acceptance tests read.
        ``trace`` carries the trace id of the data-plane packet whose
        PacketIn caused this message (when that packet is marked); it is
        attached to the decision's span records and never affects voting.
        """
        self.stats.submissions += 1
        # The copy itself rides as the release context: if it completes the
        # quorum it is what is released, digested in this very call.
        self._vote(
            (datapath_id, digest(message)), replica, self.sim.now, message,
            None, message, (tainted, trace),
        )

    def _note_copy(
        self, outcome: VoteOutcome, replica: int, note: Tuple[bool, Optional[int]]
    ) -> None:
        # Runs after a stale entry under this key was finalised, so the
        # marks land on the fresh decision and are not discarded with
        # the old one.
        entry = outcome.entry
        key = entry.key
        tainted, trace = note
        if tainted:
            self._tainted.add(key)
        if trace is not None:
            trace = self._entry_trace.setdefault(key, trace)
        bus = self.trace_bus
        if bus is None or not bus.wants("ctrl.vote"):
            return
        if trace is None:
            trace = self._entry_trace.get(key)
        # A vote record's fields go to `emit` in one call (no `_trace`
        # frame, no dict built and re-packed); the record differs only in
        # whether a trace id is known.
        if trace is None:
            bus.emit(
                self.sim.now, "ctrl.vote", self.name,
                branch=replica,
                dpid=key[0],
                votes=len(entry.branch_counts),
                kind=type(entry.packet).__name__,
                duplicate=outcome.is_branch_duplicate,
                late=outcome.late_copy,
                probation=not outcome.countable,
            )
        else:
            bus.emit(
                self.sim.now, "ctrl.vote", self.name,
                branch=replica,
                dpid=key[0],
                votes=len(entry.branch_counts),
                kind=type(entry.packet).__name__,
                duplicate=outcome.is_branch_duplicate,
                late=outcome.late_copy,
                probation=not outcome.countable,
                trace=trace,
            )

    def _deliver(
        self, entry: VoteEntry, now: float, ctx: object, branch: Optional[int]
    ) -> None:
        key = entry.key
        message = ctx
        if message is None:
            # Released by a quorum shrink: no copy arrived with the
            # decision, so the one the book stored goes out — only if it
            # still encodes to the bytes that were voted.  Its replica
            # holds it too, and may have rewritten it since.
            message = entry.packet
            try:
                moved = digest(message) != key[1]
            except DigestError:  # rewritten into something not even encodable
                moved = True
            if moved:
                replica = next(iter(entry.branch_counts))
                self.alarms.raise_alarm(
                    now, ALARM_COPY_REWRITTEN, self.name,
                    branch=replica, dpid=key[0], message=type(message).__name__,
                )
                if self._tracing("ctrl.release_refused"):
                    self._trace("ctrl.release_refused", dpid=key[0], branch=replica)
                return
        if key in self._tainted:
            # A majority confirmed bytes a compromised replica emitted:
            # either the lie found co-conspirators or it equalled the
            # honest output (not a lie at all); count it — the ctrlbft
            # acceptance gate requires this to stay 0.
            self.stats.malicious_released += 1
            if self._tracing("ctrl.malicious_release"):
                self._trace("ctrl.malicious_release", dpid=key[0])
        latency = now - entry.first_seen
        if self._h_vote_latency is not None:
            self._h_vote_latency.observe(latency)
        bus = self.trace_bus
        if bus is not None and bus.wants("ctrl.release"):
            # one record per release, handed to `emit` in one call
            release_trace = self._entry_trace.get(key)
            if release_trace is None:
                bus.emit(
                    now, "ctrl.release", self.name,
                    dpid=key[0],
                    votes=entry.distinct_branches,
                    kind=type(message).__name__,
                    latency=latency,
                )
            else:
                bus.emit(
                    now, "ctrl.release", self.name,
                    dpid=key[0],
                    votes=entry.distinct_branches,
                    kind=type(message).__name__,
                    latency=latency,
                    trace=release_trace,
                )
        release = self._releases.get(key[0])
        if release is not None:
            if type(message) is FlowMod:
                # What reaches the switch holds nothing a replica can still
                # write: actions are read-only values in a tuple, a Match is
                # not, so the switch gets one of its own.  (A PacketOut's
                # packet is the replica's copy-on-write clone and stays
                # writable until packets are immutable.)
                message = FlowMod(
                    message.command, message.match.copy(), message.actions,
                    message.priority, message.idle_timeout,
                    message.hard_timeout, message.cookie,
                )
            release(message)

    def _finalise(self, entry: VoteEntry) -> None:
        """Account for a decision leaving the book (expiry/eviction)."""
        self._tainted.discard(entry.key)
        entry_trace = self._entry_trace.pop(entry.key, None)
        if entry.released:
            self._finalise_released(entry)
            return
        # Voided: nobody assembled a majority for these bytes.
        if entry.branch_counts:
            self.stats.blocked_no_quorum += 1
            reason = "no_quorum"
        else:
            self.stats.blocked_quarantined += 1
            reason = "quarantined"
        if self._tracing("ctrl.blocked"):
            blocked_data = dict(
                dpid=entry.key[0],
                reason=reason,
                votes=entry.distinct_branches,
                kind=type(entry.packet).__name__,
            )
            if entry_trace is not None:
                blocked_data["trace"] = entry_trace
            self._trace("ctrl.blocked", **blocked_data)
        self._finalise_unreleased(entry)

    def __repr__(self) -> str:
        return (
            f"ControlCompare({self.name}, k={self.config.k}, "
            f"quorum={self.config.effective_quorum()})"
        )
