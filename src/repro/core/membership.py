"""The one quorum voter.

The paper has exactly one trusted mechanism — "once a packet has been
received on the majority of the possible ingress ports, the compare
releases it" (Section IV).  :class:`QuorumVoter` is that mechanism:
a :class:`~repro.core.votes.VoteBook`, the vote step, the expiry sweep,
the liveness and divergence signatures, and the quarantine / probation /
re-admission state machine.  Two adapters subclass it and keep only what
is theirs: :class:`~repro.core.compare.CompareCore` (data plane: wire
image keys, packet release, service queue, DoS mitigation) and
:class:`~repro.ctrl.compare.ControlCompare` (control plane: canonical
digest keys, per-switch release, taint accounting).

An adapter supplies four things:

* its public ``submit`` — derives the vote key and calls
  :meth:`QuorumVoter._vote`;
* ``_note_copy(outcome, branch, note)`` — record what the adapter knows
  about one copy (its vote span, a taint mark); runs after a stale entry
  was finalised and before anything is released;
* ``_deliver(entry, now, ctx, branch)`` — hand the winning copy to the
  adapter's sink;
* ``_finalise(entry)`` — the adapter's accounting for an entry leaving
  the book, sequenced around :meth:`_finalise_released` /
  :meth:`_finalise_unreleased`.

Two notifications default to no-ops: ``_count_divergence`` (adapter
counters for one divergence strike) and ``_on_single_source`` (an entry
expired with one voter).

``trace_prefix`` picks the trace-topic namespace (``compare.*`` for the
data plane, ``ctrl.*`` for the control plane); alarm kinds are shared.
``add_sweep_listener`` (expiry-sweep ticks), ``add_membership_listener``
(``"quarantine"`` / ``"readmit"`` transitions) and ``probation_status``
expose the vote cadence and the probation window to observers — the
hooks the adversary strategy library (``repro.adversary.strategies``)
keys off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_ROUTER_UNAVAILABLE,
    AlarmSink,
)
from repro.core.clock import Clock, PeriodicTask
from repro.core.votes import VoteBook, VoteEntry, VoteOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceBus

__all__ = ["QuorumConfig", "QuorumVoter"]


@dataclass
class QuorumConfig:
    """The parameters every quorum voter has; adapters add their own
    (and their own defaults for these)."""

    k: int = 3
    quorum: Optional[int] = None  # default: floor(k/2) + 1 (strict majority)
    #: consecutive released decisions a branch may miss before the
    #: unavailable alarm fires (the crash signature)
    miss_threshold: int = 10
    #: cumulative entries carrying a branch's *unconfirmed* bytes (expired
    #: without any active majority agreeing) before the minority-divergence
    #: alarm latches.  Cumulative, not consecutive: a colluding minority
    #: that diverges intermittently stays under every consecutive counter
    #: (its miss count resets at each clean packet) but accumulates here.
    divergence_threshold: int = 16
    #: consecutive clean (bit-identical, non-duplicate) copies a
    #: quarantined branch must deliver before it is re-admitted
    probation_clean_target: int = 12
    #: smallest bundle the voter will degrade to; a quarantine request
    #: that would leave fewer active branches is refused (below two
    #: branches a "majority" stops meaning anything)
    min_active_branches: int = 2

    def effective_quorum(self) -> int:
        if self.quorum is not None:
            return self.quorum
        return self.k // 2 + 1

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        quorum = self.effective_quorum()
        if not 1 <= quorum <= self.k:
            raise ValueError(f"quorum {quorum} out of range for k={self.k}")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.probation_clean_target < 1:
            raise ValueError("probation_clean_target must be >= 1")
        if self.divergence_threshold < 1:
            raise ValueError("divergence_threshold must be >= 1")
        if self.min_active_branches < 1:
            raise ValueError("min_active_branches must be >= 1")


class QuorumVoter:
    """Majority vote over copies from a bundle of branches.

    ``timeout`` is how long an entry waits for (and remembers) its
    majority; ``stats`` is the adapter's counter object, of which the
    voter touches ``released``, ``late_copies``, ``branch_duplicates``,
    ``expired_released``, ``quarantined_copies``, ``quarantines``,
    ``readmissions`` and ``probation_resets``.
    """

    #: trace-topic namespace
    trace_prefix = "compare"

    def __init__(
        self,
        sim: Clock,
        config: QuorumConfig,
        timeout: float,
        stats: object,
        name: str,
        alarm_sink: Optional[AlarmSink] = None,
        trace_bus: Optional[TraceBus] = None,
        branch_ids: Optional[Sequence[int]] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.name = name
        self.alarms = alarm_sink or AlarmSink(trace_bus)
        self.trace_bus = trace_bus
        self.branch_ids = (
            list(branch_ids) if branch_ids is not None else list(range(config.k))
        )
        self.book = VoteBook(config.effective_quorum(), timeout)
        self.stats = stats
        # liveness bookkeeping
        self._miss_counts: Dict[int, int] = {b: 0 for b in self.branch_ids}
        self._unavailable: Dict[int, bool] = {b: False for b in self.branch_ids}
        # Time of each branch's last clean (counted, non-duplicate) vote:
        # entries older than this must not count as misses — they date
        # from before the branch recovered (stale-count guard).
        self._last_clean_vote: Dict[int, float] = {}
        # minority-divergence bookkeeping: how often each branch's bytes
        # expired unconfirmed, and whether the alarm already latched
        self._divergence_counts: Dict[int, int] = {}
        self._divergence_alarmed: Dict[int, bool] = {}
        # branch -> quarantined-at time, and the running count of
        # consecutive clean probation copies
        self._quarantined: Dict[int, float] = {}
        self._probation_clean: Dict[int, int] = {}
        # observers of membership transitions, called with
        # ("quarantine" | "readmit", branch, now)
        self._membership_listeners: List[Callable[[str, int, float], None]] = []
        # observers of the expiry-sweep tick (adversary strategies that
        # time themselves against the vote cadence subscribe here)
        self._sweep_listeners: List[Callable[[float], None]] = []
        self._sweeper = PeriodicTask(sim, timeout, self._sweep)

    # ------------------------------------------------------------------
    # the vote step
    # ------------------------------------------------------------------
    def _vote(
        self,
        key: Hashable,
        branch: int,
        now: float,
        payload: object,
        claim: Optional[int] = None,
        ctx: object = None,
        note: object = None,
    ) -> VoteOutcome:
        """Count one copy from ``branch`` toward ``key``'s majority.

        ``ctx`` is passed through to ``_deliver`` untouched; ``note``,
        when given, to ``_note_copy``.  Returns the outcome so the
        adapter can settle what only it tracks (duplicate strikes, a
        late-copy span).
        """
        if not self._sweeper.running:
            self._sweeper.start(self.book.timeout)
        quarantined = branch in self._quarantined
        outcome = self.book.observe(key, branch, now, payload, claim, not quarantined)
        if outcome.evicted_stale is not None:
            self._finalise(outcome.evicted_stale)
        if outcome.is_branch_duplicate:
            self.stats.branch_duplicates += 1
        elif not quarantined:
            # First clean vote after an outage heals the liveness
            # bookkeeping right here, not at entry-finalise time:
            # otherwise outage-era entries expiring after the branch
            # recovered would re-alarm a healed router.  A branch is
            # flagged unavailable only while misses are counted against
            # it (every site that zeroes the count clears the flag), so
            # one probe finds the branches to heal.
            self._last_clean_vote[branch] = now
            if self._miss_counts.get(branch):
                self._miss_counts[branch] = 0
                self._unavailable[branch] = False
        if note is not None:
            self._note_copy(outcome, branch, note)
        if quarantined:
            self.stats.quarantined_copies += 1
            if outcome.entry.released and not outcome.is_branch_duplicate:
                # The copy matches what the active majority already
                # released: a clean duplicate, probation's currency.
                self._note_probation_clean(branch)
        elif outcome.late_copy:
            self.stats.late_copies += 1
        elif outcome.newly_released:
            self._do_release(outcome.entry, now, ctx, branch)
        return outcome

    def _do_release(
        self,
        entry: VoteEntry,
        now: float,
        ctx: object = None,
        branch: Optional[int] = None,
    ) -> None:
        """Forward an entry's winning copy and settle probation credit."""
        self.stats.released += 1
        self._deliver(entry, now, ctx, branch)
        # Probation copies that preceded the quorum are confirmed clean
        # now that the active majority agreed on the same bytes.
        if entry.probation_counts:
            for waiting in list(entry.probation_counts):
                self._note_probation_clean(waiting)

    # ------------------------------------------------------------------
    # adapter hooks
    # ------------------------------------------------------------------
    def _note_copy(self, outcome: VoteOutcome, branch: int, note: object) -> None:
        raise NotImplementedError

    def _deliver(
        self, entry: VoteEntry, now: float, ctx: object, branch: Optional[int]
    ) -> None:
        raise NotImplementedError

    def _finalise(self, entry: VoteEntry) -> None:
        """Account for an entry leaving the book (expiry or eviction)."""
        raise NotImplementedError

    def _count_divergence(self, branch: int, latched: bool) -> None:
        """One divergence strike against ``branch`` (``latched`` when it
        trips the alarm); adapters with counters for it override."""

    def _on_single_source(self, entry: VoteEntry) -> None:
        """``entry`` expired having only ever been voted by one branch;
        adapters that alarm on it override."""

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    @property
    def sweep_period(self) -> float:
        """The expiry-sweep cadence (one tick per entry timeout)."""
        return self.book.timeout

    def add_sweep_listener(self, fn: Callable[[float], None]) -> None:
        """Observe each expiry-sweep tick (called with ``sim.now``)."""
        self._sweep_listeners.append(fn)

    def remove_sweep_listener(self, fn: Callable[[float], None]) -> None:
        if fn in self._sweep_listeners:
            self._sweep_listeners.remove(fn)

    def _sweep(self) -> None:
        if self._sweep_listeners:
            now = self.sim.now
            for fn in list(self._sweep_listeners):
                fn(now)
        for entry in self.book.pop_expired(self.sim.now):
            self._finalise(entry)
        if not self.book.by_key:
            self._sweeper.stop()

    def flush(self) -> None:
        """Finalise everything still buffered (end-of-run accounting)."""
        for entry in self.book.entries():
            self._finalise(entry)
        self.book.clear()
        self._sweeper.stop()

    def _finalise_released(self, entry: VoteEntry) -> None:
        """A released entry left the book: who was missing from it?"""
        self.stats.expired_released += 1
        for missing in entry.missing_branches(self.branch_ids):
            if missing in self._quarantined or missing in entry.probation_counts:
                # Quarantined branches are expected to be absent from
                # the count; a probation copy is not "missing" either.
                continue
            self._note_missing(missing, entry.first_seen)
        for present in entry.branches():
            self._miss_counts[present] = 0
            if self._unavailable.get(present):
                self._unavailable[present] = False

    def _finalise_unreleased(self, entry: VoteEntry) -> None:
        """An entry expired with no majority: nobody confirmed its bytes."""
        for waiting in list(entry.probation_counts):
            # The quarantined branch delivered bytes no active
            # majority ever confirmed: probation starts over.
            self._reset_probation(waiting)
        if entry.distinct_branches == 1:
            self._on_single_source(entry)
        for present in entry.branches():
            if present in self._quarantined or present in entry.probation_counts:
                continue
            self._note_divergence(present)

    # ------------------------------------------------------------------
    # failure signatures
    # ------------------------------------------------------------------
    def _note_missing(self, branch: int, first_seen: float) -> None:
        if first_seen < self._last_clean_vote.get(branch, -1.0):
            # The entry predates the branch's recovery; counting it
            # would re-alarm a healed router on stale history.
            return
        count = self._miss_counts.get(branch, 0) + 1
        self._miss_counts[branch] = count
        if count >= self.config.miss_threshold and not self._unavailable.get(branch):
            self._unavailable[branch] = True
            self.alarms.raise_alarm(
                self.sim.now,
                ALARM_ROUTER_UNAVAILABLE,
                self.name,
                branch=branch,
                consecutive_misses=count,
            )

    def _note_divergence(self, branch: int) -> None:
        """A (non-quarantined) branch voted for bytes that expired without
        any active majority confirming them.  The count is cumulative and
        the alarm latches: it surfaces the silent colluding minority (at
        k=5, two branches delivering identical altered copies never trip
        the single-source alarm, and intermittent divergence resets every
        consecutive miss counter) without changing the vote itself.
        """
        count = self._divergence_counts.get(branch, 0) + 1
        self._divergence_counts[branch] = count
        latched = (
            count >= self.config.divergence_threshold
            and not self._divergence_alarmed.get(branch)
        )
        self._count_divergence(branch, latched)
        if latched:
            self._divergence_alarmed[branch] = True
            self.alarms.raise_alarm(
                self.sim.now,
                ALARM_MINORITY_DIVERGENCE,
                self.name,
                branch=branch,
                divergent_entries=count,
            )

    # ------------------------------------------------------------------
    # self-healing: quarantine / probation / re-admission
    # ------------------------------------------------------------------
    def add_membership_listener(self, fn: Callable[[str, int, float], None]) -> None:
        """Observe quarantine / re-admission transitions."""
        self._membership_listeners.append(fn)

    def remove_membership_listener(self, fn: Callable[[str, int, float], None]) -> None:
        if fn in self._membership_listeners:
            self._membership_listeners.remove(fn)

    def _notify_membership(self, event: str, branch: int, now: float) -> None:
        for fn in list(self._membership_listeners):
            fn(event, branch, now)

    def probation_status(self, branch: int) -> Optional[Tuple[int, int]]:
        """``(clean_copies_so_far, target)`` while quarantined, else None."""
        if branch not in self._quarantined:
            return None
        return (
            self._probation_clean.get(branch, 0),
            self.config.probation_clean_target,
        )

    def active_branches(self) -> List[int]:
        """Branches currently counted toward the quorum."""
        return [b for b in self.branch_ids if b not in self._quarantined]

    def is_quarantined(self, branch: int) -> bool:
        return branch in self._quarantined

    def quarantined_branches(self) -> List[int]:
        return sorted(self._quarantined)

    def quarantine_branch(self, branch: int, reason: str = "operator") -> bool:
        """Take ``branch`` out of the vote (Section V's "take the faulty
        router out of service", automated).

        Its copies stop counting toward the quorum and are tracked on
        probation instead; the quorum is recomputed over the surviving
        active branches, so a k=3 bundle degrades to a 2-of-2 vote —
        forwarding continues but nothing is masked any more, which the
        alarm records as ``masking_margin``.  After
        ``probation_clean_target`` consecutive clean duplicates the
        branch is re-admitted automatically.  Refused (returns False)
        when it would leave fewer than ``min_active_branches`` active.
        """
        if branch not in self.branch_ids or branch in self._quarantined:
            return False
        if len(self.active_branches()) - 1 < self.config.min_active_branches:
            topic = f"{self.trace_prefix}.quarantine_refused"
            if self._tracing(topic):
                self._trace(topic, branch=branch, active=len(self.active_branches()))
            return False
        now = self.sim.now
        self._quarantined[branch] = now
        self._probation_clean[branch] = 0
        self.stats.quarantines += 1
        self._apply_dynamic_quorum()
        active = len(self.active_branches())
        self.alarms.raise_alarm(
            now,
            ALARM_BRANCH_QUARANTINED,
            self.name,
            branch=branch,
            reason=reason,
            active_branches=active,
            quorum=self.book.quorum,
            masking_margin=active - self.book.quorum,
        )
        topic = f"{self.trace_prefix}.quarantine"
        if self._tracing(topic):
            self._trace(
                topic, branch=branch, reason=reason, active=active,
                quorum=self.book.quorum,
            )
        self._notify_membership("quarantine", branch, now)
        return True

    def readmit_branch(self, branch: int, reason: str = "probation_complete") -> bool:
        """Return a quarantined branch to the vote (probation served)."""
        since = self._quarantined.pop(branch, None)
        if since is None:
            return False
        clean = self._probation_clean.pop(branch, 0)
        now = self.sim.now
        # A re-admitted branch earns a clean slate on both signatures;
        # a relapse re-alarms from scratch.
        self._miss_counts[branch] = 0
        self._unavailable[branch] = False
        self._last_clean_vote[branch] = now
        self._divergence_counts[branch] = 0
        self._divergence_alarmed.pop(branch, None)
        self.stats.readmissions += 1
        self._apply_dynamic_quorum()
        self.alarms.raise_alarm(
            now,
            ALARM_BRANCH_READMITTED,
            self.name,
            branch=branch,
            reason=reason,
            clean_copies=clean,
            quarantined_for=now - since,
            active_branches=len(self.active_branches()),
            quorum=self.book.quorum,
        )
        topic = f"{self.trace_prefix}.readmit"
        if self._tracing(topic):
            self._trace(topic, branch=branch, clean=clean, quorum=self.book.quorum)
        self._notify_membership("readmit", branch, now)
        return True

    def _apply_dynamic_quorum(self) -> None:
        """Recompute the vote threshold over the active bundle.

        The configured quorum applies to the full bundle; while branches
        are quarantined it is capped at a strict majority of the active
        set so forwarding survives the shrink.  A shrink can complete
        votes that were already pending.
        """
        quorum = self.config.effective_quorum()
        if self._quarantined:
            quorum = min(quorum, len(self.active_branches()) // 2 + 1)
        quorum = max(1, quorum)
        if quorum == self.book.quorum:
            return
        shrank = quorum < self.book.quorum
        self.book.quorum = quorum
        if shrank:
            now = self.sim.now
            for entry in self.book.pending():
                if entry.distinct_branches >= quorum:
                    entry.released = True
                    entry.released_at = now
                    self._do_release(entry, now)

    def _note_probation_clean(self, branch: int) -> None:
        if branch not in self._quarantined:
            return
        count = self._probation_clean.get(branch, 0) + 1
        self._probation_clean[branch] = count
        if count >= self.config.probation_clean_target:
            self.readmit_branch(branch)

    def _reset_probation(self, branch: int) -> None:
        if branch not in self._quarantined:
            return
        if self._probation_clean.get(branch):
            self._probation_clean[branch] = 0
            self.stats.probation_resets += 1
            topic = f"{self.trace_prefix}.probation_reset"
            if self._tracing(topic):
                self._trace(topic, branch=branch)

    def _tracing(self, topic: str) -> bool:
        """Whether a record on ``topic`` would be kept or delivered: a
        record site asks before it builds the record's fields."""
        bus = self.trace_bus
        return bus is not None and bus.wants(topic)

    def _trace(self, topic: str, **data: object) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(self.sim.now, topic, self.name, **data)
