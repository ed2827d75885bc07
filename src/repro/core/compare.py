"""The NetCo *compare* element.

This is the heart of NetCo (Section IV of the paper): a trusted process
that receives every copy a redundant router bundle produced, compares the
copies (bit-by-bit / header / hash, per the configured policy), and
releases exactly one copy once a majority of branches delivered it.

Faithful behaviours from the paper:

* majority release — "once a packet has been received on the majority of
  the possible ingress ports, the compare releases it immediately";
* stragglers ignored — "if additional packets arrive later, they are
  ignored" (entries persist as tombstones until their deadline);
* bounded buffering — "the time a packet should be kept in the buffer is
  a function of the latencies of all the connected devices and links";
  unique packets are eventually deleted, never forwarded;
* DoS mitigation — repeated copies on one ingress port make the compare
  "advise the corresponding switch to block the appropriate port";
* liveness alarm — a branch missing from many consecutive packets raises
  a router-unavailable alarm to the administrator;
* cache cleanup — the packet cache is bounded; when it fills, a cleanup
  procedure runs and stalls the compare, which is the jitter mechanism
  the paper observes in Figure 8.

The compare is transport-agnostic: :class:`CompareCore` contains the
logic; adapters attach it to the data plane (an in-band host, as in the
paper's C prototype) or to the control plane (a POX-style controller app,
``repro.apps.combiner_app``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.core.alarms import (
    ALARM_DOS_SUSPECTED,
    ALARM_SINGLE_SOURCE_PACKET,
    ALARM_SPOOFED_BRANCH,
    AlarmSink,
)
from repro.core.membership import QuorumConfig, QuorumVoter
from repro.core.policy import BitExactPolicy, ComparePolicy
from repro.core.votes import VoteEntry, VoteOutcome
from repro.obs.metrics import StatBlock, bind_counter, bind_histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus


@dataclass
class CompareConfig(QuorumConfig):
    """Tunable parameters of a compare element.

    Defaults are calibrated for the microsecond-scale testbed used in the
    performance benchmarks; scenarios override what they need.  The
    quorum, liveness, divergence and probation fields (and their
    defaults) are :class:`~repro.core.membership.QuorumConfig`'s.
    """

    policy: ComparePolicy = field(default_factory=BitExactPolicy)
    #: how long a packet stays buffered awaiting (or after) its majority
    buffer_timeout: float = 5e-3
    #: per-copy processing cost (the C prototype is fast; POX is not)
    proc_time: float = 0.0
    #: additional processing cost per wire byte (memcmp + copy are linear)
    proc_per_byte: float = 0.0
    #: copies that may wait for the processor; beyond this they are
    #: dropped ("the different buffers should be (logically) isolated"
    #: and bounded, to prevent resource attacks on the compare)
    service_queue_capacity: int = 128
    #: packet cache bound; reaching it triggers the cleanup procedure
    cache_capacity: int = 4096
    #: fixed stall paid when the cleanup procedure runs
    cleanup_duration: float = 2e-4
    #: additional stall per cache entry scanned during cleanup
    cleanup_scan_cost: float = 1e-7
    #: duplicate copies on one branch before the DoS mitigation triggers
    dup_threshold: int = 8
    #: unreleased single-branch expiries before the DoS mitigation triggers
    craft_threshold: int = 64
    #: how long the advised port block lasts
    block_duration: float = 50e-3

    def validate(self) -> None:
        super().validate()
        if self.buffer_timeout <= 0:
            raise ValueError("buffer_timeout must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


class CompareStats(StatBlock):
    """Counters exposed by a compare element."""

    __slots__ = (
        "submissions",
        "released",
        "late_copies",
        "branch_duplicates",
        "expired_unreleased",
        "expired_released",
        "evicted",
        "queue_drops",
        # total copies accounted for by finalised entries; conservation
        # invariant: submissions == queue_drops + copies_finalised +
        # (copies still buffered) — checked by the soak tests
        "copies_finalised",
        "cleanups",
        "cleanup_stall_time",
        "blocks_issued",
        # self-healing bookkeeping (see quarantine_branch / readmit_branch)
        "quarantines",
        "readmissions",
        "quarantined_copies",
        "probation_resets",
        # entries that expired carrying bytes no active majority confirmed,
        # summed over the (non-quarantined) branches that voted for them
        "divergent_copies",
        # minority-divergence alarms latched (at most one per branch until
        # the branch is quarantined and later re-admitted)
        "divergence_alarms",
    )
    FLOAT_FIELDS = ("cleanup_stall_time",)


class CompareContext:
    """Return path for one attachment point of the compare.

    ``scope`` isolates vote spaces (copies collected at endpoint s1 never
    vote together with copies collected at s2).  ``release`` forwards the
    single winning copy onward; ``block_branch`` implements the advised
    DoS port block on the collecting switch.
    """

    __slots__ = ("scope", "release", "block_branch")

    def __init__(
        self,
        scope: str,
        release: Callable[[Packet], None],
        block_branch: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.scope = scope
        self.release = release
        self.block_branch = block_branch


class CompareCore(QuorumVoter):
    """The data-plane adapter of the one quorum voter, plus the compare's
    single-server processing model.

    The vote itself — majority release, expiry sweep, liveness and
    divergence alarms, quarantine / probation / re-admission — is
    :class:`~repro.core.membership.QuorumVoter`'s, shared with the
    control-plane voter.  What is the compare's own: the vote key
    ``(scope, claim, policy.key(packet))``, release through a
    :class:`CompareContext`, the service queue, the bounded cache and
    its cleanup stall, and the DoS mitigation.
    """

    def __init__(
        self,
        sim: Simulator,
        config: CompareConfig,
        name: str = "compare",
        alarm_sink: Optional[AlarmSink] = None,
        trace_bus: Optional[TraceBus] = None,
        branch_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            sim, config, config.buffer_timeout,
            CompareStats().publish("compare", compare=name), name,
            alarm_sink, trace_bus, branch_ids,
        )
        self._contexts: Dict[str, CompareContext] = {}
        #: the context stored last: copies of one attachment point store
        #: it once, not once each
        self._last_context: Optional[CompareContext] = None
        #: the branches whose copies vote; a copy tagged with any other
        #: (or with none) is refused where it enters and counted in
        #: ``spoof_drops``
        self._owned = frozenset(self.branch_ids)
        self.spoof_drops = 0
        self._busy_until = 0.0
        self._in_service = 0
        # DoS bookkeeping
        self._dup_strikes: Dict[int, int] = {}
        self._craft_strikes: Dict[int, int] = {}
        self._blocked_branches: Dict[int, float] = {}
        StatBlock.publish_samples(
            lambda: {
                "compare_buffered_entries": len(self.book),
                "compare_spoof_drops_total": self.spoof_drops,
            },
            compare=name,
        )
        # Bound from the registry active at construction time; None when
        # metrics are disabled so the release path pays a single test
        # per packet.
        self._h_release_latency = bind_histogram(
            "compare_release_latency_seconds",
            "time from a packet's first copy arriving to its release",
            compare=name,
        )
        self._h_quorum_votes = bind_histogram(
            "compare_quorum_votes",
            "distinct branches that had voted when a packet released",
            buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0),
            compare=name,
        )
        self._c_branch_divergence = bind_counter(
            "compare_branch_divergence_total",
            "expired entries carrying a branch's unconfirmed bytes",
            labelnames=("compare", "branch"),
        )

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------
    def submit(
        self,
        packet: Packet,
        branch: int,
        context: CompareContext,
        claim: Optional[int] = None,
    ) -> None:
        """Accept one copy from ``branch`` collected by ``context``.

        The copy is queued behind the compare's single-server processor
        (``proc_time`` per copy); voting happens when it is served.  A
        copy from a branch this compare does not own is refused here.
        The clock is read once per copy and handed down.
        """
        if branch not in self._owned:
            # Over the live wire the tag is the sender's own claim, so one
            # branch could otherwise vote as several (ROADMAP 1(a)), and a
            # tag of None would make the expiry sweep raise.
            self.spoof_drops += 1
            self.alarms.raise_alarm(
                self.sim.now, ALARM_SPOOFED_BRANCH, self.name, claimed=branch
            )
            return
        if context is not self._last_context:
            self._contexts[context.scope] = context
            self._last_context = context
        self.stats.submissions += 1
        config = self.config
        cost = config.proc_time + config.proc_per_byte * packet.wire_len
        sim = self.sim
        now = sim.now
        if cost <= 0.0 and now >= self._busy_until:
            self._serve(packet, branch, context, claim, now)
            return
        if self._in_service >= config.service_queue_capacity:
            self.stats.queue_drops += 1
            if self._tracing("compare.queue_drop"):
                self._trace("compare.queue_drop", branch=branch)
            return
        finish = max(now, self._busy_until) + cost
        self._busy_until = finish
        self._in_service += 1
        sim.post(finish, self._serve_one, (packet, branch, context, claim))

    def _serve_one(
        self,
        packet: Packet,
        branch: int,
        context: CompareContext,
        claim: Optional[int],
    ) -> None:
        """Event: the single-server processor finishes one queued copy."""
        self._in_service -= 1
        self._serve(packet, branch, context, claim, self.sim.now)

    def _serve(
        self,
        packet: Packet,
        branch: int,
        context: CompareContext,
        claim: Optional[int],
        now: float,
    ) -> None:
        config = self.config
        if len(self.book.by_key) >= config.cache_capacity:
            self._cleanup(now)
        outcome = self._vote(
            (context.scope, claim, config.policy.key(packet)),
            branch, now, packet, claim, context, packet.trace_id,
        )
        if outcome.is_branch_duplicate:
            self._note_duplicate(branch, context)
        elif branch in self._dup_strikes:
            del self._dup_strikes[branch]
        if outcome.late_copy and outcome.countable:
            bus = self.trace_bus
            if bus is not None and bus.wants("compare.late_copy"):
                self._trace("compare.late_copy", branch=branch)

    def _note_copy(self, outcome: VoteOutcome, branch: int, note: object) -> None:
        # ``note`` is the copy's trace id: only sampled packets get a span
        if not self._tracing("compare.vote"):
            return
        self._trace(
            "compare.vote",
            trace=note,
            branch=branch,
            votes=outcome.entry.distinct_branches,
            duplicate=outcome.is_branch_duplicate,
            late=outcome.late_copy,
            probation=not outcome.countable,
        )

    def _deliver(
        self,
        entry: VoteEntry,
        now: float,
        ctx: Optional[CompareContext],
        branch: Optional[int],
    ) -> None:
        if self._h_release_latency is not None:
            self._h_release_latency.observe(now - entry.first_seen)
            self._h_quorum_votes.observe(entry.distinct_branches)
        bus = self.trace_bus
        if bus is not None and bus.wants("compare.release"):
            self._trace(
                "compare.release",
                branch=branch,
                votes=entry.distinct_branches,
                trace=entry.packet.trace_id,
                latency=now - entry.first_seen,
            )
        if ctx is None:
            # released by a quorum shrink, not by a copy arriving
            ctx = self._contexts.get(entry.key[0])
        if ctx is not None:
            ctx.release(entry.packet)

    # ------------------------------------------------------------------
    # cache management (the Figure 8 jitter mechanism)
    # ------------------------------------------------------------------
    def _cleanup(self, now: float) -> None:
        scanned = len(self.book)
        expired = self.book.pop_expired(now)
        for entry in expired:
            self._finalise(entry)
        if len(self.book) >= self.config.cache_capacity:
            # Still full: evict the oldest tenth to make room.
            evicted = self.book.evict_oldest(max(1, self.config.cache_capacity // 10))
            self.stats.evicted += len(evicted)
            for entry in evicted:
                self._finalise(entry)
        stall = self.config.cleanup_duration + self.config.cleanup_scan_cost * scanned
        self._busy_until = max(self._busy_until, now) + stall
        self.stats.cleanups += 1
        self.stats.cleanup_stall_time += stall
        if self._tracing("compare.cleanup"):
            self._trace(
                "compare.cleanup", scanned=scanned, expired=len(expired), stall=stall
            )

    def _finalise(self, entry: VoteEntry) -> None:
        """Account for an entry leaving the cache (expiry or eviction)."""
        self.stats.copies_finalised += entry.total_copies()
        if entry.released:
            self._finalise_released(entry)
            return
        self.stats.expired_unreleased += 1
        self._finalise_unreleased(entry)
        if self._tracing("compare.drop_unreleased"):
            self._trace(
                "compare.drop_unreleased",
                votes=entry.distinct_branches,
                copies=entry.total_copies(),
                trace=entry.packet.trace_id,
            )

    def _on_single_source(self, entry: VoteEntry) -> None:
        branch = entry.branches()[0]
        self.alarms.raise_alarm(
            self.sim.now,
            ALARM_SINGLE_SOURCE_PACKET,
            self.name,
            branch=branch,
            copies=entry.total_copies(),
        )
        self._note_crafted(branch, entry.key[0])

    def _count_divergence(self, branch: int, latched: bool) -> None:
        self.stats.divergent_copies += 1
        if self._c_branch_divergence is not None:
            self._c_branch_divergence.labels(self.name, str(branch)).inc()
        if latched:
            self.stats.divergence_alarms += 1

    # ------------------------------------------------------------------
    # DoS mitigation
    # ------------------------------------------------------------------
    def _note_duplicate(self, branch: int, context: CompareContext) -> None:
        strikes = self._dup_strikes.get(branch, 0) + 1
        self._dup_strikes[branch] = strikes
        if strikes >= self.config.dup_threshold:
            self._dup_strikes[branch] = 0
            self._block(branch, context, reason="duplicate-flood")

    def _note_crafted(self, branch: int, scope: str) -> None:
        """One more single-source packet from ``branch``, collected at
        ``scope``: past the threshold, that endpoint blocks the branch."""
        strikes = self._craft_strikes.get(branch, 0) + 1
        self._craft_strikes[branch] = strikes
        if strikes >= self.config.craft_threshold:
            self._craft_strikes[branch] = 0
            self._block(branch, self._contexts.get(scope), reason="crafted-flood")

    def _block(self, branch: int, context: Optional[CompareContext], reason: str) -> None:
        now = self.sim.now
        until = self._blocked_branches.get(branch, 0.0)
        if now < until:
            return  # already blocked; don't spam
        self._blocked_branches[branch] = now + self.config.block_duration
        self.stats.blocks_issued += 1
        self.alarms.raise_alarm(
            now, ALARM_DOS_SUSPECTED, self.name, branch=branch, reason=reason
        )
        if context is not None and context.block_branch is not None:
            context.block_branch(branch, self.config.block_duration)

    def __repr__(self) -> str:
        return (
            f"CompareCore({self.name}, k={self.config.k}, "
            f"quorum={self.config.effective_quorum()}, "
            f"policy={self.config.policy.name})"
        )
