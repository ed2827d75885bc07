"""OpenFlow 1.0 flow table: prioritised entries, counters, timeouts.

Lookup returns the highest-priority matching entry (earliest-installed on
ties, which is deterministic and matches common switch behaviour).  Idle
and hard timeouts are evaluated lazily against the simulated clock; the
switch sweeps expired entries and emits *flow-removed* notifications.  A
table none of whose entries has a timeout (``has_timeouts``) does neither.

Lookups are served by a two-tier structure: fully-specified entries (the
shape a reactive controller installs per flow — :meth:`Match.is_exact`)
live in a hash index keyed by their 12-tuple, probed with the packet's
:func:`packet_probe_keys`; everything else falls back to a linear scan in
``(priority desc, install order)`` rank, which stops early once it cannot
beat the best indexed hit.  Control-plane mutations (add/remove/sweep)
rebuild the index — they are rarer than lookups by orders of magnitude.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.packet import Packet
from repro.openflow.actions import Action
from repro.openflow.match import Match, packet_probe_keys


class FlowEntry:
    """One installed flow rule."""

    __slots__ = (
        "match",
        "actions",
        "priority",
        "cookie",
        "idle_timeout",
        "hard_timeout",
        "created_at",
        "last_matched",
        "packet_count",
        "byte_count",
        "seq",
    )

    def __init__(
        self,
        match: Match,
        actions: Sequence[Action],
        priority: int = 0,
        cookie: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        created_at: float = 0.0,
    ) -> None:
        self.match = match
        self.actions: List[Action] = list(actions)
        self.priority = priority
        self.cookie = cookie
        self.idle_timeout = idle_timeout  # 0 = never
        self.hard_timeout = hard_timeout  # 0 = never
        self.created_at = created_at
        self.last_matched = created_at
        self.packet_count = 0
        self.byte_count = 0
        # Install-order tie-break, assigned by the owning FlowTable; an
        # entry replacing an identical match+priority inherits the old
        # entry's seq so replacement preserves table position.
        self.seq = 0

    def record_hit(self, packet: Packet, now: float) -> None:
        self.packet_count += 1
        self.byte_count += packet.wire_len
        self.last_matched = now

    def expired(self, now: float) -> Optional[str]:
        """Return the expiry reason ('idle'/'hard') or None."""
        if self.hard_timeout > 0 and now - self.created_at >= self.hard_timeout:
            return "hard"
        if self.idle_timeout > 0 and now - self.last_matched >= self.idle_timeout:
            return "idle"
        return None

    def __repr__(self) -> str:
        return (
            f"FlowEntry(prio={self.priority}, {self.match!r} -> {self.actions!r}, "
            f"pkts={self.packet_count})"
        )


def _rank(entry: FlowEntry) -> Tuple[int, int]:
    """Lookup precedence: higher priority first, then install order."""
    return (-entry.priority, entry.seq)


class FlowTable:
    """Priority-ordered flow table with OF 1.0 add/modify/delete semantics."""

    def __init__(self) -> None:
        self._entries: List[FlowEntry] = []
        self._next_seq = 0
        # Exact-match index: 12-tuple key -> rank-sorted bucket.
        self._exact: Dict[tuple, List[FlowEntry]] = {}
        # Everything else, rank-sorted for the early-exit scan.
        self._wildcard: List[FlowEntry] = []
        # Lookup-path counters (plain ints: incremented per packet, read
        # by the observability pull collector).  ``scan_steps`` counts
        # wildcard entries examined — the quantity the index exists to
        # minimise, and the one the CI regression watch monitors.
        self.lookups = 0
        self.index_hits = 0
        self.scan_steps = 0
        self.misses = 0
        # Mutation stamp + timeout flag.  A train may reuse its first
        # packet's lookup only while the table is unchanged and no entry
        # can expire between siblings; without timeouts a lookup skips the
        # expiry checks and the switch skips the sweep.
        self.epoch = 0
        self.has_timeouts = False

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterable[FlowEntry]:
        return iter(list(self._entries))

    @property
    def entries(self) -> List[FlowEntry]:
        return list(self._entries)

    # ------------------------------------------------------------------
    def add(self, entry: FlowEntry) -> None:
        """Install an entry; replaces an entry with identical match+priority."""
        for i, existing in enumerate(self._entries):
            if existing.priority == entry.priority and existing.match == entry.match:
                entry.seq = existing.seq  # keep the replaced entry's position
                self._entries[i] = entry
                self._rebuild()
                return
        entry.seq = self._next_seq
        self._next_seq += 1
        self._entries.append(entry)
        self._rebuild()

    def _rebuild(self) -> None:
        """Re-sort and re-index after any control-plane mutation."""
        self.epoch += 1
        self.has_timeouts = any(
            e.idle_timeout > 0.0 or e.hard_timeout > 0.0 for e in self._entries
        )
        self._entries.sort(key=_rank)
        exact: Dict[tuple, List[FlowEntry]] = {}
        wildcard: List[FlowEntry] = []
        for entry in self._entries:
            if entry.match.is_exact():
                exact.setdefault(entry.match._key(), []).append(entry)
            else:
                wildcard.append(entry)
        self._exact = exact
        self._wildcard = wildcard

    def lookup(self, packet: Packet, in_port: int, now: float) -> Optional[FlowEntry]:
        """Highest-priority live entry matching the packet, else None."""
        self.lookups += 1
        timeouts = self.has_timeouts  # without any, no entry can expire
        best: Optional[FlowEntry] = None
        best_rank: Optional[Tuple[int, int]] = None
        if self._exact:
            for key in packet_probe_keys(packet, in_port):
                bucket = self._exact.get(key)
                if not bucket:
                    continue
                for entry in bucket:  # rank-sorted: first live one wins
                    if timeouts and entry.expired(now):
                        continue
                    rank = _rank(entry)
                    if best_rank is None or rank < best_rank:
                        best, best_rank = entry, rank
                    break
        indexed = best is not None
        for entry in self._wildcard:  # rank-sorted: stop once outranked
            if best_rank is not None and _rank(entry) > best_rank:
                break
            self.scan_steps += 1
            if timeouts and entry.expired(now):
                continue
            if entry.match.matches(packet, in_port):
                best = entry
                indexed = False
                break
        if best is not None:
            if indexed:
                self.index_hits += 1
            best.record_hit(packet, now)
        else:
            self.misses += 1
        return best

    def lookup_stats(self) -> Dict[str, int]:
        """Lookup-path counters plus current occupancy."""
        return {
            "lookups": self.lookups,
            "index_hits": self.index_hits,
            "scan_steps": self.scan_steps,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def remove(
        self,
        match: Optional[Match] = None,
        priority: Optional[int] = None,
        strict: bool = False,
    ) -> List[FlowEntry]:
        """Delete entries.

        Non-strict (OF 1.0 DELETE): removes every entry whose match equals
        ``match`` (or all entries when ``match`` is None).  Strict
        (DELETE_STRICT): requires the priority to match too.
        """
        removed: List[FlowEntry] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            hit = match is None or entry.match == match
            if strict and priority is not None and entry.priority != priority:
                hit = False
            if hit:
                removed.append(entry)
            else:
                kept.append(entry)
        if removed:
            self._entries = kept
            self._rebuild()
        return removed

    def sweep_expired(self, now: float) -> List[FlowEntry]:
        """Remove and return entries whose timeouts have elapsed."""
        expired = [e for e in self._entries if e.expired(now)]
        if expired:
            self._entries = [e for e in self._entries if not e.expired(now)]
            self._rebuild()
        return expired

    def total_packets(self) -> int:
        return sum(e.packet_count for e in self._entries)

    def find(self, predicate: Callable[[FlowEntry], bool]) -> List[FlowEntry]:
        return [e for e in self._entries if predicate(e)]
