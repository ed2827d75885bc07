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
update those structures in place: rank-sorted lists take an entry by
``bisect``, and an add finds the entry it replaces by its
``(priority, match)`` key, so an install costs O(log n) comparisons
however full the table is.  An installed entry's match and priority are
the table's from then on (nothing may rewrite them: the control-plane
voter releases a copy of each FlowMod's match for this reason).
"""

from __future__ import annotations

from bisect import bisect_left, insort
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


def _unrank(ranked: List[FlowEntry], entry: FlowEntry) -> None:
    """Delete ``entry`` from a rank-sorted list (ranks are unique)."""
    del ranked[bisect_left(ranked, _rank(entry), key=_rank)]


class FlowTable:
    """Priority-ordered flow table with OF 1.0 add/modify/delete semantics."""

    def __init__(self) -> None:
        # Every entry, rank-sorted.
        self._entries: List[FlowEntry] = []
        self._next_seq = 0
        # (priority, match 12-tuple) -> the one entry installed under it.
        self._installed: Dict[Tuple[int, tuple], FlowEntry] = {}
        # Exact-match index: 12-tuple key -> rank-sorted bucket.
        self._exact: Dict[tuple, List[FlowEntry]] = {}
        # Everything else, rank-sorted for the early-exit scan.
        self._wildcard: List[FlowEntry] = []
        # entries with an idle or hard timeout
        self._timed = 0
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
        key = entry.match._key()
        replaced = self._installed.get((entry.priority, key))
        if replaced is not None:
            entry.seq = replaced.seq  # keep the replaced entry's position
            self._unlink(replaced)
        else:
            entry.seq = self._next_seq
            self._next_seq += 1
        self._installed[(entry.priority, key)] = entry
        insort(self._entries, entry, key=_rank)
        if entry.match.is_exact():
            bucket = self._exact.get(key)
            if bucket is None:
                self._exact[key] = [entry]
            else:
                insort(bucket, entry, key=_rank)
        else:
            insort(self._wildcard, entry, key=_rank)
        if entry.idle_timeout > 0.0 or entry.hard_timeout > 0.0:
            self._timed += 1
            self.has_timeouts = True
        self.epoch += 1

    def _unlink(self, entry: FlowEntry) -> None:
        """Take an installed entry out of every structure (no epoch bump)."""
        key = entry.match._key()
        del self._installed[(entry.priority, key)]
        _unrank(self._entries, entry)
        if entry.match.is_exact():
            bucket = self._exact[key]
            _unrank(bucket, entry)
            if not bucket:
                del self._exact[key]
        else:
            _unrank(self._wildcard, entry)
        if entry.idle_timeout > 0.0 or entry.hard_timeout > 0.0:
            self._timed -= 1
            self.has_timeouts = self._timed > 0

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
        for entry in self._entries:
            hit = match is None or entry.match == match
            if strict and priority is not None and entry.priority != priority:
                hit = False
            if hit:
                removed.append(entry)
        return self._drop(removed)

    def sweep_expired(self, now: float) -> List[FlowEntry]:
        """Remove and return entries whose timeouts have elapsed."""
        return self._drop([e for e in self._entries if e.expired(now)])

    def _drop(self, removed: List[FlowEntry]) -> List[FlowEntry]:
        for entry in removed:
            self._unlink(entry)
        if removed:
            self.epoch += 1
        return removed

    def total_packets(self) -> int:
        return sum(e.packet_count for e in self._entries)

    def find(self, predicate: Callable[[FlowEntry], bool]) -> List[FlowEntry]:
        return [e for e in self._entries if predicate(e)]
