"""Majority-vote bookkeeping for the compare element.

The paper's compare caches each distinct packet together with the set of
ingress ports it was received on, and releases a single copy "once a
packet has been received on the majority of the possible ingress ports".
:class:`VoteBook` is that cache as a pure data structure (no simulator
dependencies), which keeps it unit- and property-testable in isolation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional

from repro.net.packet import Packet


class VoteEntry:
    """State for one distinct packet (one vote key)."""

    __slots__ = (
        "key",
        "packet",
        "first_seen",
        "deadline",
        "branch_counts",
        "probation_counts",
        "released",
        "released_at",
        "claim",
    )

    def __init__(
        self,
        key: Hashable,
        packet: Packet,
        first_seen: float,
        deadline: float,
        claim: Optional[int] = None,
    ) -> None:
        self.key = key
        self.packet = packet
        self.first_seen = first_seen
        self.deadline = deadline
        self.branch_counts: Dict[int, int] = {}
        # Copies from quarantined branches: recorded (they prove the
        # branch is delivering again) but never counted toward quorum.
        self.probation_counts: Dict[int, int] = {}
        self.released = False
        self.released_at: Optional[float] = None
        self.claim = claim

    @property
    def distinct_branches(self) -> int:
        return len(self.branch_counts)

    def branches(self) -> List[int]:
        return sorted(self.branch_counts)

    def total_copies(self) -> int:
        return sum(self.branch_counts.values()) + sum(self.probation_counts.values())

    def missing_branches(self, all_branches: List[int]) -> List[int]:
        return [b for b in all_branches if b not in self.branch_counts]

    def __repr__(self) -> str:
        state = "released" if self.released else "pending"
        return (
            f"VoteEntry(branches={self.branches()}, copies={self.total_copies()}, "
            f"{state})"
        )


class VoteOutcome(NamedTuple):
    """Result of observing one packet copy.  One is built per copy, so it
    is a tuple, and :meth:`VoteBook.observe` builds it with
    ``tuple.__new__`` rather than through a constructor frame."""

    entry: VoteEntry
    is_new_entry: bool
    #: same branch delivered this packet before
    is_branch_duplicate: bool
    #: this copy completed the quorum
    newly_released: bool
    #: arrived after the entry was already released
    late_copy: bool
    #: an unreleased entry whose deadline had passed when this copy
    #: arrived; it was evicted and this copy started a fresh vote — the
    #: bounded-waiting-time rule of Section IV, enforced strictly
    evicted_stale: Optional[VoteEntry] = None
    #: False when the copy came from a quarantined branch and was
    #: recorded on probation, outside the quorum count
    countable: bool = True


_outcome = tuple.__new__


class VoteBook:
    """The compare cache: vote key -> :class:`VoteEntry` (insertion order).

    Entries persist until their deadline even after release (tombstones),
    both to ignore straggler copies — "if additional packets arrive later,
    they are ignored" — and to detect replay by a malicious router.
    """

    def __init__(self, quorum: int, timeout: float) -> None:
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.quorum = quorum
        self.timeout = timeout
        #: vote key -> entry, oldest first.  Read it freely (the voter's
        #: per-copy size check is ``len(book.by_key)``, with no frame of
        #: the book's own); change it only through the book.
        self.by_key: "OrderedDict[Hashable, VoteEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self.by_key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.by_key

    def get(self, key: Hashable) -> Optional[VoteEntry]:
        return self.by_key.get(key)

    def entries(self) -> Iterator[VoteEntry]:
        return iter(list(self.by_key.values()))

    # ------------------------------------------------------------------
    def observe(
        self,
        key: Hashable,
        branch: int,
        now: float,
        packet: Packet,
        claim: Optional[int] = None,
        countable: bool = True,
    ) -> VoteOutcome:
        """Record that ``branch`` delivered a copy keyed ``key``.

        ``countable=False`` records the copy on probation (a quarantined
        branch proving itself): it never advances the quorum and never
        triggers a release.

        Returns the outcome; the caller (the compare element) decides what
        to do about releases, duplicates and alarms.
        """
        entries = self.by_key
        entry = entries.get(key)
        evicted_stale: Optional[VoteEntry] = None
        if entry is not None and not entry.released and entry.deadline <= now:
            # The deadline passed before this copy arrived: the old vote
            # must not be completable any more (bounded waiting time).
            evicted_stale = entry
            del entries[key]
            entry = None
        is_new = entry is None
        if is_new:
            entry = VoteEntry(key, packet, now, now + self.timeout, claim)
            entries[key] = entry
        late = entry.released
        if not countable:
            is_branch_duplicate = branch in entry.probation_counts
            entry.probation_counts[branch] = entry.probation_counts.get(branch, 0) + 1
            return _outcome(VoteOutcome, (
                entry, is_new, is_branch_duplicate, False, late, evicted_stale, False
            ))
        counts = entry.branch_counts
        if not counts:
            # The entry may have been opened by a probation copy; the
            # released instance must come from a counted branch.
            entry.packet = packet
        is_branch_duplicate = branch in counts
        counts[branch] = counts[branch] + 1 if is_branch_duplicate else 1
        newly_released = not late and len(counts) >= self.quorum
        if newly_released:
            entry.released = True
            entry.released_at = now
        return _outcome(VoteOutcome, (
            entry, is_new, is_branch_duplicate, newly_released, late,
            evicted_stale, True,
        ))

    # ------------------------------------------------------------------
    def pop_expired(self, now: float) -> List[VoteEntry]:
        """Remove and return every entry whose deadline has passed.

        Deadlines are insertion-ordered — each entry gets ``now +
        timeout`` with a fixed timeout and a clock that never goes back,
        and a stale key is re-inserted at the end — so the scan stops at
        the first entry still inside its deadline.
        """
        expired: List[VoteEntry] = []
        for entry in self.by_key.values():
            if entry.deadline > now:
                break
            expired.append(entry)
        for _ in expired:
            self.by_key.popitem(last=False)
        return expired

    def evict_oldest(self, count: int) -> List[VoteEntry]:
        """Forcibly remove the ``count`` oldest entries (cache pressure)."""
        evicted: List[VoteEntry] = []
        for _ in range(min(count, len(self.by_key))):
            _key, entry = self.by_key.popitem(last=False)
            evicted.append(entry)
        return evicted

    def pending(self) -> List[VoteEntry]:
        """Entries that have not reached quorum (suspicious if they expire)."""
        return [e for e in self.by_key.values() if not e.released]

    def released(self) -> List[VoteEntry]:
        return [e for e in self.by_key.values() if e.released]

    def clear(self) -> None:
        self.by_key.clear()
