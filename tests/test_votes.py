"""Tests for the vote book (majority bookkeeping)."""

import pytest

from repro.core.votes import VoteBook
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet


def pkt(ident=0):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        1, 2, ident=ident,
    )


class TestQuorum:
    def test_release_at_quorum(self):
        book = VoteBook(quorum=2, timeout=1.0)
        first = book.observe("k", 0, 0.0, pkt())
        assert not first.newly_released and first.is_new_entry
        second = book.observe("k", 1, 0.1, pkt())
        assert second.newly_released
        assert second.entry.released_at == 0.1

    def test_release_fires_exactly_once(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        book.observe("k", 1, 0.0, pkt())
        third = book.observe("k", 2, 0.0, pkt())
        assert not third.newly_released
        assert third.late_copy

    def test_quorum_of_one_releases_immediately(self):
        book = VoteBook(quorum=1, timeout=1.0)
        assert book.observe("k", 0, 0.0, pkt()).newly_released

    def test_same_branch_repeats_do_not_advance_quorum(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        repeat = book.observe("k", 0, 0.1, pkt())
        assert repeat.is_branch_duplicate
        assert not repeat.newly_released
        assert repeat.entry.distinct_branches == 1
        assert repeat.entry.total_copies() == 2

    def test_distinct_keys_vote_separately(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("a", 0, 0.0, pkt(0))
        outcome = book.observe("b", 1, 0.0, pkt(1))
        assert not outcome.newly_released
        assert len(book) == 2

    def test_entry_keeps_first_packet(self):
        book = VoteBook(quorum=2, timeout=1.0)
        first_packet = pkt()
        book.observe("k", 0, 0.0, first_packet)
        outcome = book.observe("k", 1, 0.0, pkt())
        assert outcome.entry.packet is first_packet

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VoteBook(quorum=0, timeout=1.0)
        with pytest.raises(ValueError):
            VoteBook(quorum=1, timeout=0.0)


class TestExpiry:
    def test_pop_expired_respects_deadline(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        assert book.pop_expired(0.5) == []
        expired = book.pop_expired(1.0)
        assert len(expired) == 1
        assert len(book) == 0

    def test_released_entries_persist_as_tombstones(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        book.observe("k", 1, 0.0, pkt())
        assert len(book) == 1  # still cached after release
        late = book.observe("k", 2, 0.5, pkt())
        assert late.late_copy

    def test_stale_entry_evicted_on_late_observation(self):
        # the bounded-waiting-time rule: a copy arriving after the
        # deadline must not complete the old vote
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        outcome = book.observe("k", 1, 2.0, pkt())
        assert outcome.evicted_stale is not None
        assert outcome.is_new_entry
        assert not outcome.newly_released

    def test_released_tombstone_not_evicted_by_late_copy(self):
        book = VoteBook(quorum=1, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        # tombstones past deadline are swept by pop_expired, not observe
        late = book.observe("k", 1, 0.5, pkt())
        assert late.late_copy and late.evicted_stale is None

    def test_deadline_fixed_at_first_copy(self):
        book = VoteBook(quorum=3, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        book.observe("k", 1, 0.9, pkt())  # does not extend the deadline
        assert len(book.pop_expired(1.0)) == 1

    def test_evict_oldest(self):
        book = VoteBook(quorum=2, timeout=10.0)
        for i in range(5):
            book.observe(f"k{i}", 0, float(i), pkt(i))
        evicted = book.evict_oldest(2)
        assert [e.first_seen for e in evicted] == [0.0, 1.0]
        assert len(book) == 3

    def test_evict_more_than_present(self):
        book = VoteBook(quorum=2, timeout=10.0)
        book.observe("k", 0, 0.0, pkt())
        assert len(book.evict_oldest(10)) == 1


class TestIntrospection:
    def test_pending_and_released_partitions(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("a", 0, 0.0, pkt(0))
        book.observe("b", 0, 0.0, pkt(1))
        book.observe("b", 1, 0.0, pkt(1))
        assert len(book.pending()) == 1
        assert len(book.released()) == 1

    def test_missing_branches(self):
        book = VoteBook(quorum=2, timeout=1.0)
        outcome = book.observe("k", 0, 0.0, pkt())
        book.observe("k", 2, 0.0, pkt())
        assert outcome.entry.missing_branches([0, 1, 2]) == [1]

    def test_contains_and_get(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        assert "k" in book and "x" not in book
        assert book.get("k") is not None and book.get("x") is None

    def test_clear(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt())
        book.clear()
        assert len(book) == 0


class TestProbationCopies:
    """Copies observed with ``countable=False`` (quarantined branches)."""

    def test_probation_copy_never_advances_quorum(self):
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("k", 0, 0.0, pkt(), countable=False)
        outcome = book.observe("k", 1, 0.0, pkt(), countable=False)
        assert not outcome.newly_released
        assert not outcome.countable
        assert outcome.entry.distinct_branches == 0
        assert outcome.entry.probation_counts == {0: 1, 1: 1}

    def test_probation_copy_counts_in_totals_not_branches(self):
        book = VoteBook(quorum=2, timeout=1.0)
        outcome = book.observe("k", 2, 0.0, pkt(), countable=False)
        assert outcome.entry.total_copies() == 1
        assert outcome.entry.branches() == []

    def test_packet_not_adopted_from_probation_copy(self):
        # The released bytes must come from a *counted* branch: a
        # quarantined liar must not supply the canonical copy.
        book = VoteBook(quorum=2, timeout=1.0)
        suspect = pkt(1)
        book.observe("k", 2, 0.0, suspect, countable=False)
        honest = pkt(1)
        book.observe("k", 0, 0.0, honest)
        outcome = book.observe("k", 1, 0.0, pkt(1))
        assert outcome.newly_released
        assert outcome.entry.packet is honest

    def test_missing_branches_ignores_probation_membership(self):
        # The book reports a probation-only branch as "missing" from the
        # counted vote; deciding that it must NOT be alarmed on is the
        # compare layer's job (it skips quarantined/probation branches
        # when an entry is finalised).  Pin the division of labour.
        book = VoteBook(quorum=2, timeout=1.0)
        outcome = book.observe("k", 0, 0.0, pkt())
        book.observe("k", 1, 0.0, pkt())
        book.observe("k", 2, 0.0, pkt(), countable=False)
        assert outcome.entry.missing_branches([0, 1, 2]) == [2]
        assert 2 in outcome.entry.probation_counts

    def test_evicted_and_expired_entries_keep_probation_counts(self):
        # Entries leave the book through pop_expired and evict_oldest;
        # the finalise pass needs the probation bookkeeping intact to
        # credit (or reset) the quarantined branch correctly.
        book = VoteBook(quorum=2, timeout=1.0)
        book.observe("a", 0, 0.0, pkt(0))
        book.observe("a", 2, 0.0, pkt(0), countable=False)
        book.observe("b", 0, 0.5, pkt(1))
        book.observe("b", 2, 0.5, pkt(1), countable=False)
        (expired,) = book.pop_expired(1.0)
        assert expired.probation_counts == {2: 1}
        (evicted,) = book.evict_oldest(1)
        assert evicted.probation_counts == {2: 1}
