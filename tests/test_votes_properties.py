"""Property-based tests for the vote book: the NetCo safety and
liveness invariants under arbitrary arrival interleavings.

* Safety: a packet is released iff strictly more than ⌊k/2⌋ *distinct*
  branches delivered it, regardless of arrival order and repetition.
* At-most-once: no interleaving releases a packet twice.
"""

from hypothesis import given, settings, strategies as st

from repro.core.votes import VoteBook
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet


def pkt(ident=0):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        1, 2, ident=ident,
    )


# an arrival sequence: (key index, branch id) pairs
arrivals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=0, max_size=60
)


@given(arrivals, st.integers(1, 5))
@settings(max_examples=200)
def test_released_iff_quorum_distinct_branches(sequence, k):
    quorum = k // 2 + 1
    book = VoteBook(quorum=quorum, timeout=100.0)
    releases = {}
    for i, (key, branch) in enumerate(sequence):
        outcome = book.observe(key, branch, float(i) * 1e-3, pkt(key))
        if outcome.newly_released:
            releases[key] = releases.get(key, 0) + 1
    seen = {}
    for key, branch in sequence:
        seen.setdefault(key, set()).add(branch)
    for key, branches in seen.items():
        expected = 1 if len(branches) >= quorum else 0
        assert releases.get(key, 0) == expected


@given(arrivals)
@settings(max_examples=150)
def test_at_most_one_release_per_key(sequence):
    book = VoteBook(quorum=2, timeout=100.0)
    release_counts = {}
    for i, (key, branch) in enumerate(sequence):
        outcome = book.observe(key, branch, float(i) * 1e-3, pkt(key))
        if outcome.newly_released:
            release_counts[key] = release_counts.get(key, 0) + 1
    assert all(count == 1 for count in release_counts.values())


@given(arrivals)
@settings(max_examples=150)
def test_copy_accounting_is_exact(sequence):
    book = VoteBook(quorum=3, timeout=100.0)
    for i, (key, branch) in enumerate(sequence):
        book.observe(key, branch, float(i) * 1e-3, pkt(key))
    totals = {}
    for key, _branch in sequence:
        totals[key] = totals.get(key, 0) + 1
    for entry in book.entries():
        # entry keys are the raw observe keys here
        assert entry.total_copies() == totals[entry.key]


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=20),
    st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=100)
def test_expiry_is_complete_and_final(branches, timeout):
    book = VoteBook(quorum=2, timeout=timeout)
    for i, branch in enumerate(branches):
        book.observe("k", branch, 0.0, pkt())
    expired = book.pop_expired(timeout + 0.001)
    assert len(expired) == 1
    assert len(book) == 0
    assert book.pop_expired(1e9) == []


@given(arrivals)
@settings(max_examples=100)
def test_late_copies_never_release(sequence):
    book = VoteBook(quorum=1, timeout=100.0)  # everything releases at once
    for i, (key, branch) in enumerate(sequence):
        outcome = book.observe(key, branch, float(i) * 1e-3, pkt(key))
        if not outcome.is_new_entry:
            assert outcome.late_copy
            assert not outcome.newly_released
