"""Property-based quorum invariants under randomized fault schedules.

For ≥20 randomized sessions (random delivery subsets, random
corruptions, random operator quarantine/readmit actions) the compare
must uphold the NetCo contract in degraded mode too:

* every released packet is the bit-identical wire image delivered by a
  strict majority of the branches that were *non-quarantined* when they
  voted (and never fewer than two of them);
* a packet that never collects two identical countable copies is never
  released (no release during a below-quorum window);
* the dynamic quorum never drops below 2 and the active bundle never
  shrinks below ``min_active_branches``.
"""

import random

import pytest

from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator

SEEDS = list(range(24))
K = 3


def make_pkt(ident, payload):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        5, 5, payload=payload, ident=ident,
    )


class ChaosSession:
    """One randomized compare session with full submission provenance."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.core = CompareCore(
            self.sim,
            CompareConfig(
                k=K,
                buffer_timeout=0.004,
                miss_threshold=6,
                probation_clean_target=4,
            ),
        )
        #: ident -> list of (branch, wire bytes, quarantined at vote time)
        self.votes = {}
        #: (packet, release time, quorum at release, active set at release)
        self.releases = []
        self.quorum_seen = []
        self.active_seen = []
        self.context = CompareContext(
            scope="s",
            release=self._on_release,
            block_branch=lambda branch, duration: None,
        )

    def _on_release(self, packet):
        self.releases.append(
            (
                packet,
                self.sim.now,
                self.core.book.quorum,
                tuple(self.core.active_branches()),
            )
        )

    def _submit(self, ident, branch, payload):
        self.votes.setdefault(ident, []).append(
            (branch, payload, self.core.is_quarantined(branch))
        )
        self.core.submit(make_pkt(ident, payload), branch, self.context)
        self.quorum_seen.append(self.core.book.quorum)
        self.active_seen.append(len(self.core.active_branches()))

    def run(self, packets=120):
        rng = self.rng
        t = 0.0
        for ident in range(packets):
            t += rng.uniform(1e-4, 6e-4)
            payload = bytes([ident % 251, (ident >> 8) & 0xFF]) * 8
            delivering = [b for b in range(K) if rng.random() < 0.8]
            corrupt = rng.random() < 0.15
            for order, branch in enumerate(delivering):
                data = payload
                if corrupt and order == 0:
                    data = b"\xff" + payload[1:]
                delay = rng.uniform(0.0, 2e-4)
                self.sim.schedule_at(
                    t + delay,
                    lambda i=ident, b=branch, d=data: self._submit(i, b, d),
                )
            if rng.random() < 0.06:
                branch = rng.randrange(K)
                self.sim.schedule_at(
                    t + rng.uniform(0.0, 1e-4),
                    lambda b=branch: self.core.quarantine_branch(b, reason="op"),
                )
            if rng.random() < 0.06:
                branch = rng.randrange(K)
                self.sim.schedule_at(
                    t + rng.uniform(0.0, 1e-4),
                    lambda b=branch: self.core.readmit_branch(b, reason="op"),
                )
        self.sim.run(until=t + 0.05)
        self.core.flush()
        return self


@pytest.mark.parametrize("seed", SEEDS)
def test_release_requires_countable_bit_identical_majority(seed):
    s = ChaosSession(seed).run()
    assert s.releases, "session produced no releases at all"
    for packet, _time, quorum, active in s.releases:
        votes = s.votes[packet.ip.ident]
        wire = packet.to_bytes()
        matching = {
            branch
            for branch, data, quarantined in votes
            if not quarantined and make_pkt(packet.ip.ident, data).to_bytes() == wire
        }
        # strict majority of the active (non-quarantined) bundle, and
        # never a single-source release
        assert len(matching) >= 2
        assert len(matching) >= len(active) // 2 + 1
        assert len(matching) >= quorum


@pytest.mark.parametrize("seed", SEEDS)
def test_no_release_during_below_quorum_window(seed):
    s = ChaosSession(seed).run()
    released_idents = {p.ip.ident for p, *_ in s.releases}
    for ident, votes in s.votes.items():
        # the strongest countable agreement this packet ever collected
        by_payload = {}
        for branch, data, quarantined in votes:
            if not quarantined:
                by_payload.setdefault(data, set()).add(branch)
        best = max((len(b) for b in by_payload.values()), default=0)
        if best < 2:
            assert ident not in released_idents, (
                f"packet {ident} released with only {best} countable "
                f"identical copies"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_quorum_and_bundle_floors_hold(seed):
    s = ChaosSession(seed).run()
    assert min(s.quorum_seen) >= 2
    assert min(s.active_seen) >= s.core.config.min_active_branches
    # every release carries at least two distinct active branches
    for _packet, _time, quorum, active in s.releases:
        assert quorum >= 2
        assert len(active) >= 2


def test_full_lifecycle_fixed_seed():
    """One deterministic end-to-end check: quarantine shrinks the quorum
    bookkeeping, probation re-admits, and releases continue throughout."""
    s = ChaosSession(seed=99)
    sim, core = s.sim, s.core

    # steady traffic on all three branches, branch 2 silent mid-run
    def offer(ident, t, branches):
        payload = bytes([ident % 200]) * 12
        for b in branches:
            sim.schedule_at(t, lambda i=ident, b=b: s._submit(i, b, payload))

    t = 0.0
    for i in range(80):
        t += 5e-4
        if 0.010 <= t < 0.022:
            branches = (0, 1)  # branch 2 dark -> misses accumulate
        else:
            branches = (0, 1, 2)
        offer(i, t, branches)
    sim.schedule_at(0.0205, lambda: core.quarantine_branch(2, reason="test"))
    sim.run(until=t + 0.05)
    core.flush()

    assert core.stats.quarantines == 1
    assert core.stats.readmissions == 1  # probation completed on clean votes
    assert not core.is_quarantined(2)
    # no packet went missing end-to-end while degraded
    assert len(s.releases) == 80
