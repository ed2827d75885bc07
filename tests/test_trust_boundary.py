"""What an untrusted branch can do with a packet it keeps.

A plain forwarding hop hands on the very object that arrived (see
``OpenFlowSwitch.apply_actions``), so a compromised router may still hold
a packet after it forwarded it, rewrite it through its own reference and
send it again.  The trusted side must not care: the collecting endpoint
tags a copy of its own (the vote book stores that copy), and the claim of
a release rides another copy (``transport/base.py``).  These tests attack
exactly that with a router that lets every packet pass, keeps it, and
later forges its tag, rewrites it and re-sends it.

The Section VII virtual combiner draws the same line at its egress: a
copy's branch is the egress port its tunnel ends on, so a transit that
copies its forgery into a neighbour tunnel's VLAN votes as itself once and
is refused as a spoof the other time.

The control plane has the same boundary one layer up: the voter is handed
message objects a controller replica built and still holds.  The last
section attacks it with a replica that sends exactly what its siblings
send and then rewrites what it sent.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import AdversarialBehavior
from repro.analysis.tasks import DRAIN_TIME, drive_ctrl_flow
from repro.apps.learning import LearningSwitchApp
from repro.ctrl.digest import digest
from repro.ctrl.replicated import BOGUS_PORT
from repro.live.verdict import fingerprint
from repro.core.alarms import ALARM_SPOOFED_BRANCH
from repro.net import MacAddress, Packet
from repro.net.packet import Vlan
from repro.openflow.actions import Output
from repro.openflow.messages import FlowMod
from repro.scenarios import ctrlplane
from repro.scenarios.ctrlplane import build_ctrl_testbed
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow

PACKETS = 5
FORGED_TAG = {"branch": 1, "endpoint": "forged", "claim": 99}


class KeepAndResend(AdversarialBehavior):
    """Let every packet through the genuine pipeline, keep a reference,
    and on :meth:`resend` forge the kept objects' tags, rewrite them and
    send them again toward the collector."""

    def __init__(self) -> None:
        super().__init__("keep-and-resend")
        self.kept = []

    def handle(self, switch, packet, in_port_no) -> bool:
        self.packets_seen += 1
        self.kept.append(packet)
        return False  # the normal pipeline forwards this very object

    def resend(self, switch, out_port_no: int) -> None:
        for packet in self.kept:
            packet.meta = dict(FORGED_TAG)
            packet.payload = b"F" * len(packet.payload)
            packet.ip.ttl = 1
            switch.ports[out_port_no].send(packet)


class Blackhole(AdversarialBehavior):
    def handle(self, switch, packet, in_port_no) -> bool:
        return True


def attacked_central3(silence_others: bool = False):
    """``central3`` with :class:`KeepAndResend` on router 0; every copy
    the collector's session is handed is recorded with what it sent."""
    testbed = build_testbed("central3", seed=1)
    net = testbed.network
    attacker = KeepAndResend()
    attacker.attach(testbed.routers[0])
    if silence_others:
        for router in testbed.routers[1:]:
            Blackhole().attach(router)
    collect = testbed.chain.endpoint_b._collect_session
    pairs = []  # [handed, emitted] per collect send
    send, port_send = collect.send, collect._port_send

    def spy_send(packet, branch=None, claim=None):
        pairs.append([packet])
        send(packet, branch=branch, claim=claim)

    def spy_port_send(tagged):
        pairs[-1].append(tagged)
        port_send(tagged)

    collect.send, collect._port_send = spy_send, spy_port_send
    delivered = []
    testbed.h2.bind_udp(5001, delivered.append)
    for seq in range(PACKETS):
        testbed.h1.send(Packet.udp(
            testbed.h1.mac, testbed.h2.mac, testbed.h1.ip, testbed.h2.ip,
            50000, 5001, payload=bytes([seq]) * 64, ident=seq,
        ))
    net.run(until=1e-3)  # every copy voted, no entry expired (5 ms)
    router = testbed.routers[0]
    egress = net.port_no_between(router.name, testbed.chain.endpoint_b.name)
    return testbed, attacker, (router, egress), pairs, delivered


def test_kept_packets_cannot_change_the_vote_book():
    """Branches 1 and 2 are silent, so every entry is pending on branch
    0's copies when branch 0 rewrites and re-sends the objects it kept:
    the stored packets, their tags and their claims do not move, and the
    forgeries vote as branch 0 (the port they came in on)."""
    testbed, attacker, (router, egress), pairs, delivered = attacked_central3(
        silence_others=True
    )
    core = testbed.compare_core
    pending = [
        (entry, entry.packet, entry.packet.to_bytes(), dict(entry.packet.meta))
        for entry in core.book.entries()
    ]
    assert len(pending) == PACKETS and not any(e.released for e, *_ in pending)
    assert [entry.claim for entry, *_ in pending] == [None] * PACKETS
    assert all(
        stored is not kept for _e, stored, *_ in pending for kept in attacker.kept
    )

    first_pass = len(pairs)
    attacker.resend(router, egress)
    testbed.network.run(until=2e-3)

    for entry, stored, wire, meta in pending:
        assert entry.packet is stored
        assert stored.to_bytes() == wire and stored.meta == meta
        assert entry.claim is None and not entry.released
    forged = pairs[first_pass:]
    assert len(forged) == PACKETS
    for (handed, tagged), kept in zip(forged, attacker.kept):
        assert handed is kept and tagged is not kept
        assert tagged.meta == {
            "branch": 0, "endpoint": testbed.chain.endpoint_b.name, "claim": None,
        }
    assert core.stats.released == 0 and delivered == []


def test_collect_session_always_tags_a_copy():
    """All branches forward honestly and each packet is released once;
    branch 0's later re-sends of the objects it kept are outvoted, and
    the collector never tags the object it was handed."""
    testbed, attacker, (router, egress), pairs, delivered = attacked_central3()
    assert sorted(p.payload for p in delivered) == [
        bytes([seq]) * 64 for seq in range(PACKETS)
    ]
    released = testbed.compare_core.stats.released
    assert released == PACKETS

    attacker.resend(router, egress)
    testbed.network.run(until=2e-3)

    assert len(pairs) == 4 * PACKETS  # three honest copies each, five forged
    for handed, tagged in pairs:
        assert tagged is not handed
        assert tagged.meta["endpoint"] == testbed.chain.endpoint_b.name
    assert testbed.compare_core.stats.released == released
    assert len(delivered) == PACKETS


# ----------------------------------------------------------------------
# the virtual combiner: a transit that writes another tunnel's label
# ----------------------------------------------------------------------
class CopyIntoNeighbourTunnel(AdversarialBehavior):
    """Corrupt every tunnelled copy and send it twice toward the egress:
    under this transit's own VLAN and under ``neighbour_vid``."""

    def __init__(self, neighbour_vid: int, egress_port: int) -> None:
        super().__init__("copy-into-neighbour-tunnel")
        self.neighbour_vid = neighbour_vid
        self.egress_port = egress_port

    def handle(self, switch, packet, in_port_no) -> bool:
        if packet.vlan is None:
            return False
        for vid in (packet.vlan.vid, self.neighbour_vid):
            forged = packet.copy()
            forged.payload = packet.payload[:-1] + b"\xff"
            forged.vlan = Vlan(vid)
            switch.ports[self.egress_port].send(forged)
        return True


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", ["virtual3", "virtual2"])
def test_transit_cannot_vote_in_a_neighbour_tunnel(variant, seed):
    """Transit 1 votes once as itself and once under the next tunnel's
    label: the second copy arrives on transit 1's egress port, so it is a
    spoofed branch and never reaches the vote.  Nothing forged reaches
    ``dst``; ``virtual3`` still releases every honest datagram, and
    ``virtual2`` withholds (detects) rather than delivering forgeries."""
    testbed = build_testbed(variant, seed=seed)
    net, k = testbed.network, len(testbed.routers)
    transit, neighbour = testbed.routers[1], testbed.routers[2 % k]
    (neighbour_vid,) = [e.match.dl_vlan for e in neighbour.table
                        if e.match.dl_vlan is not None]
    CopyIntoNeighbourTunnel(
        neighbour_vid, net.port_no_between(transit.name, "egress")
    ).attach(transit)
    arrived = {"honest": 0, "forged": 0}

    def tap(packet) -> None:
        if packet.payload:
            arrived["forged" if packet.payload[-1] else "honest"] += 1

    net.port_between(testbed.h2.name, "egress").taps.append(tap)
    flow = run_udp_flow(testbed.path(), rate_bps=10e6, duration=0.02)
    assert flow.sent == 18
    assert arrived["forged"] == 0
    assert testbed.alarms.count(ALARM_SPOOFED_BRANCH) == flow.sent
    assert arrived["honest"] == (flow.sent if variant == "virtual3" else 0)


class StripTunnelLabel(AdversarialBehavior):
    """Corrupt every tunnelled copy and send it on toward the egress
    relabelled ``vid``: ``None`` strips the tag, an unprotected VID hides
    it."""

    def __init__(self, vid, egress_port: int) -> None:
        super().__init__("strip-tunnel-label")
        self.vid = vid
        self.egress_port = egress_port

    def handle(self, switch, packet, in_port_no) -> bool:
        if packet.vlan is None:
            return False
        forged = packet.copy()
        forged.payload = packet.payload[:-1] + b"\xff"
        forged.vlan = None if self.vid is None else Vlan(self.vid)
        switch.ports[self.egress_port].send(forged)
        return True


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("vid", [None, 999], ids=["untagged", "vid999"])
@pytest.mark.parametrize("variant", ["virtual3", "virtual2"])
def test_transit_cannot_strip_its_label(variant, vid, seed):
    """Transit 1 sends its corrupted copy on without its tunnel's label.
    A frame for the protected destination on a tunnel port is a branch
    copy whatever it carries, so it is refused as a spoofed branch rather
    than routed to ``dst``; ``virtual3`` still releases every honest
    datagram."""
    testbed = build_testbed(variant, seed=seed)
    net, transit = testbed.network, testbed.routers[1]
    StripTunnelLabel(vid, net.port_no_between(transit.name, "egress")).attach(transit)
    arrived = {"honest": 0, "forged": 0}

    def tap(packet) -> None:
        if packet.payload:
            arrived["forged" if packet.payload[-1] else "honest"] += 1

    net.port_between(testbed.h2.name, "egress").taps.append(tap)
    flow = run_udp_flow(testbed.path(), rate_bps=10e6, duration=0.02)
    assert flow.sent == 18
    assert arrived["forged"] == 0
    spoofs = testbed.alarms.of_kind(ALARM_SPOOFED_BRANCH)
    assert len(spoofs) == flow.sent
    assert {alarm.details["claimed"] for alarm in spoofs} == {vid}
    assert arrived["honest"] == (flow.sent if variant == "virtual3" else 0)


# ----------------------------------------------------------------------
# the control plane: a replica that rewrites what it already sent
# ----------------------------------------------------------------------
def _rewrite_action_list(message) -> None:
    message.actions[0] = Output(BOGUS_PORT)


def _rewrite_output_port(message) -> None:
    for action in message.actions:
        if type(action) is Output:
            action.port = BOGUS_PORT


def _rewrite_match(message) -> None:
    if type(message) is FlowMod:
        message.match.dl_dst = MacAddress.BROADCAST


REWRITES = {
    "actions": _rewrite_action_list,
    "port": _rewrite_output_port,
    "match": _rewrite_match,
}


class RewritingReplica(LearningSwitchApp):
    """A learning switch that sends what its honest siblings send and
    rewrites each message through the reference it kept: right after its
    own submit (``after``), or just before its next one (``before``, when
    the message may be stored, in flight or installed)."""

    def __init__(self, sim, name, rewrite: str, when: str, **kwargs) -> None:
        super().__init__(sim, name, **kwargs)
        self.rewrite = REWRITES[rewrite]
        self.when = when
        self.kept = []
        self.attempts = 0
        self.refused = 0

    def send(self, switch, message) -> None:
        if self.when == "before":
            self._rewrite_kept()
        super().send(switch, message)
        self.kept.append(message)
        if self.when == "after":
            self._rewrite_kept()

    def _rewrite_kept(self) -> None:
        for message in self.kept:
            self.attempts += 1
            try:
                self.rewrite(message)
            except (AttributeError, TypeError):  # read-only: the write failed
                self.refused += 1
        self.kept.clear()


def ctrl_flow(monkeypatch=None, attacker=None) -> dict:
    """A 50 Mbit/s, 10 ms flow through ``central3`` under three learning
    replicas; ``attacker = (replica, rewrite, when)`` makes one of them a
    :class:`RewritingReplica`.  Returns the delivery fingerprint, the
    ``bad_port`` drops, the digests of the messages the routers received
    (on arrival and again after the run) and the attacker."""
    replicas = []
    if attacker is not None:
        index, rewrite, when = attacker

        def build(sim, name, **kwargs):
            if name.endswith(f"_c{index}"):
                replicas.append(RewritingReplica(sim, name, rewrite, when, **kwargs))
                return replicas[-1]
            return LearningSwitchApp(sim, name, **kwargs)

        monkeypatch.setattr(ctrlplane, "LearningSwitchApp", build)
    tb = build_ctrl_testbed("central3", seed=1)
    arrived = []
    for branch in tb.testbed.branches:
        for switch in branch:
            def spy(message, _deliver=switch.handle_controller_message):
                arrived.append((message, digest(message)))
                _deliver(message)

            switch.handle_controller_message = spy
    _flow, sequences, _ = drive_ctrl_flow(tb, "none", 50e6, 512, 0.01, DRAIN_TIME)
    bad_port = sum(
        switch.stats.dropped_bad_port
        for branch in tb.testbed.branches
        for switch in branch
    )
    return {
        "fingerprint": fingerprint(sequences),
        "received": len(sequences),
        "bad_port": bad_port,
        "on_arrival": [voted for _message, voted in arrived],
        "after_run": [digest(message) for message, _voted in arrived],
        "attacker": replicas[0] if replicas else None,
    }


@pytest.fixture(scope="module")
def honest_ctrl_flow():
    return ctrl_flow()


@pytest.mark.parametrize("replica", [0, 1], ids=["stored_copy", "quorum_copy"])
@pytest.mark.parametrize("when", ["after", "before"])
@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_replica_cannot_rewrite_a_released_decision(
    monkeypatch, honest_ctrl_flow, rewrite, when, replica
):
    """Replica 0's copy is the one the vote book stores; replica 1's is the
    one that completes each quorum.  Either way, what reaches a router is
    what the honest run sends it and stays so: the same delivery, no
    blackholed packet, the same messages byte for byte."""
    attacked = ctrl_flow(monkeypatch, (replica, rewrite, when))
    assert attacked["attacker"].attempts > 0
    assert attacked["received"] > 0
    assert attacked["fingerprint"] == honest_ctrl_flow["fingerprint"]
    assert attacked["bad_port"] == 0
    assert attacked["on_arrival"] == honest_ctrl_flow["on_arrival"]
    assert attacked["after_run"] == honest_ctrl_flow["on_arrival"]
