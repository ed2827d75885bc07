"""Cross-module integration tests: the NetCo end-to-end guarantees.

The central safety invariant (Section III): with at most ⌊k/2⌋ malicious
routers, every frame delivered out of the combiner is bit-identical to a
frame that entered it, and every frame that entered it is delivered
exactly once.  The attack matrix exercises that invariant against every
data-plane entry of the adversary catalogue.
"""

import pytest

from repro.adversary.catalogue import DATA, names
from repro.adversary.dos import ReplayFloodBehavior
from repro.adversary.modify import (
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    dst_mac_rewrite,
)
from repro.chaos.schedule import AdversaryStrategy, ChaosEngine, FaultSchedule
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build_rig(k=3, seed=11):
    net = Network(seed=seed)
    params = CombinerChainParams(
        k=k, compare=CompareConfig(k=k, buffer_timeout=2e-3)
    )
    chain = build_combiner_chain(net, "nc", params)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")
    return net, chain, h1, h2


#: the ids the hand-built matrix gave the entries it covered
CASE_IDS = {
    "payload_corruption": "corrupt",
    "drop": "drop-udp",
    "header_rewrite": "rewrite-vlan",
    "replay_flood": "replay",
    "port_swap": "port-swap",
}

#: every data-plane entry of the adversary catalogue
ATTACKS = [pytest.param(name, id=CASE_IDS.get(name, name)) for name in names(DATA)]


class TestAttackMatrix:
    @pytest.mark.parametrize("attack", ATTACKS)
    @pytest.mark.parametrize("k", (3, 5))
    def test_single_traitor_is_masked(self, attack, k):
        net, chain, h1, h2 = build_rig(k=k)
        ChaosEngine(
            FaultSchedule([AdversaryStrategy(0.0, chain.router(0).name, strategy=attack)]),
            net,
            compare_core=chain.compare_core,
        ).arm()

        sent_frames = set()
        delivered = []
        original_send = h1.send

        def tracking_send(packet):
            sent_frames.add(packet.to_bytes())
            original_send(packet)

        h1.send = tracking_send
        h2.bind_raw(delivered.append)

        result = run_ping(PathEndpoints(net, h1, h2), count=8, interval=1e-3)
        # liveness: every cycle completes despite the traitor
        assert result.received == 8, f"{attack} broke liveness at k={k}"
        # safety: everything h2 got was exactly something h1 sent
        for frame in delivered:
            assert frame.to_bytes() in sent_frames, f"{attack} leaked a forged frame"
        # exactly-once: no duplicates delivered
        assert result.duplicates == 0

    @pytest.mark.parametrize("attack", ("rewrite-dst", "replay"))
    def test_noncooperating_majority_cannot_forge(self, attack):
        # two traitors misbehaving *differently* (the paper's
        # non-cooperation assumption) may censor traffic, but h2 still
        # never receives a frame h1 did not send
        net, chain, h1, h2 = build_rig(k=3)
        # traitor 0: the parametrised attack; traitor 1: a different one
        if attack == "rewrite-dst":
            traitor = HeaderRewriteBehavior(dst_mac_rewrite(h1.mac))
        else:
            traitor = ReplayFloodBehavior(amplification=5)
        traitor.attach(chain.router(0))
        PayloadCorruptionBehavior(flip_offset=3).attach(chain.router(1))

        sent_frames = set()
        original_send = h1.send

        def tracking_send(packet):
            sent_frames.add(packet.to_bytes())
            original_send(packet)

        h1.send = tracking_send
        delivered = []
        h2.bind_raw(delivered.append)
        run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        for frame in delivered:
            assert frame.to_bytes() in sent_frames

    def test_coordinated_majority_collusion_defeats_netco(self):
        # the explicit boundary of the model: two traitors applying the
        # *identical* transformation outvote the honest router, and the
        # forged frame is delivered — which is why the paper's trust
        # argument rests on vendor/country diversity
        net, chain, h1, h2 = build_rig(k=3)
        PayloadCorruptionBehavior(flip_offset=0).attach(chain.router(0))
        PayloadCorruptionBehavior(flip_offset=0).attach(chain.router(1))
        delivered = []
        h2.bind_raw(delivered.append)
        run_ping(PathEndpoints(net, h1, h2), count=3, interval=1e-3)
        corrupted = [p for p in delivered if p.payload and p.payload[0] == 0xFF]
        assert corrupted, "identical collusion should win the vote"


class TestMixedWorkloads:
    def test_concurrent_udp_and_ping(self):
        net, chain, h1, h2 = build_rig()
        from repro.traffic.ping import Pinger
        from repro.traffic.udp import UdpReceiver, UdpSender

        receiver = UdpReceiver(h2, 5001)
        sender = UdpSender(h1, h2.mac, h2.ip, 5001, rate_bps=20e6)
        pinger = Pinger(h1, h2.mac, h2.ip)
        sender.start(duration=0.02)
        pinger.run(count=10, interval=2e-3)
        net.run(until=0.08)
        assert pinger.result().received == 10
        assert receiver.result(sender, 0.02).loss_rate == 0.0

    def test_bidirectional_pings(self):
        net, chain, h1, h2 = build_rig()
        from repro.traffic.ping import Pinger

        forward = Pinger(h1, h2.mac, h2.ip)
        backward = Pinger(h2, h1.mac, h1.ip)
        forward.run(count=5, interval=1e-3)
        backward.run(count=5, interval=1e-3)
        net.run(until=0.05)
        assert forward.result().received == 5
        assert backward.result().received == 5


class TestDeterminism:
    def run_once(self, seed):
        net, chain, h1, h2 = build_rig(seed=seed)
        PayloadCorruptionBehavior().attach(chain.router(1))
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=30e6, duration=0.02
        )
        stats = chain.compare_core.stats
        return (
            result.received_unique,
            result.jitter_s,
            stats.submissions,
            stats.released,
        )

    def test_same_seed_identical_run(self):
        assert self.run_once(5) == self.run_once(5)
