"""Failure injection: NetCo under benign faults (not just malice).

Random link loss, a dead branch, a mid-run compromise and a lossy
compare attachment — the combiner's quorum must absorb what it can and
alarm on what it cannot.
"""

import pytest

from repro.adversary.dos import BlackholeBehavior
from repro.chaos.quarantine import QuarantineController
from repro.chaos.schedule import ChaosEngine, FaultSchedule, RouterCrash
from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_ROUTER_UNAVAILABLE,
)
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow
from repro.traffic.udp import UdpSender, _decode_payload


def build_rig(
    k=3,
    branch_loss=0.0,
    compare_link_loss=0.0,
    miss_threshold=8,
    seed=31,
):
    net = Network(seed=seed)
    params = CombinerChainParams(
        k=k,
        compare=CompareConfig(k=k, buffer_timeout=2e-3, miss_threshold=miss_threshold),
    )
    chain = build_combiner_chain(net, "nc", params)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")

    if branch_loss > 0.0:
        # lossy branch links (cheap hardware, bad cables), drawn from
        # each link's own loss RNG stream
        for router in chain.routers:
            for link in net.links:
                names = {link.a.node.name, link.b.node.name}
                if router.name in names and (
                    chain.endpoint_a.name in names or chain.endpoint_b.name in names
                ):
                    link.set_loss(branch_loss)
    if compare_link_loss > 0.0 and chain.compare_host is not None:
        for link in net.links:
            names = {link.a.node.name, link.b.node.name}
            if chain.compare_host.name in names:
                link.set_loss(compare_link_loss)
    return net, chain, h1, h2


class TestRandomLoss:
    def test_low_branch_loss_fully_absorbed(self):
        # 2% per-branch loss: P(>=2 of 3 copies lost) ~ 0.1%, so pings
        # sail through
        net, chain, h1, h2 = build_rig(branch_loss=0.02)
        result = run_ping(PathEndpoints(net, h1, h2), count=50, interval=5e-4)
        assert result.received >= 49

    def test_udp_loss_far_below_raw_loss(self):
        net, chain, h1, h2 = build_rig(branch_loss=0.05)
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05
        )
        # each copy crosses two lossy links (5% each -> ~9.75% per
        # copy); quorum needs 2 of 3: P(2+ copies lost) ~ 2.7%, far
        # below the ~19% a single unprotected lossy path would see
        assert result.loss_rate < 0.06

    def test_heavy_branch_loss_degrades_visibly(self):
        net, chain, h1, h2 = build_rig(branch_loss=0.4, seed=33)
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=10e6, duration=0.05
        )
        assert 0.1 < result.loss_rate < 0.9

    def test_lossy_compare_attachment(self):
        # copies lost on the way to the compare still leave a quorum,
        # but a lost *release* loses the packet: expect ~5-6% loss per
        # direction, ~11% per ping cycle
        net, chain, h1, h2 = build_rig(compare_link_loss=0.05)
        result = run_ping(PathEndpoints(net, h1, h2), count=30, interval=5e-4)
        assert 22 <= result.received < 30


class TestDeadBranch:
    def test_dead_router_from_start(self):
        net, chain, h1, h2 = build_rig()
        BlackholeBehavior().attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=20, interval=5e-4)
        assert result.received == 20
        alarms = chain.compare_core.alarms.of_kind(ALARM_ROUTER_UNAVAILABLE)
        assert alarms and alarms[0].branch == 1

    def test_mid_run_compromise_detected(self):
        net, chain, h1, h2 = build_rig(miss_threshold=5)
        # the router is benign for the first half, then dies
        net.sim.schedule(
            0.01, lambda: BlackholeBehavior().attach(chain.router(0))
        )
        result = run_ping(PathEndpoints(net, h1, h2), count=40, interval=5e-4)
        assert result.received == 40  # service uninterrupted
        alarms = chain.compare_core.alarms.of_kind(ALARM_ROUTER_UNAVAILABLE)
        assert alarms
        assert alarms[0].time > 0.01  # raised only after the failure

    def test_recovery_clears_future_alarms(self):
        net, chain, h1, h2 = build_rig(miss_threshold=5)
        behavior = BlackholeBehavior()
        behavior.attach(chain.router(0))
        # the router comes back after 15 ms
        net.sim.schedule(0.015, lambda: setattr(chain.router(0), "behavior", None))
        result = run_ping(PathEndpoints(net, h1, h2), count=60, interval=5e-4)
        assert result.received == 60
        alarms = chain.compare_core.alarms.of_kind(ALARM_ROUTER_UNAVAILABLE)
        assert len(alarms) == 1  # one outage, one alarm

    def test_two_dead_routers_with_k5(self):
        net, chain, h1, h2 = build_rig(k=5)
        BlackholeBehavior().attach(chain.router(0))
        BlackholeBehavior().attach(chain.router(3))
        result = run_ping(PathEndpoints(net, h1, h2), count=20, interval=5e-4)
        assert result.received == 20

    def test_two_dead_routers_kill_k3(self):
        net, chain, h1, h2 = build_rig(k=3)
        BlackholeBehavior().attach(chain.router(0))
        BlackholeBehavior().attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=5e-4)
        assert result.received == 0


class TestSelfHealingLifecycle:
    """Crash → quarantine → restart → re-admission, end to end."""

    WARMUP = 1e-3
    DURATION = 0.05
    CRASH_AT = 0.010
    RESTART_AT = 0.025

    def run_crash_flow(self, restart=True, rate_bps=20e6):
        net, chain, h1, h2 = build_rig(k=3)
        net.trace.start_retaining()  # the alarm-ordering case reads it
        core = chain.compare_core
        core.config.probation_clean_target = 10
        controller = QuarantineController(core, net.trace)
        schedule = FaultSchedule(
            [
                RouterCrash(
                    self.CRASH_AT,
                    "nc_r1",
                    restart_at=self.RESTART_AT if restart else None,
                )
            ],
            name="lifecycle",
        )
        ChaosEngine(schedule, net).arm()

        received = []  # (seq, ttl, arrival time)
        h2.bind_udp(5001, lambda p: received.append(
            (_decode_payload(p.payload)[0], p.ip.ttl, net.sim.now)))
        sender = UdpSender(
            h1, dst_mac=h2.mac, dst_ip=h2.ip, dport=5001, rate_bps=rate_bps
        )
        sender.start(self.DURATION, delay=self.WARMUP)
        net.run(until=self.WARMUP + self.DURATION + 0.02)
        return net, chain, controller, sender, received

    def test_full_lifecycle_transitions(self):
        net, chain, controller, sender, received = self.run_crash_flow()
        events = [(t["event"], t["branch"]) for t in controller.transitions]
        assert events == [("quarantine", 1), ("readmit", 1)]
        q_time = controller.transitions[0]["time"]
        r_time = controller.transitions[1]["time"]
        assert self.CRASH_AT < q_time < self.RESTART_AT
        assert r_time > self.RESTART_AT
        core = chain.compare_core
        assert not core.is_quarantined(1)
        assert core.active_branches() == [0, 1, 2]
        assert core.stats.quarantines == 1 and core.stats.readmissions == 1

    def test_alarm_ordering_unavailable_precedes_quarantine(self):
        net, chain, controller, sender, received = self.run_crash_flow()
        kinds = [a.kind for a in chain.compare_core.alarms.alarms]
        assert ALARM_ROUTER_UNAVAILABLE in kinds
        assert ALARM_BRANCH_QUARANTINED in kinds
        assert kinds.index(ALARM_ROUTER_UNAVAILABLE) < kinds.index(
            ALARM_BRANCH_QUARANTINED
        )
        assert kinds.index(ALARM_BRANCH_QUARANTINED) < kinds.index(
            ALARM_BRANCH_READMITTED
        )
        # same story on the trace bus, for RunReport consumers
        alarm_kinds = [r.data["kind"] for r in net.trace.select("alarm")]
        assert alarm_kinds.index(ALARM_ROUTER_UNAVAILABLE) < alarm_kinds.index(
            ALARM_BRANCH_QUARANTINED
        )

    def test_seq_and_ttl_continuity_across_restart(self):
        net, chain, controller, sender, received = self.run_crash_flow()
        # k=3 tolerates one dead branch: no datagram is ever lost
        seqs = [seq for seq, _ttl, _t in received]
        assert seqs == list(range(sender.sent))
        # the released copies keep the same hop count before, during and
        # after the crash (no path change, no TTL glitch on re-admission)
        assert len({ttl for _seq, ttl, _t in received}) == 1

    def test_zero_post_quarantine_gaps(self):
        net, chain, controller, sender, received = self.run_crash_flow()
        q_time = controller.transitions[0]["time"]
        seen = {seq for seq, _ttl, _t in received}
        post = [
            s for s in range(sender.sent)
            if self.WARMUP + s * sender.interval >= q_time
        ]
        assert post, "run too short: nothing sent after quarantine"
        assert all(s in seen for s in post)

    def test_crash_without_restart_stays_quarantined(self):
        net, chain, controller, sender, received = self.run_crash_flow(
            restart=False
        )
        core = chain.compare_core
        assert core.is_quarantined(1)
        assert core.active_branches() == [0, 2]
        assert [t["event"] for t in controller.transitions] == ["quarantine"]
        assert core.stats.readmissions == 0
        # forwarding continued on the surviving pair
        assert len(received) == sender.sent
