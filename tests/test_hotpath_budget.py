"""Host-independent gate on the cost of one simulated packet-hop.

Wall time on a shared host drifts by tens of per cent; the number of
Python calls a hop costs does not drift at all.  This runs the
``des_udp_central3`` recipe of ``bench/workloads.py`` at one-tenth size
under ``cProfile`` and holds the per-packet path to a call budget, so a
regression on the hot path (a property where an attribute did, a closure
and a handle per event, an extra frame between ``Port.send`` and the
wire) fails tier-1 by name instead of hiding in timer noise.

Calls per hop, this recipe: 70.5 before the lean hop, 44.6 with it.

The control-plane decision path (PacketIn → k replicas → ``ControlCompare``
→ release) has the same gate on one slice of the ``des_ctrl_reactive_k3``
recipe: 181.7 calls per hop before it was made lean, 126.6 with it.

The same idea gates the live receive path (``live_udp_vote``'s recipe at
small size): per received datagram, how often the voter side serialises
(0; it re-serialised every copy before ``Packet.parse`` kept the received
bytes), checksums (2; was 3) and builds address objects (4; was 8).
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats

from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.iperf import run_udp_flow

#: budget, in profiled calls (built-ins included) per link hop
MAX_CALLS_PER_HOP = 55
#: what the recipe simulates; any change here is a change of simulated
#: behaviour, not of speed, and must be explained (the counts are those
#: of the commit before `Simulator.post` existed)
HOPS = 10_320
EVENTS = 22_400


def _link_hops(network) -> int:
    return sum(
        stats.delivered_packets
        for link in network.links
        for _name, stats, _depth in link.directions()
    )


def test_calls_and_events_per_hop():
    testbed = build_testbed("central3", params=TestbedParams(batch_train=1), seed=1)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(10):
        flow = run_udp_flow(
            testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470
        )
        assert flow.lost == 0
    profile.disable()
    hops = _link_hops(testbed.network)
    events = testbed.network.sim.events_processed
    assert (hops, events) == (HOPS, EVENTS)
    calls = pstats.Stats(profile).total_calls
    assert calls / hops <= MAX_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_udp_central3 --trace` names the layer"
    )


# ----------------------------------------------------------------------
# the control-plane decision path: one slice of des_ctrl_reactive_k3
# ----------------------------------------------------------------------
#: ``CtrlReactive.KWARGS`` of ``bench/workloads.py``
CTRL_KWARGS = dict(
    variant="central3",
    ctrl_k=3,
    adversary="lying",
    rate_mbps=100.0,
    payload_size=512,
    flow_hard_timeout=1e-4,
)
MAX_CTRL_CALLS_PER_HOP = 133
#: what one slice simulates (the counts of the commit before the lean
#: decision path): hops, events, ``ctrl.submissions``, ``ctrl.released``
CTRL_SLICE = (2_880, 7_658, 4_149, 702)


def run_ctrl_slice(duration: float = 0.01):
    """One ``ctrl.run`` slice of the workload; ``(record, network)``."""
    import repro.analysis.tasks as tasks
    from repro.farm.spec import resolve_runner

    # The task returns only its record; the hop count needs the network,
    # so the builder it calls is wrapped for the call (as the workload does).
    built = []
    original = tasks.build_ctrl_testbed

    def capture(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    tasks.build_ctrl_testbed = capture
    try:
        record = resolve_runner("ctrl.run")(seed=1, duration=duration, **CTRL_KWARGS)
    finally:
        tasks.build_ctrl_testbed = original
    return record, built[0].network


def test_control_plane_calls_per_hop():
    run_ctrl_slice(0.001)  # lazy imports and regex caches are not the path
    profile = cProfile.Profile()
    profile.enable()
    record, network = run_ctrl_slice()
    profile.disable()
    hops = _link_hops(network)
    assert (
        hops,
        network.sim.events_processed,
        record["ctrl"]["submissions"],
        record["ctrl"]["released"],
    ) == CTRL_SLICE
    calls = pstats.Stats(profile).total_calls
    assert calls / hops <= MAX_CTRL_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_ctrl_reactive_k3 --trace` names the layer"
    )


# ----------------------------------------------------------------------
# the lean paths retain the telemetry the plain ones did
# ----------------------------------------------------------------------
#: sha256 over every retained record, in order, computed at the commit
#: before `TraceRecord` / `TraceBus.emit` / `_note_copy` were made lean
CTRL_SLICE_TELEMETRY = (
    6_111, "d2ae0a2987cf1c79c93c01ac656dfa68c433cb9a31c7ce58ea9718b244ac4d14"
)
CENTRAL3_FLOW_TELEMETRY = (
    172, "729b506e5e981b79102ed4fd7258e4bee0da82cf142668c8496ec5dbcac4965e"
)


def _telemetry(bus) -> tuple:
    digest = hashlib.sha256()
    for record in bus.records:
        digest.update(
            repr(
                (record.time, record.topic, record.source, sorted(record.data.items()))
            ).encode("utf-8")
        )
    return len(bus.records), digest.hexdigest()


def test_retained_telemetry_is_unchanged(monkeypatch):
    from repro.openflow.switch import OpenFlowSwitch

    # datapath ids come from a process-wide counter and appear in ctrl.*
    # records: start it where a fresh interpreter would
    monkeypatch.setattr(OpenFlowSwitch, "_dpid_counter", 0)
    _record, network = run_ctrl_slice()
    assert _telemetry(network.trace) == CTRL_SLICE_TELEMETRY
    testbed = build_testbed("central3", params=TestbedParams(batch_train=1), seed=1)
    run_udp_flow(testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470)
    assert _telemetry(testbed.network.trace) == CENTRAL3_FLOW_TELEMETRY


# ----------------------------------------------------------------------
# the live receive path: counts per received datagram
# ----------------------------------------------------------------------
LIVE_PACKETS = 200
LIVE_K = 3
LIVE_WINDOW = 16


def _calls(stats: pstats.Stats, module: str, *functions: str) -> int:
    """Profiled calls of ``functions`` defined in ``repro/<module>.py``."""
    return sum(
        ncalls
        for (filename, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if filename.endswith(f"/repro/{module}.py") and name in functions
    )


def test_live_receive_path_does_the_work_once():
    """The ``live_udp_vote`` recipe of ``bench/workloads.py`` at small
    size: k collect sessions over the loopback into a stock
    ``CompareCore``, closed loop.  A received copy is parsed once, verified
    once, and vote-keyed on the bytes that arrived — never re-serialised."""
    import asyncio

    from repro.core.alarms import AlarmSink
    from repro.core.compare import CompareConfig, CompareContext, CompareCore
    from repro.net import IpAddress, MacAddress, Packet
    from repro.transport import ROLE_COLLECT, SessionSpec
    from repro.transport.realtime import RealTimeScheduler
    from repro.transport.udp import UdpTransport

    packets = [
        Packet.udp(
            MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2),
            50000, 5001, payload=seq.to_bytes(4, "big") * 16, ident=seq,
        )
        for seq in range(LIVE_PACKETS)
    ]

    async def scenario() -> tuple:
        loop = asyncio.get_running_loop()
        core = CompareCore(
            RealTimeScheduler(loop),
            CompareConfig(k=LIVE_K, buffer_timeout=0.5),
            name="budget_compare",
            alarm_sink=AlarmSink(None),
        )
        voter_side = UdpTransport(("127.0.0.1", 0), name="budget.compare")
        switch_side = UdpTransport(("127.0.0.1", 0), name="budget.switches")
        profile = cProfile.Profile()
        try:
            voter_addr = await voter_side.start()
            await switch_side.start()
            branches = [
                switch_side.session(SessionSpec("sA", ROLE_COLLECT, b), remote=voter_addr)
                for b in range(LIVE_K)
            ]
            pending = iter(packets)
            released = []
            done = asyncio.Event()

            def send_next() -> None:
                packet = next(pending, None)
                if packet is not None:
                    for session in branches:
                        session.send(packet)

            def release(packet) -> None:
                released.append(packet)
                send_next()
                if len(released) == LIVE_PACKETS:
                    done.set()

            context = CompareContext(scope="sA", release=release)
            voter_side.session(SessionSpec("sA", ROLE_COLLECT)).set_receiver(
                lambda packet, meta: core.submit(packet, meta["branch"], context)
            )
            profile.enable()
            for _ in range(LIVE_WINDOW):
                send_next()
            await asyncio.wait_for(done.wait(), timeout=30.0)
            profile.disable()
            core.flush()
        finally:
            profile.disable()
            switch_side.close()
            voter_side.close()
        return released, core.stats.submissions, voter_side.rx_errors, profile

    released, submissions, rx_errors, profile = asyncio.run(scenario())
    assert [p.to_bytes() for p in released] == [p.to_bytes() for p in packets]
    received = LIVE_PACKETS * LIVE_K
    assert (submissions, rx_errors) == (received, 0)
    stats = pstats.Stats(profile)
    assert _calls(stats, "net/packet", "parse") == received
    # once per packet sent (its k sessions share the image), never to vote
    assert _calls(stats, "net/packet", "_serialise") == LIVE_PACKETS
    # sender: IPv4 header + UDP per serialise; voter: the same two, verifying
    assert _calls(stats, "net/packet", "internet_checksum") <= 2 * LIVE_PACKETS + 2 * received
    # two MACs, two IPs, each built once (the sender builds none: the
    # packets exist before the profile starts)
    assert _calls(stats, "net/addresses", "__init__") <= 4 * received
