"""Host-independent gate on the cost of one simulated packet-hop.

Wall time on a shared host drifts by tens of per cent; the number of
Python calls a hop costs does not drift at all.  This runs the
``des_udp_central3`` recipe of ``bench/workloads.py`` at one-tenth size
under ``cProfile`` and holds the per-packet path to a call budget, so a
regression on the hot path (a property where an attribute did, a closure
and a handle per event, an extra frame between ``Port.send`` and the
wire) fails tier-1 by name instead of hiding in timer noise.

Calls per hop, this recipe: 70.5 before the lean hop, 44.6 with it; then
44.0 → 37.7 once a router forwards the packet it owns (no working copy
for an action list that writes nothing, no expiry checks in a table
without timeouts) and the endpoints resolve their wiring once; then
37.5 → 30.7 once the sending port owns its link direction (a hop is two
frames: ``Port.send`` and the arrival), addresses are ints (C-level
hashing and equality, serialised without a frame), ``Simulator.now`` is
a plain attribute and the compare host hands copies to the core and
releases through its session without a ``lambda`` in between; then
30.7 → 29.9 once a trace bus keeps no record nobody asked for (``emit``
returns before it builds one); then 29.6 once a UDP sender's interval is
an attribute, not a property; then 27.1 once the vote step and the
packet lost their repeated per-copy work (the outcome is a tuple, the
wire-image check and the bit-exact key have no frames of their own, a
copy re-marks no header already shared, a UDP frame is serialised in
one pack); then 26.4 once a router sends on its port (no egress session
between its action list and the wire) and the UDP receiver lost a
throughput meter nothing read; then 24.6 once a CBR datagram is stamped
from its flow's template (one new IPv4 header and a patched image, where
``Packet.udp`` built four objects and the combiner ingress serialised the
frame, with two checksum passes, to key the vote).

The control-plane decision path (PacketIn → k replicas → ``ControlCompare``
→ release) has the same gate on one slice of the ``des_ctrl_reactive_k3``
recipe: 181.7 calls per hop before it was made lean, 120.9 with it; then
113.8 once the messages are built without a setter per field, digested in
one pass and handed on positionally, and the vote step lost its property
frame and its copy of the book per sweep; then 101.3 with the two-frame
hop, int addresses (the learning app's MAC table hashes and compares in C)
and the plain clock attribute; then 90.7 once the ``ctrl.vote`` and
``switch.packet_in`` records are no longer kept by default; then 90.3
with the sender's interval attribute; then 80.1 once every per-copy and
per-decision record site asks the bus before it builds its fields (a
quiet bus: 4 ``emit`` calls in the slice, 6,111 before) and the learning
app, the switch's message dispatch and the FlowMod encoder lost their
leftover per-decision work; then 74.7 with the same shared packet and
voter trims; then 74.0 once a router sends on its port; then 72.4 with
the stamped CBR datagram.

The TCP path has the same gate on one tenth of the ``des_tcp_central3``
recipe: 27.4 calls per hop while every segment and ACK was built with
``Packet.tcp`` and serialised (a checksum pass over its payload) and
every restart of the retransmission timer cancelled its event and
scheduled another; then 24.8 once each segment is stamped from its
connection direction's template and a restart moves the pending event in
place; then 24.83 once ``fields()`` stopped slicing the payload out on
every call and the receiver asks ``payload`` for a segment's length
(one more frame per segment received, 420 in the recipe).

The same idea gates the live receive path (``live_udp_vote``'s recipe at
small size): per released packet of k = 3 copies, how often the voter
side serialises (0; it re-serialised every copy before ``Packet.parse``
kept the received bytes), parses and copies packets (0: each copy is a
read-only frame over the bytes that arrived; one parse per frame and a
copy per copy before, three parses before that), calls
``internet_checksum`` (0: a frame sums its 20-byte IPv4 header inline;
2 while the copies shared one parse and its 1.5 kB UDP pass, 6 before
that, 9 before that) and constructs address objects (0).  The whole
recipe has a ceiling in calls per released packet (216.1 before each
copy's work was done once: two clock reads per copy, three Python frames
per address, a namedtuple ``__new__`` and a meta dict rebuilt per
datagram, a vote outcome built through ``__init__``; 146.1 with a shared
parse and a copy per copy, 130.1 with frames), and reads the clock once
per copy.

Memory has a clock-free gate too: ``tracemalloc`` counts the bytes a
held packet retains — serialised, parsed from a canonical frame, or
after an in-place TTL decrement — so a second copy of the payload beside the wire
image fails by name instead of hiding in ``peak_rss_mb`` noise.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
from collections import Counter

from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.iperf import run_udp_flow

#: budget, in profiled calls (built-ins included) per link hop
MAX_CALLS_PER_HOP = 25.8
#: UDP flows the recipe runs, each from a template of its own
FLOWS = 10
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
    datagrams = 0
    profile.enable()
    for _ in range(FLOWS):
        flow = run_udp_flow(
            testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470
        )
        assert flow.lost == 0
        datagrams += flow.sent
    profile.disable()
    hops = _link_hops(testbed.network)
    events = testbed.network.sim.events_processed
    assert (hops, events) == (HOPS, EVENTS)
    # nobody asked for the records: none is kept
    assert testbed.network.trace.records == []
    stats = pstats.Stats(profile)
    calls = stats.total_calls
    assert calls / hops <= MAX_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_udp_central3 --trace` names the layer"
    )
    # the hub's three, the collector's three tags, the release and the
    # egress; the routers forward the packet they own (11 when each of
    # them copied it)
    assert _calls(stats, "net/packet", "copy") == 8 * datagrams
    # a datagram is stamped from its flow's template: only the template is
    # serialised, with its two checksums (one serialisation and two passes
    # per datagram while the combiner ingress keyed a built packet)
    assert _calls(stats, "net/packet", "_serialise") == FLOWS
    assert _calls(stats, "net/packet", "internet_checksum") == 2 * FLOWS
    assert _calls(stats, "net/stamp", "stamp") == datagrams
    # no entry of these tables has a timeout: nothing to sweep
    assert _calls(stats, "openflow/flowtable", "sweep_expired") == 0
    # a hop is two frames, `Port.send` and the arrival event; the rest of
    # net.link and net.node, but for a datapath's service queue
    # (`Datapath.receive` and its `_serve_one` event), is wiring, resolved
    # once
    hop_frames = _calls(stats, "net/node", "send", "_arrive")
    assert hop_frames == 2 * hops
    service = _calls(stats, "net/node", "receive", "_serve_one")
    wiring = _calls(stats, "net/link") + _calls(stats, "net/node") - hop_frames - service
    assert wiring < 0.01 * hops
    # addresses hash, compare and serialise as ints, without a frame
    assert _calls(stats, "net/addresses") <= 0.25 * hops


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
MAX_CTRL_CALLS_PER_HOP = 74.8
#: what one slice simulates (the counts of the commit before the lean
#: decision path): hops, events, ``ctrl.submissions``, ``ctrl.released``
CTRL_SLICE = (2_880, 7_658, 4_149, 702)
#: ``Packet.copy`` calls in that slice: one per replica per PacketIn plus
#: the data plane's; a release must not add one
CTRL_SLICE_PACKET_COPIES = 4_695


def run_ctrl_slice(duration: float = 0.01, prepare=None):
    """One ``ctrl.run`` slice of the workload; ``(record, network)``.
    ``prepare(network)`` runs between the build and the run."""
    import repro.analysis.tasks as tasks
    from repro.farm.spec import resolve_runner

    # The task returns only its record; the hop count needs the network,
    # so the builder it calls is wrapped for the call (as the workload does).
    built = []
    original = tasks.build_ctrl_testbed

    def capture(*args, **kwargs):
        built.append(original(*args, **kwargs))
        if prepare is not None:
            prepare(built[-1].network)
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
    assert network.trace.records == []
    stats = pstats.Stats(profile)
    calls = stats.total_calls
    assert calls / hops <= MAX_CTRL_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_ctrl_reactive_k3 --trace` names the layer"
    )
    assert _calls(stats, "net/packet", "copy") <= CTRL_SLICE_PACKET_COPIES
    # every copy is encoded once, when it is submitted; only a release by
    # a quorum shrink (none in this slice) encodes a stored copy again
    assert (
        _calls(stats, "ctrl/digest", "encode_flow_mod", "encode_packet_out")
        == record["ctrl"]["submissions"]
    )


# ----------------------------------------------------------------------
# the TCP path: one tenth of des_tcp_central3
# ----------------------------------------------------------------------
#: ``TcpFlow`` of ``bench/workloads.py`` at one-tenth size: flows of 4 ms
TCP_FLOWS = 10
TCP_DURATION = 0.004
MAX_TCP_CALLS_PER_HOP = 26.0
#: what the recipe simulates: hops and events
TCP_HOPS = 9_720
TCP_EVENTS = 20_281
#: timer cancels: when a connection opens, when its flight empties and
#: when it ends (264 while every restart cancelled the pending event)
TCP_CANCELS = 45


def test_tcp_calls_per_hop():
    from repro.traffic.iperf import run_tcp_flow

    import repro.traffic.tcp  # noqa: F401 (the import is not the path)

    testbed = build_testbed("central3", seed=1)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(TCP_FLOWS):
        flow = run_tcp_flow(testbed.path(), duration=TCP_DURATION, mss=1460)
        assert flow.bytes_acked > 0
    profile.disable()
    hops = _link_hops(testbed.network)
    assert (hops, testbed.network.sim.events_processed) == (TCP_HOPS, TCP_EVENTS)
    stats = pstats.Stats(profile)
    calls = stats.total_calls
    assert calls / hops <= MAX_TCP_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_tcp_central3 --trace` names the layer"
    )
    # every segment and ACK a host sends is stamped from its connection
    # direction's template; only the two templates of a flow are built
    # and serialised, with their two checksums (810 of each and 1,620
    # passes when every segment was)
    templates = 2 * TCP_FLOWS
    assert _calls(stats, "net/stamp", "stamp") == _calls(stats, "net/host", "send")
    assert _calls(stats, "net/packet", "tcp", "_serialise") == 2 * templates
    assert _calls(stats, "net/packet", "internet_checksum") == 2 * templates
    # a restart moves the pending event: no cancel per ACK
    assert _calls(stats, "sim/engine", "_note_cancel") == TCP_CANCELS


# ----------------------------------------------------------------------
# the lean paths retain the telemetry the plain ones did, once asked to
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


def _retain(network) -> None:
    network.trace.start_retaining()


def test_retained_telemetry_is_unchanged(monkeypatch):
    from repro.net.node import Datapath

    # datapath ids come from a process-wide counter and appear in ctrl.*
    # records: start it where a fresh interpreter would
    monkeypatch.setattr(Datapath, "_dpid_counter", 0)
    _record, network = run_ctrl_slice(prepare=_retain)
    assert _telemetry(network.trace) == CTRL_SLICE_TELEMETRY
    testbed = build_testbed("central3", params=TestbedParams(batch_train=1), seed=1)
    testbed.network.trace.start_retaining()
    run_udp_flow(testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470)
    assert _telemetry(testbed.network.trace) == CENTRAL3_FLOW_TELEMETRY


def test_datapaths_are_numbered_in_build_order(monkeypatch):
    from repro.net.node import Datapath

    # one counter numbers the trusted endpoints and the untrusted routers
    # alike, in build order: the ids the ctrl.* records above carry
    monkeypatch.setattr(Datapath, "_dpid_counter", 0)
    testbed = build_testbed("central3", seed=1)
    ids = {
        name: node.datapath_id
        for name, node in testbed.network.nodes.items()
        if isinstance(node, Datapath)
    }
    assert ids == {"nc_sA": 1, "nc_sB": 2, "nc_r0": 3, "nc_r1": 4, "nc_r2": 5}


# ----------------------------------------------------------------------
# a quiet bus builds nothing, and a listener gets what retention keeps
# ----------------------------------------------------------------------
#: one listener of each shape per run: exact, ``prefix*`` and catch-all
CTRL_LISTENERS = ("ctrl.vote", "ctrl.*", "")
CENTRAL3_LISTENERS = ("compare.release", "compare.*", "")


def _central3_flow(prepare) -> object:
    """The retained-telemetry ``central3`` flow; ``prepare(network)`` runs
    between the build and the flow."""
    testbed = build_testbed("central3", params=TestbedParams(batch_train=1), seed=1)
    prepare(testbed.network)
    run_udp_flow(testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470)
    return testbed.network


def _ctrl_slice(prepare) -> object:
    return run_ctrl_slice(prepare=prepare)[1]


def _takes(pattern: str, topic: str) -> bool:
    if pattern.endswith("*"):
        return topic.startswith(pattern[:-1])
    return pattern in ("", topic)


def _comparable(records) -> list:
    return [
        (r.time, r.topic, r.source, repr(sorted(r.data.items()))) for r in records
    ]


def _stream(run, pattern: str, retain: bool, at: "float | None" = None) -> tuple:
    """What a ``pattern`` listener receives over ``run``, and what the bus
    retained from the listener's subscription on; ``at`` subscribes it at
    that simulated time instead of before the run."""
    seen, subscribed_at = [], []

    def prepare(network) -> None:
        bus = network.trace
        if retain:
            bus.start_retaining()

        def subscribe() -> None:
            subscribed_at.append(len(bus.records))
            bus.subscribe(pattern, seen.append)

        if at is None:
            subscribe()
        else:
            network.sim.post(at, subscribe)

    network = run(prepare)
    return _comparable(seen), _comparable(network.trace.records[subscribed_at[0] :])


def _check_listeners_get_the_retained_stream(run, patterns, mid_run: float) -> None:
    """Each listener on an otherwise quiet bus receives what it receives
    on a retaining bus, in the same order, and that is exactly what the
    retained log keeps for its topics.  (A record that another listener
    emits while one is delivered, such as the quarantine alarm raised by
    the quarantine controller, reaches a later listener before the one
    that caused it: the log alone is in emit order.)"""
    everything = None
    for pattern, at in [(pattern, None) for pattern in patterns] + [("", mid_run)]:
        quiet, kept_quiet = _stream(run, pattern, retain=False, at=at)
        listened, kept = _stream(run, pattern, retain=True, at=at)
        assert kept_quiet == []
        assert quiet and quiet == listened, (pattern, at)
        assert Counter(quiet) == Counter(r for r in kept if _takes(pattern, r[1]))
        if pattern == "" and at is None:
            everything = quiet
    # the late listener really joined mid-run
    assert 0 < len(quiet) < len(everything)


def test_ctrl_slice_listeners_get_the_retained_stream(monkeypatch):
    from repro.net.node import Datapath

    def run(prepare):
        # datapath ids appear in ctrl.* records: every run starts them at 1
        monkeypatch.setattr(Datapath, "_dpid_counter", 0)
        return _ctrl_slice(prepare)

    _check_listeners_get_the_retained_stream(run, CTRL_LISTENERS, mid_run=0.005)


def test_central3_flow_listeners_get_the_retained_stream():
    _check_listeners_get_the_retained_stream(
        _central3_flow, CENTRAL3_LISTENERS, mid_run=0.0025
    )


#: ``TraceBus.emit`` calls of the quiet runs: only the sites no per-packet
#: or per-copy path reaches (two alarms and the compromise that arms the
#: adversary, as a chaos record and a control-plane one) still emit;
#: 6,111 and 172 when every site built its record for `emit` to drop
QUIET_CTRL_SLICE_EMITS = 4
QUIET_CENTRAL3_FLOW_EMITS = 0


def test_a_quiet_bus_is_asked_not_emitted_to():
    for run, emits in (
        (_ctrl_slice, QUIET_CTRL_SLICE_EMITS),
        (_central3_flow, QUIET_CENTRAL3_FLOW_EMITS),
    ):
        profile = cProfile.Profile()
        profile.enable()
        network = run(lambda network: None)
        profile.disable()
        assert network.trace.records == []
        assert _calls(pstats.Stats(profile), "sim/trace", "emit") == emits, run


# ----------------------------------------------------------------------
# the live receive path: counts per received datagram
# ----------------------------------------------------------------------
LIVE_PACKETS = 200
LIVE_K = 3
LIVE_WINDOW = 16
#: budget, in profiled calls (built-ins and the recipe's own included)
#: per released packet of k = 3 copies: sender, sockets, loop and voter
MAX_LIVE_CALLS_PER_RELEASE = 134.0


def _calls(stats: pstats.Stats, module: str, *functions: str) -> int:
    """Profiled calls of ``functions`` (default: every function) defined
    in ``repro/<module>.py``."""
    return sum(
        ncalls
        for (filename, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if filename.endswith(f"/repro/{module}.py")
        and (not functions or name in functions)
    )


def _live_packets(first: int, count: int) -> list:
    from repro.net.addresses import IpAddress, MacAddress
    from repro.net.packet import Packet

    return [
        Packet.udp(
            MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2),
            50000, 5001, payload=seq.to_bytes(4, "big") * 16, ident=seq,
        )
        for seq in range(first, first + count)
    ]


async def _until(condition, timeout: float = 30.0) -> None:
    import asyncio

    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


def _live_loopback(packets, expect=None, branch2=None, prelude=None):
    """The ``live_udp_vote`` recipe of ``bench/workloads.py`` at small
    size: k collect sessions over the loopback into a stock
    ``CompareCore``, closed loop, ``LIVE_WINDOW`` packets in flight, until
    ``expect`` packets (default: all of ``packets``) are released.
    ``branch2(index, packet)`` is what the last branch sends in place of
    ``packet``; ``prelude(branches, voter_side, released)`` is awaited
    before the window opens.  Returns the released packets, the compare's
    stats, its alarm sink, the voter side's counts (with what its collect
    session was handed, ``rx_messages``) and the profile of everything
    between the first send and the last release."""
    import asyncio

    from repro.core.alarms import AlarmSink
    from repro.core.compare import CompareConfig, CompareContext, CompareCore
    from repro.transport.base import ROLE_COLLECT, SessionSpec
    from repro.transport.realtime import RealTimeScheduler
    from repro.transport.udp import UdpTransport

    expect = len(packets) if expect is None else expect

    async def scenario() -> tuple:
        loop = asyncio.get_running_loop()
        alarms = AlarmSink(None)
        core = CompareCore(
            RealTimeScheduler(loop),
            CompareConfig(k=LIVE_K, buffer_timeout=0.5),
            name="budget_compare",
            alarm_sink=alarms,
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
            pending = iter(enumerate(packets))
            released = []
            done = asyncio.Event()

            def send_next() -> None:
                index, packet = next(pending, (None, None))
                if packet is not None:
                    for session in branches[:-1]:
                        session.send(packet)
                    branches[-1].send(
                        packet if branch2 is None else branch2(index, packet)
                    )

            def release(packet) -> None:
                released.append(packet)
                send_next()
                if len(released) == expect:
                    done.set()

            context = CompareContext(scope="sA", release=release)
            collect = voter_side.session(SessionSpec("sA", ROLE_COLLECT))
            collect.set_receiver(
                lambda packet, meta: core.submit(packet, meta["branch"], context)
            )
            profile.enable()
            if prelude is not None:
                await prelude(branches, voter_side, released)
            for _ in range(LIVE_WINDOW):
                send_next()
            await asyncio.wait_for(done.wait(), timeout=30.0)
            profile.disable()
            core.flush()
        finally:
            profile.disable()
            switch_side.close()
            voter_side.close()
        rx = {**voter_side.rx_counts(), "rx_messages": collect.stats.rx_messages}
        return released, core.stats, alarms, rx, profile

    return asyncio.run(scenario())


def test_live_receive_path_does_the_work_once():
    """Every copy is vote-keyed on the bytes that arrived: no packet is
    parsed, copied or re-serialised on the voter side, and no L4 segment
    is checksummed there."""
    packets = _live_packets(0, LIVE_PACKETS)
    released, core_stats, _alarms, rx, profile = _live_loopback(packets)
    assert [p.to_bytes() for p in released] == [p.to_bytes() for p in packets]
    received = LIVE_PACKETS * LIVE_K
    assert (core_stats.submissions, rx["rx_messages"], rx["rx_errors"]) == (
        received, received, 0
    )
    stats = pstats.Stats(profile)
    assert _calls(stats, "net/packet", "parse", "copy") == 0
    # once per packet sent (its k sessions share the image), never to vote
    assert _calls(stats, "net/packet", "_serialise") == LIVE_PACKETS
    # sender: IPv4 header + UDP per serialise; voter: none (a frame sums
    # its 20-byte IPv4 header inline and never the 1.5 kB L4 segment)
    assert _calls(stats, "net/packet", "internet_checksum") == 2 * LIVE_PACKETS
    # no address constructor runs (the packets exist before the profile)
    assert _calls(stats, "net/addresses", "__new__") == 0
    # one clock read per copy, handed from submit to the vote
    assert _calls(stats, "transport/realtime", "now") == received
    calls = stats.total_calls / len(released)
    assert calls <= MAX_LIVE_CALLS_PER_RELEASE, (
        f"{calls:.1f} calls per released packet; "
        "`python bench/run.py --workload live_udp_vote --trace` names the layer"
    )


#: what the compare counts, and the alarms it raises, with branch 2
#: rewriting every fifth packet — as when every copy was parsed, and when
#: copies shared a parse
LIVE_TAMPER_STATS = {
    "submissions": 600, "released": 200, "late_copies": 160,
    "expired_unreleased": 40, "divergent_copies": 40, "divergence_alarms": 1,
    "blocks_issued": 0, "copies_finalised": 600,
}
LIVE_TAMPER_ALARMS = {("single_source_packet", 2): 40, ("minority_divergence", 2): 1}


def test_live_tampered_copy_is_parsed_alone_and_outvoted():
    """Branch 2 flips one payload byte in every fifth packet: its copy
    differs in bytes, is read on its own like every other copy, and the
    vote sees what it saw when every copy was parsed."""
    from repro.net.packet import Packet

    packets = _live_packets(0, LIVE_PACKETS)
    tampered = LIVE_PACKETS // 5

    def flip(index: int, packet):
        if index % 5:
            return packet
        wire = bytearray(packet.to_bytes())
        wire[-1] ^= 0x01
        return Packet.parse(bytes(wire))  # lenient: the UDP checksum is now wrong

    released, core_stats, alarms, rx, _profile = _live_loopback(packets, branch2=flip)
    assert [p.to_bytes() for p in released] == [p.to_bytes() for p in packets]
    assert (rx["rx_messages"], rx["rx_errors"], rx["rx_unmatched"]) == (
        LIVE_K * LIVE_PACKETS, 0, 0
    )
    assert {
        name: getattr(core_stats, name) for name in LIVE_TAMPER_STATS
    } == LIVE_TAMPER_STATS
    assert Counter(
        (alarm.kind, alarm.branch) for alarm in alarms.alarms
    ) == LIVE_TAMPER_ALARMS


#: distinct junk frames the flood sends: twice the 256 parses the
#: receiver once kept for the other copies of a frame
FLOOD_FRAMES = 512


def test_live_flood_evicts_parses_not_votes():
    """Branch 2 sends a flood of distinct junk frames between branch 0's
    copies of a window of packets and everyone else's.  The receiver
    keeps nothing per frame that a flood could evict, so every packet
    still releases with the honest bytes and only the junk expires."""
    from repro.net.addresses import MacAddress
    from repro.net.packet import Ethernet, Packet
    from repro.transport.base import ROLE_COLLECT, SessionSpec
    from repro.transport.udp import RX_BURST

    victims = _live_packets(10_000, LIVE_WINDOW)
    packets = _live_packets(0, LIVE_PACKETS)
    junk = [
        Packet(
            Ethernet(MacAddress.from_index(1), MacAddress.from_index(2), 0x88B5),
            payload=index.to_bytes(4, "big"),
        )
        for index in range(FLOOD_FRAMES)
    ]

    async def prelude(branches, voter_side, released) -> None:
        collect = voter_side.session(SessionSpec("sA", ROLE_COLLECT))

        def arrived() -> int:
            return collect.stats.rx_messages

        for packet in victims:
            branches[0].send(packet)
        await _until(lambda: arrived() == len(victims))
        for start in range(0, len(junk), RX_BURST):
            burst = junk[start : start + RX_BURST]
            for frame in burst:
                branches[2].send(frame)
            await _until(lambda: arrived() == len(victims) + start + len(burst))
        assert released == []
        for packet in victims:
            branches[1].send(packet)
            branches[2].send(packet)

    released, core_stats, _alarms, rx, _profile = _live_loopback(
        packets, expect=len(victims) + len(packets), prelude=prelude
    )
    assert [p.to_bytes() for p in released] == [
        p.to_bytes() for p in victims + packets
    ]
    assert rx["rx_messages"] == LIVE_K * (len(victims) + LIVE_PACKETS) + len(junk)
    assert (rx["rx_errors"], rx["rx_unmatched"]) == (0, 0)
    assert core_stats.released == len(victims) + LIVE_PACKETS
    assert core_stats.expired_unreleased == len(junk)


# ----------------------------------------------------------------------
# what a held packet costs in memory: its bytes, once
# ----------------------------------------------------------------------
#: packets per measurement, and the payload of each (iperf's default)
HELD_PACKETS = 1_000
HELD_PAYLOAD = 1_470
#: bytes a held packet retains, per byte of its frame: 1.38 serialised
#: and 1.57 parsed (the rest is the header objects), 2.37 / 2.56 while
#: the payload was kept beside the wire image as well
MAX_HELD_PER_WIRE_BYTE = 1.6
#: what each further payload byte costs: 1.04 bytes, 2.04 with the
#: payload kept twice
MAX_HELD_PER_PAYLOAD_BYTE = 1.2


def _held_bytes(make, payload_size: int) -> float:
    """Bytes per packet that ``make(payload_size)`` leaves allocated."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = make(payload_size)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == HELD_PACKETS
    return retained / HELD_PACKETS


def _held_built(payload_size: int) -> list:
    from repro.net.addresses import IpAddress, MacAddress
    from repro.net.packet import Packet

    ends = (MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2))
    return [
        Packet.udp(*ends, 50000, 5001,
                   payload=seq.to_bytes(2, "big") * (payload_size // 2), ident=seq)
        for seq in range(HELD_PACKETS)
    ]


def _held_serialised(payload_size: int) -> list:
    packets = _held_built(payload_size)
    for packet in packets:
        packet.to_bytes()
    return packets


def _held_decremented(payload_size: int) -> list:
    packets = _held_serialised(payload_size)
    for packet in packets:
        packet.decrement_ttl()
    return packets


def _held_parsed(payload_size: int) -> list:
    from repro.net.packet import Packet

    # the sending packets are gone by the count: each frame is held only
    # by the packet parsed from it, as an arrived datagram is
    return [Packet.parse(packet.to_bytes()) for packet in _held_built(payload_size)]


def test_a_held_packet_keeps_its_payload_once():
    """A serialised packet, a parsed canonical frame and a warm packet
    after an in-place TTL decrement hold their payload inside the wire
    image only."""
    for make in (_held_serialised, _held_parsed, _held_decremented):
        make(0), make(HELD_PAYLOAD)  # the imports and caches a first call fills
        wire_len = make(HELD_PAYLOAD)[0].wire_len
        full = _held_bytes(make, HELD_PAYLOAD)
        empty = _held_bytes(make, 0)
        assert full <= MAX_HELD_PER_WIRE_BYTE * wire_len, (make.__name__, full / wire_len)
        per_payload_byte = (full - empty) / HELD_PAYLOAD
        assert per_payload_byte <= MAX_HELD_PER_PAYLOAD_BYTE, (
            make.__name__, per_payload_byte
        )
