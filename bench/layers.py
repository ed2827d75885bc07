"""Per-layer measurements: profile attribution and direct public-call timings.

Layers are this repo's module names.  Two families live here:

* :func:`attribute` folds a ``cProfile`` of one timed unit into
  ``<layer>.self_us_per_op`` / ``<layer>.calls_per_op``.  A built-in's
  self time (``heapq.heappush``, ``struct.pack``, ``sendto`` …) is charged
  to the layer of the Python function that called it, so the C half of a
  layer's work is not lost to ``other``; only Python functions count as
  calls.
* :func:`direct_timings` times one public call of each layer in
  isolation, µs per call, as the median of at least five auto-scaled
  loops of at least 50 ms.

cProfile taxes every Python call but no native work, which shifts the
proportions: use the profile to find where the time is, and the direct
timings and the untraced end-to-end run to say how much.
"""

from __future__ import annotations

import asyncio
import pstats
import statistics
import tempfile
import time
from typing import Callable, Dict, List

#: profile-attributed layers, in data-path order; ``other`` is the rest
#: (stdlib, asyncio, and repro modules not named here)
LAYERS = (
    "sim.engine", "sim.realm", "sim.trace",
    "net.packet", "net.addresses", "net.link", "net.node", "net.host",
    "openflow.switch", "openflow.flowtable", "openflow.match",
    "core.hub", "core.endpoint", "core.compare", "core.votes",
    "core.membership",
    "transport.des", "transport.udp", "transport.wire",
    "traffic.udp", "traffic.tcp",
    "ctrl.compare", "ctrl.replicated",
    "farm.executor", "farm.cache",
    "plan", "obs", "other",
)
_PACKAGE_LAYERS = ("plan", "obs")  # whole packages counted as one layer


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return "other"
    parts = filename[at + len(marker):-3].split("/")
    if parts[0] in _PACKAGE_LAYERS:
        return parts[0]
    name = ".".join(parts)
    return name if name in LAYERS else "other"


def attribute(profile, ops: int) -> Dict[str, float]:
    """Per-layer self time and call counts of one profiled timed unit."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in pstats.Stats(profile).stats.items():
        filename = func[0]
        if filename == "~" and callers:
            # a built-in: charge each caller's layer its share
            for caller, (_ncc, _nc, caller_tottime, _cct) in callers.items():
                self_s[layer_of(caller[0])] += caller_tottime
            continue
        layer = layer_of(filename)
        self_s[layer] += tottime
        if filename != "~":
            calls[layer] += ncalls
    ops = max(ops, 1)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_s[layer] * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    return metrics


# ----------------------------------------------------------------------
# direct public-call timings
# ----------------------------------------------------------------------
MIN_LOOP_S = 0.05
LOOPS = 5


def time_per_call(fn: Callable[[], None], per_call: int = 1,
                  min_loop_s: float = MIN_LOOP_S) -> float:
    """Median seconds per operation of ``fn`` (which does ``per_call``)."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_loop_s:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(LOOPS - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) / per_call


class _Timer:
    """:func:`time_per_call` at one loop length, handed to every part."""

    def __init__(self, min_loop_s: float) -> None:
        self.min_loop_s = min_loop_s

    def __call__(self, fn: Callable[[], None], per_call: int = 1) -> float:
        return time_per_call(fn, per_call, self.min_loop_s)


def _require(condition: bool, message: str) -> None:
    """The timings double as output checks; ``assert`` would vanish
    under ``-O``."""
    if not condition:
        raise RuntimeError(f"direct timing check failed: {message}")


def calibration_us(scale: float = 1.0) -> float:
    """A fixed pure-Python loop, the host-speed proxy every output
    carries (the idiom of ``benchmarks/test_hotpath.py``)."""

    def spin(n=1000, _range=range):
        acc = 0
        for i in _range(n):
            acc += i
        return acc

    return time_per_call(spin, min_loop_s=MIN_LOOP_S * scale) * 1e6


_PAYLOAD = bytes(range(256)) * 5 + bytes(190)  # 1470 B, the iperf datagram


def _packet(seq: int = 0, payload: bytes = _PAYLOAD):
    from repro.net.addresses import IpAddress, MacAddress
    from repro.net.packet import Packet

    return Packet.udp(
        src_mac=MacAddress.from_index(1),
        dst_mac=MacAddress.from_index(2),
        src_ip=IpAddress.from_index(1),
        dst_ip=IpAddress.from_index(2),
        sport=5001,
        dport=5002,
        payload=payload,
        ident=seq & 0xFFFF,
    )


def _warm_packets(count: int) -> list:
    packets = [_packet(seq) for seq in range(count)]
    for packet in packets:
        packet.to_bytes()
    return packets


def _distinct_flows(count: int) -> list:
    """Packets of ``count`` different flows (own source addresses), so
    each makes its own exact match, as a reactive controller sees them."""
    from repro.net.addresses import IpAddress, MacAddress

    packets = [_packet(seq) for seq in range(count)]
    for i, packet in enumerate(packets):
        packet.eth.src = MacAddress.from_index(100 + i)
        packet.ip.src = IpAddress.from_index(100 + i)
        packet.to_bytes()
    return packets


def _sink_network(branches: int = 1):
    """A network with ``branches`` promiscuous sink hosts and queues that
    never fill; returns ``(network, sinks)`` with nothing wired yet."""
    from repro.net.topology import Network

    net = Network(seed=1)
    sinks = [net.add_host(f"sink{b}", promiscuous=True) for b in range(branches)]
    return net, sinks


_DEEP = 10_000_000  # queue capacity no timing loop can fill
_N = 200  # operations per timed call where a call must drain a simulator


def _engine(timed) -> Dict[str, float]:
    from repro.sim.engine import Simulator

    sim = Simulator()

    def noop() -> None:
        pass

    def fire() -> None:
        for i in range(_N):
            sim.schedule(1e-6 * i, noop)
        sim.run()

    def cancel() -> None:
        handles = [sim.schedule(1e-6 * i, noop) for i in range(_N)]
        for handle in handles:
            handle.cancel()
        sim.run()

    return {
        # schedule one event and execute it
        "sim.engine.event_us": timed(fire, _N) * 1e6,
        # schedule one event, cancel it, and drain the dead entry
        "sim.engine.cancel_us": timed(cancel, _N) * 1e6,
    }


def _packet_ops(timed) -> Dict[str, float]:
    from repro.net.packet import Packet

    warm = _packet()
    wire = warm.to_bytes()
    return {
        # construct a 1470 B UDP datagram and serialise it cold
        "net.packet.build_us": timed(lambda: _packet().to_bytes()) * 1e6,
        "net.packet.copy_us": timed(warm.copy) * 1e6,
        "net.packet.parse_us": timed(lambda: Packet.parse(wire)) * 1e6,
        "net.packet.wire_len_us": timed(lambda: warm.wire_len) * 1e6,
    }


def _link_hop(timed) -> Dict[str, float]:
    net, (sink,) = _sink_network()
    source = net.add_host("src")
    net.connect(source, sink, rate_bps=1e9, delay=3e-6, queue_capacity=_DEEP)
    port = source.port(1)
    packet = _warm_packets(1)[0]

    def hop() -> None:
        for _ in range(_N):
            port.send(packet)
        net.run()

    # port.send → link transmit → delivery event → sink host receive
    return {"net.link.hop_us": timed(hop, _N) * 1e6}


def _flowtable(timed) -> Dict[str, float]:
    from repro.openflow.actions import Output
    from repro.openflow.flowtable import FlowEntry, FlowTable
    from repro.openflow.match import Match

    packets = _distinct_flows(64)
    matches = [Match.from_packet(packet, in_port=1) for packet in packets]
    table = FlowTable()
    for match in matches:
        table.add(FlowEntry(match, [Output(2)]))
    cursor = [0]

    def lookup() -> None:
        cursor[0] += 1
        table.lookup(packets[cursor[0] % 64], 1, now=0.0)

    def install_expire() -> None:
        churn = FlowTable()
        for match in matches:
            churn.add(FlowEntry(match, [Output(2)], hard_timeout=1e-4))
        _require(len(churn.sweep_expired(now=1.0)) == 64, "entries did not expire")

    return {
        # 64 distinct exact entries, as a reactive controller builds
        "openflow.flowtable.lookup_us": timed(lookup) * 1e6,
        # install one entry with a hard timeout and sweep it out again
        "openflow.flowtable.install_expire_us":
            timed(install_expire, 64) * 1e6,
    }


def _switch_hop(timed) -> Dict[str, float]:
    from repro.openflow.actions import Output
    from repro.openflow.match import Match
    from repro.openflow.switch import OpenFlowSwitch

    net, (sink,) = _sink_network()
    switch = OpenFlowSwitch(net.sim, "sw", proc_time=5e-6, proc_per_byte=2.5e-9,
                            service_queue_capacity=_DEEP)
    net.add_node(switch)
    in_port = switch.add_port(1)
    net.connect(switch, sink, rate_bps=1e9, delay=3e-6, queue_capacity=_DEEP,
                port_a=2)
    packet = _warm_packets(1)[0]
    switch.install(Match(dl_dst=packet.eth.dst), [Output(2)], priority=10)

    def hop() -> None:
        for _ in range(_N):
            switch.receive(packet, in_port)
        net.run()

    # service event → flow lookup → output → link → sink host receive
    return {"openflow.switch.hop_us": timed(hop, _N) * 1e6}


def _hub_fanout(timed) -> Dict[str, float]:
    from repro.core.hub import Hub

    net, sinks = _sink_network(branches=3)
    hub = Hub(net.sim, "hub")
    net.add_node(hub)
    for sink in sinks:
        net.connect(hub, sink, rate_bps=1e9, delay=3e-6, queue_capacity=_DEEP)
    upstream = hub.port(1)
    packet = _warm_packets(1)[0]

    def fanout() -> None:
        for _ in range(_N):
            hub.receive(packet, upstream)
        net.run()

    # one upstream frame copied to 3 branches, each delivered to a sink
    return {"core.hub.fanout3_us": timed(fanout, _N) * 1e6}


def _compare_submit(timed) -> Dict[str, float]:
    from repro.chaos.quarantine import QuarantineController
    from repro.core.alarms import AlarmSink
    from repro.core.compare import CompareConfig, CompareContext, CompareCore
    from repro.sim import TraceBus
    from repro.sim.engine import Simulator

    packets = _warm_packets(_N)
    released = [0]

    def release(_packet) -> None:
        released[0] += 1

    context = CompareContext(scope="s", release=release)

    # clean: k=3, every branch delivers every packet bit-identically
    sim = Simulator()
    clean_core = CompareCore(sim, CompareConfig(k=3), name="clean")
    expire = 2 * clean_core.config.buffer_timeout

    def clean() -> None:
        for packet in packets:
            for branch in range(3):
                clean_core.submit(packet, branch, context)
        sim.run(until=sim.now + expire)  # entries expire; keys are reused

    clean_us = timed(clean, 3 * _N) * 1e6
    _require(released[0] == clean_core.stats.submissions // 3,
             "clean vote lost packets")

    # faulty: k=5, branch 4 silent in windows (miss → alarm → quarantine →
    # probation → readmit), branch 3 corrupting 5 % of its copies
    # (divergence, single-source expiry); three honest branches remain,
    # so every packet must still release
    fsim = Simulator()
    bus = TraceBus(retain=False)
    faulty_core = CompareCore(
        fsim, CompareConfig(k=5), name="faulty",
        alarm_sink=AlarmSink(bus), trace_bus=bus,
    )
    QuarantineController(faulty_core, bus)
    corrupt = [_packet(seq, payload=_PAYLOAD[:-1] + b"\xff") for seq in range(_N)]
    for packet in corrupt:
        packet.to_bytes()
    spacing = 1e-4  # one packet per 100 µs: a sweep every 50 packets

    def silent(index: int) -> bool:
        return (index // 50) % 2 == 1

    def arrive(index: int) -> None:
        packet = packets[index]
        for branch in range(3):
            faulty_core.submit(packet, branch, context)
        bad = index % 20 == 7
        faulty_core.submit(corrupt[index] if bad else packet, 3, context)
        if not silent(index):
            faulty_core.submit(packet, 4, context)

    def faulty() -> None:
        base = fsim.now
        for index in range(_N):
            fsim.schedule_at(base + index * spacing, lambda index=index: arrive(index))
        fsim.run(until=base + _N * spacing + expire)

    copies = sum(4 if silent(index) else 5 for index in range(_N))
    faulty_us = timed(faulty, copies) * 1e6
    stats = faulty_core.stats
    _require(stats.released * copies == stats.submissions * _N,
             "faulty vote withheld a packet")
    _require(stats.quarantines > 0 and stats.divergent_copies > 0,
             "faulty profile did not reach quarantine and divergence")
    return {
        "core.compare.submit_clean_us": clean_us,
        "core.compare.submit_faulty_us": faulty_us,
    }


def _ctrl_submit(timed) -> Dict[str, float]:
    from repro.ctrl.compare import ControlCompare, ControlCompareConfig
    from repro.openflow.actions import Output
    from repro.openflow.match import Match
    from repro.openflow.messages import FlowMod
    from repro.sim.engine import Simulator

    sim = Simulator()
    voter = ControlCompare(sim, ControlCompareConfig(k=3))
    released = [0]

    def release(_message) -> None:
        released[0] += 1

    voter.register_switch(1, release)
    mods = [
        FlowMod("add", Match.from_packet(packet, in_port=1), [Output(2)],
                hard_timeout=5e-3)
        for packet in _distinct_flows(_N)
    ]
    expire = 2 * voter.config.vote_timeout

    def decide() -> None:
        for mod in mods:
            for replica in range(3):
                voter.submit(replica, 1, mod)
        sim.run(until=sim.now + expire)

    # digest one FlowMod and vote it, three replicas agreeing
    submit_us = timed(decide, 3 * _N) * 1e6
    _require(released[0] == voter.stats.submissions // 3,
             "control vote lost decisions")
    return {"ctrl.compare.submit_us": submit_us}


def _des_send(timed) -> Dict[str, float]:
    from repro.net.node import Node
    from repro.sim.engine import Simulator
    from repro.transport import ROLE_COLLECT, DesTransport, SessionSpec

    sim = Simulator()
    port = Node(sim, "endpoint").add_port(1)  # unwired: the send stops here
    session = DesTransport(sim).attach(SessionSpec("s", ROLE_COLLECT, 0), port)
    packet = _warm_packets(1)[0]
    # a collect-role send: copy, tag with branch/claim, hand to the port
    return {
        "transport.des.send_us":
            timed(lambda: session.send(packet, claim=2)) * 1e6,
    }


def _wire(timed) -> Dict[str, float]:
    from repro.transport import ROLE_COLLECT
    from repro.transport.wire import MSG_DATA, decode_message, encode_message

    payload = bytes(_packet().to_bytes())
    data = encode_message(MSG_DATA, ROLE_COLLECT, "sA", payload=payload,
                          branch=1, seq=7)
    return {
        "transport.wire.encode_us": timed(
            lambda: encode_message(MSG_DATA, ROLE_COLLECT, "sA", payload=payload,
                                   branch=1, seq=7)) * 1e6,
        "transport.wire.decode_us": timed(lambda: decode_message(data)) * 1e6,
    }


def _udp_send(timed) -> Dict[str, float]:
    """``UdpSession.send`` over the loopback.  Sends are timed in bursts
    the receiving socket's buffer can hold; the drain between bursts is
    not timed."""
    from repro.transport import ROLE_COLLECT, SessionSpec
    from repro.transport.udp import UdpTransport

    burst = 32

    async def measure() -> float:
        receiver = UdpTransport(("127.0.0.1", 0), name="bench.rx")
        sender = UdpTransport(("127.0.0.1", 0), name="bench.tx")
        try:
            address = await receiver.start()
            await sender.start()
            got = [0]
            inbound = receiver.session(SessionSpec("sA", ROLE_COLLECT))
            inbound.set_receiver(lambda _packet, _meta: got.__setitem__(0, got[0] + 1))
            session = sender.session(SessionSpec("sA", ROLE_COLLECT, 0), remote=address)
            packet = _warm_packets(1)[0]
            sent = 0
            samples: List[float] = []
            bursts = 8
            while len(samples) < LOOPS:
                spent = 0.0
                for _ in range(bursts):
                    start = time.perf_counter()
                    for _ in range(burst):
                        session.send(packet)
                    spent += time.perf_counter() - start
                    sent += burst
                    deadline = time.perf_counter() + 2.0
                    while got[0] < sent and time.perf_counter() < deadline:
                        await asyncio.sleep(0)
                    if got[0] < sent:
                        raise RuntimeError("loopback lost a datagram")
                if spent < timed.min_loop_s and not samples:
                    bursts *= 2
                    continue
                samples.append(spent / (bursts * burst))
            return statistics.median(samples)
        finally:
            sender.close()
            receiver.close()

    return {"transport.udp.send_us": asyncio.run(measure()) * 1e6}


def _farm(timed) -> Dict[str, float]:
    import multiprocessing

    from repro.farm.cache import ResultCache
    from repro.farm.executor import FarmExecutor
    from repro.farm.spec import RunSpec

    from stats import OUT_DIR
    from workloads import NPROC

    # ``builtins:dict`` is the cheapest runner the registry can resolve,
    # so the pool run is spawn + IPC + shutdown and nothing else
    specs = [RunSpec("builtins:dict", {"i": i}) for i in range(2)]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache_hit_") as root:
        cache = ResultCache(root)
        cache.put(specs[0], {"i": 0, "seed": 0})
        hit_us = timed(lambda: cache.get(specs[0])) * 1e6
        _require(cache.misses == 0, "warm cache missed")

    def pool() -> None:
        FarmExecutor(jobs=min(2, NPROC), cache=None).run(specs)
        for worker in multiprocessing.active_children():
            worker.join(timeout=30)

    return {
        "farm.cache.hit_us": hit_us,
        "farm.executor.pool_spawn_s": timed(pool),
    }


def _train32_speedup(seed: int, scale: float) -> Dict[str, float]:
    """Paired same-process ratio of the per-packet run to the train=32
    run of the same flow, at a tenth of the end-to-end size."""
    from workloads import WORKLOADS

    ratios = []
    for _pair in range(3):
        walls = []
        for name in ("des_udp_central3", "des_udp_central3_train32"):
            workload = WORKLOADS[name]
            scenario = workload.build(seed, 0.1 * scale)
            start = time.perf_counter()
            workload.run(scenario)
            walls.append(time.perf_counter() - start)
        ratios.append(walls[0] / walls[1])
    return {"sim.realm.train32_speedup": statistics.median(ratios)}


def direct_timings(seed: int, scale: float = 1.0) -> Dict[str, float]:
    """Every direct public-call timing, by metric name.  ``scale``
    shortens the loops (``--smoke``), never the work inside a call."""
    timed = _Timer(MIN_LOOP_S * scale)
    metrics: Dict[str, float] = {}
    for part in (_engine, _packet_ops, _link_hop, _flowtable, _switch_hop,
                 _hub_fanout, _compare_submit, _ctrl_submit, _des_send, _wire,
                 _udp_send, _farm):
        metrics.update(part(timed))
    metrics.update(_train32_speedup(seed, scale))
    return metrics
