"""The seven benchmark workloads.

Each workload drives the program through its public functions only and
exposes the same three steps to ``child.py``:

``build(seed, scale, traced=False)``
    make the inputs from the seed (the program sees only these inputs);
``run(scenario, tick)``
    the timed unit — nothing but calls into the program, in ``SLICES``
    slices of about 0.2 s with ``tick()`` at every slice boundary (the
    harness takes the host-speed reference there, see ``reference.py``);
``collect(scenario, result)``
    counts, the correctness check and the simulated-record fingerprint.

``scale`` multiplies the input size: 1.0 is the size ``BENCHMARK.json``
describes, the warm-up runs at a tenth of whatever the timed unit uses,
and ``--smoke`` runs everything at a tenth.

``collect`` returns a dict with ``ops`` (operations in the timed unit:
hops, specs, released packets), ``attempted``/``failed`` operations,
``fingerprint`` (sha256 of the simulated result record, ``None`` where
wall-clock decides the record), exact ``counts`` printed beside the
metrics, and ``layer`` values that only this workload can measure
(per-layer metrics).  ``per_op``, when present, is the ``(first slice,
stop slice, ops)`` that ``wall_us_per_op`` is taken from instead of the
whole unit.  A workload with ``PARALLEL`` set does its work in other
processes and is timed whole, against a sampled reference.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import random
import struct
import tempfile
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Sequence

from repro.core.alarms import AlarmSink
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.farm.cache import ResultCache
from repro.farm.executor import FarmExecutor
from repro.farm.spec import resolve_runner
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.plan.builtin import builtin_plan
from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.sim import TraceBus
from repro.traffic.iperf import run_tcp_flow, run_udp_flow
from repro.transport import ROLE_COLLECT, SessionSpec
from repro.transport.realtime import RealTimeScheduler
from repro.transport.udp import UdpTransport

from reference import no_tick
from stats import OUT_DIR

NPROC = os.cpu_count() or 1


def link_hops(network) -> int:
    """Simulated packet-hops so far: frames delivered over every link
    direction of ``network``."""
    return sum(
        stats.delivered_packets
        for link in network.links
        for _name, stats, _depth in link.directions()
    )


def fingerprint(record: Any) -> str:
    """sha256 of a simulated result record (canonical JSON)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# DES: one iperf-style flow through a Figure 3 variant
# ----------------------------------------------------------------------
#: a DES unit is this many back-to-back flows on one testbed, the way the
#: paper repeats its iperf runs; each is one slice
SLICES = 10


class UdpFlow:
    """``SLICES`` runs of ``run_udp_flow`` on one testbed at 200 Mbit/s
    offered, 1470 B datagrams — under every variant's capacity, so a lost
    datagram is a failure."""

    op = "hop"
    RATE_BPS = 200e6
    PAYLOAD = 1470

    def __init__(self, variant: str, sim_seconds: float, train: int = 1) -> None:
        self.variant = variant
        self.sim_seconds = sim_seconds
        self.train = train

    def build(self, seed: int, scale: float, traced: bool = False):
        testbed = build_testbed(
            self.variant, params=TestbedParams(batch_train=self.train), seed=seed
        )
        return testbed, self.sim_seconds * scale

    def run(self, scenario, tick: Callable[[], None] = no_tick):
        testbed, duration = scenario
        flows = []
        for _ in range(SLICES):
            tick()
            flows.append(run_udp_flow(
                testbed.path(),
                rate_bps=self.RATE_BPS,
                duration=duration / SLICES,
                payload_size=self.PAYLOAD,
            ))
        tick()
        return flows

    def collect(self, scenario, flows) -> Dict[str, Any]:
        testbed, _duration = scenario
        hops = link_hops(testbed.network)
        sent = sum(flow.sent for flow in flows)
        return {
            "ops": hops,
            "attempted": sent,
            "failed": sum(flow.lost for flow in flows),
            "fingerprint": fingerprint(
                {"flows": [asdict(flow) for flow in flows], "hops": hops}
            ),
            "counts": {
                "hops": hops,
                "events": testbed.network.sim.events_processed,
                "sent": sent,
                "received": sum(flow.received_unique for flow in flows),
            },
        }


class TcpFlow:
    """``SLICES`` runs of ``run_tcp_flow`` on one testbed: Reno timers,
    cancels, the ACK reverse path, and a slow start per flow."""

    op = "hop"
    MSS = 1460

    def __init__(self, variant: str, sim_seconds: float) -> None:
        self.variant = variant
        self.sim_seconds = sim_seconds

    def build(self, seed: int, scale: float, traced: bool = False):
        return build_testbed(self.variant, seed=seed), self.sim_seconds * scale

    def run(self, scenario, tick: Callable[[], None] = no_tick):
        testbed, duration = scenario
        flows = []
        for _ in range(SLICES):
            tick()
            flows.append(
                run_tcp_flow(testbed.path(), duration=duration / SLICES, mss=self.MSS)
            )
        tick()
        return flows

    def collect(self, scenario, flows) -> Dict[str, Any]:
        testbed, _duration = scenario
        hops = link_hops(testbed.network)
        attempted = failed = 0
        for flow in flows:
            segments = max(-(-flow.bytes_acked // self.MSS) + flow.retransmits, 1)
            attempted += segments
            # a bulk transfer that moved nothing failed as a whole;
            # retransmits are Reno working, not failures
            failed += 0 if flow.bytes_acked > 0 else segments
        return {
            "ops": hops,
            "attempted": attempted,
            "failed": failed,
            "fingerprint": fingerprint(
                {"flows": [asdict(flow) for flow in flows], "hops": hops}
            ),
            "counts": {
                "hops": hops,
                "events": testbed.network.sim.events_processed,
                "bytes_acked": sum(flow.bytes_acked for flow in flows),
                "retransmits": sum(flow.retransmits for flow in flows),
            },
        }


class CtrlReactive:
    """``SLICES`` runs of the ``ctrl.run`` farm task (each builds its own
    testbed) with flows expiring every 100 µs, so nearly every packet is
    a PacketIn → k replicas → vote → FlowMod."""

    op = "hop"
    KWARGS = dict(
        variant="central3",
        ctrl_k=3,
        adversary="lying",
        rate_mbps=100.0,
        payload_size=512,
        flow_hard_timeout=1e-4,
    )

    def __init__(self, sim_seconds: float) -> None:
        self.sim_seconds = sim_seconds

    def build(self, seed: int, scale: float, traced: bool = False):
        return {
            "runner": resolve_runner("ctrl.run"),
            "seed": seed,
            "duration": self.sim_seconds * scale,
            "built": [],
        }

    def run(self, scenario, tick: Callable[[], None] = no_tick):
        # The task builds its own testbed and returns only the record;
        # the hop count needs the network, so the builder the task
        # module calls is wrapped for the duration of the calls.
        import repro.analysis.tasks as tasks

        original = tasks.build_ctrl_testbed

        def capture(*args, **kwargs):
            built = original(*args, **kwargs)
            scenario["built"].append(built)
            return built

        tasks.build_ctrl_testbed = capture
        try:
            records = []
            for _ in range(SLICES):
                tick()
                records.append(scenario["runner"](
                    seed=scenario["seed"],
                    duration=scenario["duration"] / SLICES,
                    **self.KWARGS,
                ))
            tick()
            return records
        finally:
            tasks.build_ctrl_testbed = original

    def collect(self, scenario, records) -> Dict[str, Any]:
        networks = [built.network for built in scenario["built"]]
        hops = sum(link_hops(network) for network in networks)

        def total(*path: str) -> int:
            count = 0
            for record in records:
                for key in path:
                    record = record[key]
                count += record
            return count

        return {
            "ops": hops,
            "attempted": total("sent") + total("ctrl", "released"),
            "failed": total("lost") + total("malicious_installed"),
            "fingerprint": fingerprint({"records": records, "hops": hops}),
            "counts": {
                "hops": hops,
                "events": sum(network.sim.events_processed for network in networks),
                "sent": total("sent"),
                "ctrl_votes": total("ctrl", "submissions"),
                "ctrl_released": total("ctrl", "released"),
                "quarantines": total("ctrl", "quarantines"),
            },
        }


# ----------------------------------------------------------------------
# farm: the quick Table I plan through the process pool
# ----------------------------------------------------------------------
class FarmTable1:
    """What a user reproducing Table I runs: ``builtin_plan("table1",
    quick=True)`` through ``FarmExecutor(jobs=2, cache=None)``, then the
    same specs replayed through a warm ``ResultCache``."""

    op = "spec"
    JOBS = min(2, NPROC)  # load discipline: never more workers than cores
    TRACED_INLINE = True  # cProfile cannot see pool workers
    PARALLEL = True  # the pool does the work: timed whole, reference sampled

    def build(self, seed: int, scale: float, traced: bool = False):
        plan = builtin_plan("table1", quick=True, seed=seed)
        specs = plan.expand()
        full = scale >= 1.0
        if not full:
            # a reduced batch takes one spec of each stage in turn, and
            # at least two so the pool still has both workers busy
            stages: Dict[str, list] = {}
            for spec in specs:
                stages.setdefault(spec.runner, []).append(spec)
            in_turn = [s for group in zip(*stages.values()) for s in group]
            specs = in_turn[: max(2, round(len(specs) * scale))]
        return {
            "plan": plan if full else None,
            "specs": specs,
            "executor": FarmExecutor(jobs=1 if traced else self.JOBS, cache=None),
        }

    def run(self, scenario, tick: Callable[[], None] = no_tick):
        return scenario["executor"].run(scenario["specs"])

    def collect(self, scenario, results) -> Dict[str, Any]:
        # pool workers must have ended before their memory is read and
        # before this process reports
        for worker in multiprocessing.active_children():
            worker.join(timeout=30)
        specs, plan = scenario["specs"], scenario["plan"]
        progress = scenario["executor"].progress
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="farm_cache_") as root:
            cache = ResultCache(root)
            for spec in specs:
                cache.put(spec, results[spec.key])
            warm = ResultCache(root)
            replayed = FarmExecutor(jobs=1, cache=warm).run(specs)
        # Table I itself when the batch is whole, else the raw results
        fresh = plan.merge(results) if plan is not None else results
        again = plan.merge(replayed) if plan is not None else replayed
        replay_ok = warm.hits == len(specs) and again == fresh
        failed = progress.failed + progress.retried
        if not replay_ok:
            failed += len(specs)
        return {
            "ops": len(specs),
            "attempted": 2 * len(specs),  # every spec fresh, then replayed
            "failed": failed,
            "fingerprint": fingerprint(fresh),
            "counts": {
                "specs": len(specs),
                "jobs": scenario["executor"].jobs,
                "retried": progress.retried,
                "cache_hits": warm.hits,
            },
        }


# ----------------------------------------------------------------------
# live: the real-socket combiner, one process, one event loop
# ----------------------------------------------------------------------
_LIVE_HEADER = struct.Struct("!IQ")  # sequence number, per-packet nonce
_HOST = "127.0.0.1"
_SCOPE = "sA"


class LiveVote:
    """A ``UdpTransport`` sends every packet over k collect sessions to a
    second ``UdpTransport`` feeding a stock ``CompareCore`` on a
    ``RealTimeScheduler`` — the objects ``live/procs.py`` runs, on the
    host loopback.  Closed loop: the generator shares the thread with the
    voter, so the next packet goes out when one is released.  Phase A
    keeps 16 packets in flight (throughput), phase B one (latency)."""

    op = "pkt"
    PAYLOAD = 1470
    WINDOW_A = 16
    #: no release for this long means the loop is stuck, not slow
    STALL_S = 1.0

    def __init__(
        self,
        packets_a: int,
        packets_b: int,
        k: int = 3,
        silent: Sequence[int] = (),
    ) -> None:
        self.packets_a = packets_a
        self.packets_b = packets_b
        self.k = k
        self.silent = frozenset(silent)

    def build(self, seed: int, scale: float, traced: bool = False):
        count_a = max(self.WINDOW_A, int(self.packets_a * scale))
        count_b = max(1, int(self.packets_b * scale))
        rng = random.Random(seed)
        body = rng.randbytes(self.PAYLOAD - _LIVE_HEADER.size)
        src_mac, dst_mac = MacAddress(0x02_00_00_00_00_01), MacAddress(0x02_00_00_00_00_02)
        src_ip, dst_ip = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
        packets = [
            Packet.udp(
                src_mac=src_mac,
                dst_mac=dst_mac,
                src_ip=src_ip,
                dst_ip=dst_ip,
                sport=50000,
                dport=5001,
                payload=_LIVE_HEADER.pack(seq, rng.getrandbits(64)) + body,
            )
            for seq in range(count_a + count_b)
        ]
        return packets, count_a

    def run(self, scenario, tick: Callable[[], None] = no_tick):
        packets, count_a = scenario
        return asyncio.run(self._main(packets, count_a, tick))

    async def _main(self, packets: List[Packet], count_a: int,
                    tick: Callable[[], None]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        trace_bus = TraceBus(retain=False)
        core = CompareCore(
            RealTimeScheduler(loop),
            CompareConfig(k=self.k, buffer_timeout=0.15),
            name="bench_compare",
            alarm_sink=AlarmSink(trace_bus),
            trace_bus=trace_bus,
        )
        voter_side = UdpTransport((_HOST, 0), name="bench.compare")
        switch_side = UdpTransport((_HOST, 0), name="bench.switches")
        try:
            voter_addr = await voter_side.start()
            await switch_side.start()
            branches = [
                switch_side.session(
                    SessionSpec(_SCOPE, ROLE_COLLECT, branch), remote=voter_addr
                )
                for branch in range(self.k)
                if branch not in self.silent
            ]
            on_release = [None]
            context = CompareContext(
                scope=_SCOPE, release=lambda packet: on_release[0](packet)
            )
            collect = voter_side.session(SessionSpec(_SCOPE, ROLE_COLLECT))
            collect.set_receiver(
                lambda packet, meta: core.submit(
                    packet, meta["branch"], context, claim=meta.get("claim")
                )
            )

            async def phase(batch: List[Packet], base: int, window: int):
                total = len(batch)
                sent_at = [0.0] * total
                latencies: List[float] = []
                cursor = [0]
                done = asyncio.Event()
                clock = time.perf_counter

                def send_next() -> None:
                    index = cursor[0]
                    if index >= total:
                        return
                    cursor[0] = index + 1
                    packet = batch[index]
                    sent_at[index] = clock()
                    for session in branches:
                        session.send(packet)

                def released(packet) -> None:
                    seq = _LIVE_HEADER.unpack_from(packet.payload)[0] - base
                    latencies.append(clock() - sent_at[seq])
                    if len(latencies) >= total:
                        done.set()
                    else:
                        send_next()

                on_release[0] = released
                start = clock()
                for _ in range(window):
                    send_next()
                progress = -1
                while not done.is_set() and len(latencies) > progress:
                    progress = len(latencies)
                    try:
                        await asyncio.wait_for(done.wait(), timeout=self.STALL_S)
                    except asyncio.TimeoutError:
                        pass
                end = clock()
                return {"start": start, "end": end, "sent": cursor[0],
                        "latencies": latencies}

            async def sliced(first: int, stop: int, window: int):
                """One phase in ``SLICES`` parts; stops at a stuck part,
                the rest would only wait out the same stall."""
                whole = {"start": 0.0, "end": 0.0, "busy": 0.0, "sent": 0,
                         "latencies": [], "slices": 0}
                edges = [first + (stop - first) * part // SLICES
                         for part in range(SLICES + 1)]
                for begin, end in zip(edges, edges[1:]):
                    if begin == end:
                        continue
                    tick()
                    part = await phase(packets[begin:end], begin, window)
                    whole["start"] = whole["start"] or part["start"]
                    whole["end"] = part["end"]
                    whole["busy"] += part["end"] - part["start"]
                    whole["sent"] += part["sent"]
                    whole["latencies"] += part["latencies"]
                    whole["slices"] += 1
                    if len(part["latencies"]) < end - begin:
                        break
                return whole

            phase_a = await sliced(0, count_a, self.WINDOW_A)
            # after a stuck phase A, phase B is left empty
            stuck = len(phase_a["latencies"]) < count_a
            phase_b = await sliced(count_a, count_a if stuck else len(packets), 1)
            tick()
            core.flush()
        finally:
            switch_side.close()
            voter_side.close()
        return {
            "phase_a": phase_a,
            "phase_b": phase_b,
            "rx_errors": voter_side.rx_errors,
            "rx_unmatched": voter_side.rx_unmatched,
            "compare": core.stats.as_dict(),
        }

    def collect(self, scenario, result) -> Dict[str, Any]:
        packets, _count_a = scenario
        phase_a, phase_b = result["phase_a"], result["phase_b"]
        released_a = len(phase_a["latencies"])
        released_b = len(phase_b["latencies"])
        latencies = sorted(phase_b["latencies"])
        layer = {}
        if latencies:
            layer = {
                "live.release_p50_us": _percentile(latencies, 0.50) * 1e6,
                "live.release_p99_us": _percentile(latencies, 0.99) * 1e6,
                "live.window1_pkts_per_s": released_b / phase_b["busy"],
            }
        unreleased = len(packets) - released_a - released_b
        return {
            "ops": max(released_a + released_b, 1),
            # throughput is phase A's alone: phase B waits on every packet
            "per_op": (0, phase_a["slices"], max(released_a, 1)),
            "attempted": len(packets),
            "failed": unreleased + result["rx_errors"] + result["rx_unmatched"],
            # which packets release is index-space fact, but *when* is
            # wall-clock: there is no simulated record to fingerprint
            "fingerprint": None,
            "counts": {
                "released_a": released_a,
                "released_b": released_b,
                "submissions": result["compare"]["submissions"],
                "rx_errors": result["rx_errors"],
                "rx_unmatched": result["rx_unmatched"],
            },
            "layer": layer,
            "phases": {
                name: (phase["start"], phase["end"])
                for name, phase in (("phase_a", phase_a), ("phase_b", phase_b))
                if phase["sent"]
            },
        }


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


# ----------------------------------------------------------------------
# registry — the names are fixed; BENCHMARK.json and later issues cite them
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Any] = {
    "des_udp_central3": UdpFlow("central3", 0.5),
    "des_udp_central3_train32": UdpFlow("central3", 0.5, train=32),
    "des_udp_linespeed": UdpFlow("linespeed", 1.5),
    "des_tcp_central3": TcpFlow("central3", 0.4),
    "des_ctrl_reactive_k3": CtrlReactive(0.1),
    "farm_table1": FarmTable1(),
    "live_udp_vote": LiveVote(6000, 4000),
}

#: not part of the benchmark: a run that must fail, so the tests can show
#: the checks have teeth (one of two branches never sends, quorum is 2)
SELF_TESTS: Dict[str, Any] = {
    "live_udp_vote_starved": LiveVote(6000, 4000, k=2, silent=(1,)),
}


def get(name: str):
    workload = WORKLOADS.get(name) or SELF_TESTS.get(name)
    if workload is None:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return workload
