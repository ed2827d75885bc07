"""Orchestrate the live UDP demo and its DES twin, and compare verdicts.

``python -m repro live demo`` runs the Figure 3 vote over real sockets:
the orchestrator paces an iperf-style CBR stream, fans each datagram out
to ``k`` switch processes, the switch processes forward branch-tagged
copies to a compare process, and the compare process votes, quarantines
and releases with the exact code the simulator runs.  The same
packet-index fault schedule is then replayed through the DES backend
(:func:`repro.live.twin.des_twin_run`) and the two verdicts — alarms,
transitions, released-sequence fingerprint — are diffed.  CI gates on
that diff being empty (see ``transport-smoke`` in the workflow).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
from typing import Any, Dict, List, Optional

from repro.live.procs import HOST, compare_main, switch_main
from repro.live.schedule import LiveSchedule, default_schedule
from repro.live.twin import des_twin_run
from repro.live.verdict import Verdict, verdicts_match
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.net.stamp import UdpTemplate
from repro.traffic.udp import cbr_head, cbr_template
from repro.transport.base import ROLE_FANOUT, SessionSpec
from repro.transport.udp import UdpTransport
from repro.transport.wire import MSG_BYE, MSG_HELLO

SCOPE = "sA"
#: branches of the stock demo: the paper's Central3
K = 3
_SRC_MAC, _DST_MAC = MacAddress(0x02_00_00_00_00_01), MacAddress(0x02_00_00_00_00_02)
_SRC_IP, _DST_IP = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")


def _free_udp_ports(count: int) -> List[int]:
    socks, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((HOST, 0))
            socks.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in socks:
            sock.close()
    return ports


def datagram_template(payload_size: int) -> UdpTemplate:
    """The demo flow's template; a ``payload_size`` too small to hold the
    probe header is a ``ValueError``."""
    return cbr_template(_SRC_MAC, _DST_MAC, _SRC_IP, _DST_IP, 50000, 5001, payload_size)


def build_datagram(seq: int, flow: UdpTemplate) -> Packet:
    """The CBR probe for ``seq`` — deterministic bytes (ident and
    timestamp 0), so every branch's copy of a sequence number is
    bit-identical."""
    return flow.stamp(0, cbr_head(seq, 0.0))


async def _source_async(
    source_port: int,
    compare_port: int,
    switch_ports: List[int],
    packets: int,
    interval: float,
    payload_size: int,
    ready_timeout: float,
) -> Dict[str, Any]:
    k = len(switch_ports)
    transport = UdpTransport((HOST, source_port), name="live.source")
    await transport.start()
    ready: set = set()
    all_ready = asyncio.Event()

    def on_control(
        mtype: int, scope: str, branch: Optional[int], _addr: tuple
    ) -> None:
        if mtype == MSG_HELLO:
            ready.add((scope, branch))
            if len(ready) >= k + 1:  # k switches + the compare
                all_ready.set()

    transport.set_control_handler(on_control)
    try:
        await asyncio.wait_for(all_ready.wait(), timeout=ready_timeout)
    except asyncio.TimeoutError:
        transport.close()
        raise RuntimeError(
            f"live demo: workers not ready after {ready_timeout}s "
            f"(greeted: {sorted(ready)})"
        )

    fans = [
        transport.session(
            SessionSpec(SCOPE, ROLE_FANOUT, branch),
            remote=(HOST, switch_ports[branch]),
        )
        for branch in range(k)
    ]
    flow = datagram_template(payload_size)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    for seq in range(packets):
        delay = start + seq * interval - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        packet = build_datagram(seq, flow)
        for session in fans:
            session.send(packet)
    # Redundant BYEs: UDP gives no delivery guarantee and the compare's
    # hard deadline is the only fallback if all three are lost.
    for _ in range(3):
        transport.send_control(MSG_BYE, SCOPE, remote=(HOST, compare_port))
        await asyncio.sleep(0.05)
    stats = transport.stats()
    transport.close()
    return {"sent": packets, "transport_stats": stats}


def run_live_demo(
    packets: int = 300,
    interval: float = 0.01,
    payload_size: int = 256,
    schedule: Optional[LiveSchedule] = None,
    k: int = K,
    miss_threshold: int = 8,
    probation_clean_target: int = 12,
    live_buffer_timeout: float = 0.15,
    des_buffer_timeout: float = 2e-3,
    seed: int = 0,
    skip_des: bool = False,
    ready_timeout: float = 15.0,
) -> Dict[str, Any]:
    """Run the live demo (and, unless skipped, its DES twin); return the
    comparison report.  ``report["match"]`` is the CI gate."""
    if schedule is None:
        schedule = default_schedule(packets)
    schedule.validate(k)
    ports = _free_udp_ports(2 + k)
    source_port, compare_port, switch_ports = ports[0], ports[1], ports[2:]
    send_time = packets * interval
    deadline = send_time + ready_timeout + 30.0

    ctx = multiprocessing.get_context("spawn")
    result_q = ctx.Queue()
    compare_proc = ctx.Process(
        target=compare_main,
        args=(
            {
                "scope": SCOPE,
                "port": compare_port,
                "source_port": source_port,
                "k": k,
                "packets": packets,
                "buffer_timeout": live_buffer_timeout,
                "miss_threshold": miss_threshold,
                "probation_clean_target": probation_clean_target,
                "deadline_s": deadline,
            },
            result_q,
        ),
        daemon=True,
    )
    switch_procs = [
        ctx.Process(
            target=switch_main,
            args=(
                {
                    "scope": SCOPE,
                    "branch": branch,
                    "port": switch_ports[branch],
                    "source_port": source_port,
                    "compare_port": compare_port,
                    "schedule": schedule.to_dict(),
                    "deadline_s": deadline,
                },
            ),
            daemon=True,
        )
        for branch in range(k)
    ]
    compare_proc.start()
    for proc in switch_procs:
        proc.start()
    try:
        source_stats = asyncio.run(
            _source_async(
                source_port,
                compare_port,
                switch_ports,
                packets,
                interval,
                payload_size,
                ready_timeout,
            )
        )
        outcome = result_q.get(timeout=deadline)
    finally:
        for proc in [compare_proc, *switch_procs]:
            proc.terminate()
            proc.join(timeout=5.0)
    if not outcome.get("ok"):
        raise RuntimeError(
            f"live compare process failed: {outcome.get('error')}\n"
            f"{outcome.get('traceback', '')}"
        )
    live = Verdict(**outcome["verdict"])
    live.extras["source"] = source_stats

    report: Dict[str, Any] = {
        "schedule": schedule.to_dict(),
        "packets": packets,
        "interval": interval,
        "live": live.to_dict(),
    }
    if skip_des:
        report["des"] = None
        report["diffs"] = None
        report["match"] = None
        return report
    des = des_twin_run(
        schedule,
        packets=packets,
        interval=interval,
        payload_size=payload_size,
        seed=seed,
        miss_threshold=miss_threshold,
        probation_clean_target=probation_clean_target,
        buffer_timeout=des_buffer_timeout,
    )
    diffs = verdicts_match(live, des)
    report["des"] = des.to_dict()
    report["diffs"] = diffs
    report["match"] = not diffs
    return report
