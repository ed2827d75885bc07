"""iperf-style measurement harness over a simulated network.

Mirrors the paper's methodology (Section V-A): UDP runs with the ``-u``
flag and a ``-b`` target bitrate, "adjusting the -b flag value until a
maximum is reached" subject to a loss-rate ceiling; TCP runs measure bulk
throughput; ping runs measure RTT.  Runs are repeated and averaged, and
directions can be reversed as in the paper's 10+10 design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.net.host import Host
from repro.net.topology import Network
from repro.traffic.udp import UdpFlowResult, UdpReceiver, UdpSender, send_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.ping import PingResult
    from repro.traffic.tcp import TcpFlowResult

#: grace period after the send window for in-flight packets to drain
DRAIN_TIME = 20e-3


@dataclass
class PathEndpoints:
    """The measurement view of a scenario: a network and two hosts."""

    network: Network
    client: Host
    server: Host

    def reversed(self) -> "PathEndpoints":
        return PathEndpoints(self.network, self.server, self.client)


def drive_udp_flow(
    path: PathEndpoints,
    rate_bps: float,
    duration: float = 0.2,
    payload_size: int = 1470,
    send_cost: float = 0.0,
    dport: int = 5001,
    warmup: float = 1e-3,
    drain: float = DRAIN_TIME,
) -> Tuple[UdpSender, UdpReceiver]:
    """Drive one CBR flow from client to server to completion.

    The sender departs sequence ``s`` at ``warmup + s * sender.interval``
    after the call; the network then runs ``drain`` past the send window
    and the receiver is closed.  Returns both ends, for callers that need
    the delivered sequence set or the pacing as well as the flow summary
    (``receiver.result(sender, duration)``).
    """
    net = path.network
    receiver = UdpReceiver(path.server, dport)
    sender = UdpSender(
        path.client,
        dst_mac=path.server.mac,
        dst_ip=path.server.ip,
        dport=dport,
        rate_bps=rate_bps,
        payload_size=payload_size,
        send_cost=send_cost,
    )
    sender.start(duration, delay=warmup)
    net.run(until=net.sim.now + warmup + duration + drain)
    receiver.close()
    return sender, receiver


def run_udp_flow(
    path: PathEndpoints,
    rate_bps: float,
    duration: float = 0.2,
    payload_size: int = 1470,
    send_cost: float = 0.0,
    dport: int = 5001,
    warmup: float = 1e-3,
) -> UdpFlowResult:
    """One ``iperf -u -b rate`` run from client to server."""
    sender, receiver = drive_udp_flow(
        path, rate_bps, duration, payload_size, send_cost, dport, warmup
    )
    return receiver.result(sender, duration)


def run_tcp_flow(
    path: PathEndpoints,
    duration: float = 0.2,
    dport: int = 5001,
    mss: int = 1460,
    min_rto: float = 0.005,
    warmup: float = 1e-3,
) -> TcpFlowResult:
    """One iperf TCP bulk-transfer run from client to server."""
    from repro.traffic.tcp import TcpReceiver, TcpSender

    net = path.network
    receiver = TcpReceiver(path.server, dport)
    sender = TcpSender(
        path.client,
        dst_mac=path.server.mac,
        dst_ip=path.server.ip,
        dport=dport,
        mss=mss,
        min_rto=min_rto,
    )
    sender.start(duration, delay=warmup)
    net.run(until=net.sim.now + warmup + duration + DRAIN_TIME)
    result = sender.result(duration)
    sender.close()
    receiver.close()
    return result


def run_ping(
    path: PathEndpoints,
    count: int = 50,
    interval: float = 1e-3,
    payload_size: int = 56,
) -> PingResult:
    """One ``ping -c count`` run from client to server."""
    from repro.traffic.ping import Pinger

    net = path.network
    pinger = Pinger(
        path.client,
        dst_mac=path.server.mac,
        dst_ip=path.server.ip,
        payload_size=payload_size,
    )
    pinger.run(count, interval=interval)
    net.run(until=net.sim.now + count * interval + DRAIN_TIME)
    result = pinger.result()
    pinger.close()
    return result


def find_max_udp_rate(
    path_factory: Callable[[], PathEndpoints],
    loss_target: float = 0.005,
    rate_lo: float = 10e6,
    rate_hi: float = 1e9,
    iterations: int = 9,
    duration: float = 0.15,
    payload_size: int = 1470,
    send_cost: float = 0.0,
) -> Tuple[float, UdpFlowResult]:
    """Binary-search the highest offered rate with loss below the target.

    This is the paper's "adjusting the -b flag value until a maximum is
    reached" with the Figure 5 criterion "loss rates below 0.5%".  Each
    probe uses a *fresh* scenario instance so probes don't contaminate
    each other.  A probe's flow depends on its rate only through the
    sender's interval (:func:`send_interval`), so a probe whose interval
    an earlier probe already ran — every probe above the ``send_cost``
    cap — reuses that run's result instead of repeating it.
    """
    runs: Dict[float, UdpFlowResult] = {}

    def run(rate: float) -> UdpFlowResult:
        interval = send_interval(payload_size, rate, send_cost)
        result = runs.get(interval)
        if result is None:
            result = runs[interval] = run_udp_flow(
                path_factory(),
                rate_bps=rate,
                duration=duration,
                payload_size=payload_size,
                send_cost=send_cost,
            )
        return result

    best_rate = rate_lo
    best_result: Optional[UdpFlowResult] = None
    lo, hi = rate_lo, rate_hi
    for _ in range(iterations):
        probe = (lo + hi) / 2.0
        result = run(probe)
        if result.loss_rate <= loss_target:
            best_rate, best_result = probe, result
            lo = probe
        else:
            hi = probe
    if best_result is None:
        best_result = run(rate_lo)
    return best_rate, best_result
