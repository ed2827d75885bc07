"""Traffic generation and measurement (iperf/ping analogues)."""

from repro.traffic.iperf import (
    DRAIN_TIME,
    PathEndpoints,
    find_max_udp_rate,
    run_ping,
    run_tcp_flow,
    run_udp_flow,
)
from repro.traffic.ping import Pinger, PingResult
from repro.traffic.stats import (
    JitterEstimator,
    SummaryStats,
    ThroughputMeter,
    mbits,
)
from repro.traffic.tcp import TcpFlowResult, TcpReceiver, TcpSender
from repro.traffic.udp import UdpFlowResult, UdpReceiver, UdpSender

__all__ = [
    "DRAIN_TIME",
    "PathEndpoints",
    "find_max_udp_rate",
    "run_ping",
    "run_tcp_flow",
    "run_udp_flow",
    "Pinger",
    "PingResult",
    "JitterEstimator",
    "SummaryStats",
    "ThroughputMeter",
    "mbits",
    "TcpFlowResult",
    "TcpReceiver",
    "TcpSender",
    "UdpFlowResult",
    "UdpReceiver",
    "UdpSender",
]
