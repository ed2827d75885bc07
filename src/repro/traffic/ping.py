"""ICMP echo measurement — the simulator's ``ping``.

Sends a train of echo requests at a fixed interval and records per-reply
RTTs; hosts answer echo requests automatically (see
:class:`repro.net.host.Host`).  Duplicate replies (Dup3/Dup5 deliver
every reply k times) are counted separately, as ``ping -c`` would report
``(DUP!)`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.net.host import Host
from repro.net.packet import ICMP_ECHO_REQUEST, Icmp, Packet
from repro.traffic.stats import SummaryStats


@dataclass
class PingResult:
    """Summary of one ping run (one ``ping -c count`` invocation)."""

    sent: int
    received: int
    duplicates: int
    rtts: SummaryStats = field(default_factory=SummaryStats)

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def avg_rtt_ms(self) -> float:
        return self.rtts.mean * 1e3


class Pinger:
    """Echo-request generator + reply collector on one host."""

    _next_ident = 1

    def __init__(
        self,
        host: Host,
        dst_mac,
        dst_ip,
        payload_size: int = 56,
    ) -> None:
        self.host = host
        self.dst_mac = dst_mac
        self.dst_ip = dst_ip
        self.payload_size = payload_size
        self.ident = Pinger._next_ident
        Pinger._next_ident += 1
        self.sent = 0
        self.received = 0
        self.duplicates = 0
        self.rtts = SummaryStats()
        self._send_times: Dict[int, float] = {}
        self._answered: set = set()
        self._count = 0
        self._interval = 0.0
        self._done_cb: Optional[Callable[[], None]] = None
        # Intercept replies while preserving the host's request responder.
        host.bind_icmp(self._on_icmp)

    def close(self) -> None:
        self.host.enable_echo_responder()

    # ------------------------------------------------------------------
    def run(
        self,
        count: int,
        interval: float = 1e-3,
        delay: float = 0.0,
        done_cb: Optional[Callable[[], None]] = None,
    ) -> None:
        """Schedule ``count`` echo requests spaced ``interval`` apart."""
        self._count = count
        self._interval = interval
        self._done_cb = done_cb
        self.host.sim.schedule(delay, self._send_next)

    def _send_next(self) -> None:
        if self.sent >= self._count:
            return
        seqno = self.sent
        packet = Packet.icmp_echo(
            src_mac=self.host.mac,
            dst_mac=self.dst_mac,
            src_ip=self.host.ip,
            dst_ip=self.dst_ip,
            ident=self.ident,
            seqno=seqno,
            payload=b"\x00" * self.payload_size,
            ip_ident=self.host.next_ip_ident(),
        )
        self._send_times[seqno] = self.host.sim.now
        self.host.send(packet)
        self.sent += 1
        if self.sent < self._count:
            self.host.sim.schedule(self._interval, self._send_next)
        elif self._done_cb is not None:
            # Completion callback fires after a grace period of one
            # interval, giving the last reply time to arrive.
            self.host.sim.schedule(self._interval, self._done_cb)

    # ------------------------------------------------------------------
    def _on_icmp(self, packet: Packet) -> None:
        icmp = packet.l4
        if not isinstance(icmp, Icmp):
            return
        if icmp.icmp_type == ICMP_ECHO_REQUEST:
            self.host._echo_responder(packet)
            return
        if not icmp.is_echo_reply or icmp.ident != self.ident:
            return
        seqno = icmp.seqno
        if seqno in self._answered:
            self.duplicates += 1
            return
        sent_at = self._send_times.get(seqno)
        if sent_at is None:
            return
        self._answered.add(seqno)
        self.received += 1
        self.rtts.add(self.host.sim.now - sent_at)

    def result(self) -> PingResult:
        return PingResult(
            sent=self.sent,
            received=self.received,
            duplicates=self.duplicates,
            rtts=self.rtts,
        )
