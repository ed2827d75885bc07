"""A Reno-style TCP implementation over the simulated network.

This is the substrate for the paper's TCP throughput measurements
(Figure 4, Table I).  It implements the mechanisms those measurements
exercise:

* three-way handshake;
* sliding window limited by min(cwnd, receiver window);
* slow start and congestion avoidance (RFC 5681);
* fast retransmit on three duplicate ACKs, NewReno-style fast recovery
  with partial-ACK retransmission;
* retransmission timeout with Jacobson/Karels RTT estimation, Karn's
  algorithm and exponential backoff;
* a deduplicating receiver that ACKs immediately on out-of-order or
  duplicate segments — which is precisely why plain duplication (Dup3/
  Dup5) hurts TCP: every duplicated segment generates duplicate ACKs and
  spurious fast retransmits, while the combiner (Central3/Central5)
  removes duplicates before they reach the receiver.

The sender streams an unbounded byte source of zeros for a fixed
duration, like ``iperf`` in its default TCP mode.  Every segment, the
receiver's included, is stamped from its connection direction's
:func:`connection_template` (:class:`~repro.net.stamp.TcpTemplate`),
never built and serialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.host import Host
from repro.net.packet import (
    Packet,
    TCP_ACK,
    TCP_DSACK,
    TCP_FIN,
    TCP_SYN,
    Tcp,
)
from repro.net.stamp import TcpTemplate
from repro.sim.engine import Timer

MSS_DEFAULT = 1460


def connection_template(
    src_mac, dst_mac, src_ip, dst_ip, sport: int, dport: int, mss: int
) -> TcpTemplate:
    """One direction of a connection: each of its segments is this
    stamped with its ident, seq, ack, flags, window and length (up to
    ``mss`` bytes of zeros)."""
    return TcpTemplate(Packet.tcp(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        sport=sport,
        dport=dport,
        payload=bytes(mss),
    ))


@dataclass
class TcpFlowResult:
    """End-of-run report for one TCP bulk transfer."""

    bytes_acked: int
    duration: float
    retransmits: int
    timeouts: int
    fast_retransmits: int
    rtt_samples: int
    srtt_s: float

    @property
    def throughput_mbps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.bytes_acked * 8.0 / self.duration / 1e6


class TcpReceiver:
    """Passive endpoint: accepts one connection, ACKs everything."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.iss = 1_000_000  # receiver's initial sequence number
        self.rcv_nxt: Optional[int] = None
        self.snd_nxt = self.iss
        self.peer_mac = None
        self.peer_ip = None
        self.peer_port: Optional[int] = None
        self.bytes_in_order = 0
        self.segments_received = 0
        self.duplicate_segments = 0
        self.out_of_order_segments = 0
        self._ooo: Dict[int, int] = {}  # seq -> payload length
        self._ack_emissions = 0
        #: the reply direction's ends, and its template: built when a SYN
        #: names the peer (the receiver sends no data, so no payload)
        self._reply: Optional[tuple] = None
        self._template: Optional[TcpTemplate] = None
        host.bind_tcp(port, self._on_segment)

    def close(self) -> None:
        self.host.unbind_tcp(self.port)

    # ------------------------------------------------------------------
    def _on_segment(self, packet: Packet) -> None:
        _eth, _vlan, ip, tcp = packet.fields()  # read-only access
        if not isinstance(tcp, Tcp) or ip is None:
            return
        if tcp.flags & TCP_SYN:
            self._on_syn(packet, tcp)
            return
        if self.rcv_nxt is None or tcp.sport != self.peer_port:
            return  # not our connection
        self.segments_received += 1
        length = len(packet.payload)
        if tcp.flags & TCP_FIN:
            if tcp.seq == self.rcv_nxt:  # in-order FIN (ignore repeats)
                self.rcv_nxt += 1
            self._send_ack(dsack=False)
            return
        if length == 0:
            return  # pure ACK from peer; nothing to do
        seq = tcp.seq
        dsack = False
        if seq == self.rcv_nxt:
            self.rcv_nxt += length
            self.bytes_in_order += length
            self._drain_ooo()
        elif seq > self.rcv_nxt:
            if seq not in self._ooo:
                self._ooo[seq] = length
            self.out_of_order_segments += 1
        else:
            # Entirely below rcv_nxt: a duplicate delivery or spurious
            # retransmission.  RFC 5681 says ACK immediately; RFC 2883
            # says report the duplicate in a DSACK block, which lets the
            # sender tell "network duplicated this" apart from "loss".
            self.duplicate_segments += 1
            dsack = True
        self._send_ack(dsack=dsack)

    def _on_syn(self, packet: Packet, tcp: Tcp) -> None:
        if self.rcv_nxt is not None and tcp.sport != self.peer_port:
            return  # second connection attempt: ignore
        first_syn = self.rcv_nxt is None
        eth, _vlan, ip, _l4 = packet.fields()  # read-only access
        self.peer_mac = eth.src
        self.peer_ip = ip.src
        self.peer_port = tcp.sport
        self.rcv_nxt = tcp.seq + 1
        if first_syn:
            self.snd_nxt = self.iss + 1
        host = self.host
        reply = (host.mac, self.peer_mac, host.ip, self.peer_ip, self.port, self.peer_port)
        if reply != self._reply:
            self._template = connection_template(*reply, 0)
            self._reply = reply
        host.send(self._template.stamp(
            host.next_ip_ident(), self.iss, self.rcv_nxt, TCP_SYN | TCP_ACK, 65535, 0
        ))

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            length = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt += length
            self.bytes_in_order += length

    def _send_ack(self, dsack: bool = False) -> None:
        flags = TCP_ACK | (TCP_DSACK if dsack else 0)
        # The window field doubles as an ACK-emission counter.  A SACK-
        # capable sender only treats an ACK as a *duplicate ACK* when it
        # carries new SACK information (RFC 5681/6675); network-duplicated
        # copies of one ACK carry none.  Distinct emissions get distinct
        # counters, so loss-induced duplicate ACKs still register.
        self._ack_emissions = emission = (self._ack_emissions + 1) & 0xFFFF
        host = self.host
        host.send(self._template.stamp(
            host.next_ip_ident(), self.snd_nxt, self.rcv_nxt, flags, emission, 0
        ))


class TcpSender:
    """Active endpoint: connects and streams bytes for a duration."""

    def __init__(
        self,
        host: Host,
        dst_mac,
        dst_ip,
        dport: int,
        sport: int = 40000,
        mss: int = MSS_DEFAULT,
        init_cwnd_segments: int = 4,
        min_rto: float = 0.02,
        max_rto: float = 1.0,
        rwnd: int = 65535,
        total_bytes: Optional[int] = None,
    ) -> None:
        self.host = host
        self.dst_mac = dst_mac
        self.dst_ip = dst_ip
        self.dport = dport
        self.sport = sport
        self.mss = mss
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.rwnd = rwnd

        # None = unbounded iperf-style stream; an int = send exactly
        # this many bytes, then close with FIN.
        self.total_bytes = total_bytes
        self.fin_sent = False
        self.fin_acked = False

        self.iss = 0
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.cwnd = init_cwnd_segments * mss
        self.ssthresh = 1 << 30
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        self.connected = False
        self._running = False
        self._end_time = 0.0
        self._done_cb = None

        # RTT estimation (Jacobson/Karels + Karn)
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 0.2
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0

        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.rtt_samples = 0
        self._last_ack_emission = -1
        #: the peer's next sequence number, learnt from its SYN-ACK
        self._rcv_nxt_peer = 0

        self._template = connection_template(
            host.mac, dst_mac, host.ip, dst_ip, sport, dport, mss
        )
        self._rto_timer = Timer(host.sim, self._on_rto)
        host.bind_tcp(sport, self._on_segment)

    def close(self) -> None:
        self.host.unbind_tcp(self.sport)
        self._rto_timer.cancel()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self, duration: float, delay: float = 0.0, done_cb=None) -> None:
        """Connect, then stream data until ``duration`` elapses."""
        self._running = True
        self._done_cb = done_cb
        sim = self.host.sim
        self._end_time = sim.now + delay + duration
        sim.schedule(delay, self._send_syn)

    def result(self, duration: float) -> TcpFlowResult:
        handshake = 1 if self.connected else 0
        fin = 1 if self.fin_acked else 0
        return TcpFlowResult(
            bytes_acked=max(0, self.snd_una - self.iss - handshake - fin),
            duration=duration,
            retransmits=self.retransmits,
            timeouts=self.timeouts,
            fast_retransmits=self.fast_retransmits,
            rtt_samples=self.rtt_samples,
            srtt_s=self.srtt or 0.0,
        )

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # connection setup
    # ------------------------------------------------------------------
    def _send_syn(self) -> None:
        if not self._running:
            return
        syn = self._make_segment(self.iss, 0, TCP_SYN)
        self.snd_nxt = self.iss + 1
        self.host.send(syn)
        self._rto_timer.start(self.rto)

    # ------------------------------------------------------------------
    # segment receive path (SYN-ACK and ACKs)
    # ------------------------------------------------------------------
    def _on_segment(self, packet: Packet) -> None:
        tcp = packet.fields()[3]  # read-only access
        if not isinstance(tcp, Tcp) or not tcp.flags & TCP_ACK:
            return
        if not self.connected:
            if tcp.flags & TCP_SYN and tcp.ack == self.iss + 1:
                self.connected = True
                self.snd_una = tcp.ack
                self._rcv_nxt_peer = tcp.seq + 1
                self._rto_timer.cancel()
                self._send_pure_ack()
                self._try_send()
            return
        emission = tcp.window
        novel = emission != self._last_ack_emission
        self._last_ack_emission = emission
        self._on_ack(tcp.ack, dsack=bool(tcp.flags & TCP_DSACK), novel=novel)

    def _on_ack(self, ack: int, dsack: bool = False, novel: bool = True) -> None:
        if ack > self.snd_una:
            self._rtt_sample_maybe(ack)
            if self.in_recovery:
                if ack >= self.recover:
                    # Full acknowledgement: leave fast recovery.
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                    self.dupacks = 0
                else:
                    # NewReno partial ACK: retransmit the next hole and
                    # deflate by the amount acknowledged.
                    acked = ack - self.snd_una
                    self.snd_una = ack
                    self._retransmit_front()
                    self.cwnd = max(self.mss, self.cwnd - acked + self.mss)
                    self._restart_rto()
                    self._try_send()
                    return
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd += self.mss  # slow start
                else:
                    self.cwnd += max(1, self.mss * self.mss // self.cwnd)
                self.dupacks = 0
            self.snd_una = ack
            if self.fin_sent and ack == self.snd_nxt:
                self.fin_acked = True
                self._rto_timer.cancel()
                self._finish()
                return
            if self.flight_size > 0:
                self._restart_rto()
            else:
                self._rto_timer.cancel()
            self._try_send()
        elif ack == self.snd_una and self.flight_size > 0:
            if not novel:
                # A network-duplicated copy of an ACK we already saw:
                # carries no new SACK information, so it is not a
                # duplicate ACK in the RFC 6675 sense.
                return
            if dsack and not self.in_recovery:
                # The peer reported a DSACK: the network duplicated a
                # segment we already delivered.  Not a loss signal.
                return
            self.dupacks += 1
            if self.in_recovery:
                self.cwnd += self.mss  # inflate during recovery
                self._try_send()
            elif self.dupacks == 3:
                self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.recover = self.snd_nxt
        self.in_recovery = True
        self.fast_retransmits += 1
        self._retransmit_front()
        self.cwnd = self.ssthresh + 3 * self.mss
        self._restart_rto()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if not self._running or not self.connected:
            return
        if self.host.sim.now >= self._end_time:
            self._finish()
            return
        window = min(self.cwnd, self.rwnd)
        while not self.fin_sent and self.flight_size + 1 <= window:
            if self.host.sim.now >= self._end_time:
                self._finish()
                return
            length = self.mss
            if self.total_bytes is not None:
                remaining = self.total_bytes - (self.snd_nxt - self.iss - 1)
                if remaining <= 0:
                    self._send_fin()
                    break
                length = min(length, remaining)
            if self.flight_size + length > window:
                break
            self._emit_segment(self.snd_nxt, length)
            self.snd_nxt += length
        if self.flight_size > 0 and not self._rto_timer.running:
            self._rto_timer.start(self.rto)

    def _send_fin(self) -> None:
        self.fin_sent = True
        fin = self._make_segment(self.snd_nxt, 0, TCP_ACK | TCP_FIN)
        self.snd_nxt += 1  # FIN consumes one sequence number
        self.host.send(fin)
        self._rto_timer.start(self.rto)

    def _emit_segment(self, seq: int, length: int) -> None:
        self.host.send(self._make_segment(seq, length, TCP_ACK))
        if self._timed_seq is None:
            self._timed_seq = seq + length
            self._timed_at = self.host.sim.now

    def _retransmit_front(self) -> None:
        self.retransmits += 1
        # Karn: never time a retransmitted segment.
        if self._timed_seq is not None and self._timed_seq <= self.snd_una + self.mss:
            self._timed_seq = None
        outstanding = self.snd_nxt - self.snd_una
        if outstanding <= 0:
            return
        if self.fin_sent and outstanding == 1:
            self.host.send(self._make_segment(self.snd_una, 0, TCP_ACK | TCP_FIN))
            return
        fin_in_flight = 1 if self.fin_sent else 0
        length = min(self.mss, outstanding - fin_in_flight)
        if length <= 0:
            return
        self.host.send(self._make_segment(self.snd_una, length, TCP_ACK))

    def _send_pure_ack(self) -> None:
        self.host.send(self._make_segment(self.snd_nxt, 0, TCP_ACK))

    def _make_segment(self, seq: int, length: int, flags: int) -> Packet:
        """Segment ``seq`` with ``length`` bytes of the zero stream."""
        return self._template.stamp(
            self.host.next_ip_ident(), seq, self._rcv_nxt_peer, flags, 65535, length
        )

    # ------------------------------------------------------------------
    # timers & RTT estimation
    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        if not self._running:
            return
        if not self.connected:
            # SYN lost: retry the handshake.
            if self.host.sim.now < self._end_time:
                self.rto = min(self.rto * 2, self.max_rto)
                self._send_syn()
            return
        if self.flight_size <= 0:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dupacks = 0
        self.rto = min(self.rto * 2, self.max_rto)
        self._timed_seq = None
        self._retransmit_front()
        self._rto_timer.start(self.rto)

    def _restart_rto(self) -> None:
        self._rto_timer.start(self.rto)

    def _rtt_sample_maybe(self, ack: int) -> None:
        if self._timed_seq is None or ack < self._timed_seq:
            return
        sample = self.host.sim.now - self._timed_at
        self._timed_seq = None
        self.rtt_samples += 1
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(self.max_rto, max(self.min_rto, self.srtt + 4 * self.rttvar))

    def _finish(self) -> None:
        if not self._running:
            return
        self._running = False
        self._rto_timer.cancel()
        if self._done_cb is not None:
            self._done_cb()
