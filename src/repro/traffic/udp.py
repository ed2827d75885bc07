"""UDP constant-bit-rate traffic — the simulator's ``iperf -u``.

The sender paces fixed-size datagrams at a target application bitrate;
each payload carries a sequence number and the send timestamp, from which
the receiver computes loss, duplication (relevant in the Dup3/Dup5
scenarios, where every datagram arrives k times), reordering and RFC 3550
jitter — the same statistics iperf's UDP server reports.

Real iperf is bounded by per-datagram syscall cost at the sender, which
is why the paper's *UDP* Linespeed number (278 Mbit/s) sits far below its
*TCP* number (474 Mbit/s).  ``send_cost`` models that per-packet sender
CPU cost; see DESIGN.md's calibration notes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Set

from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.stamp import PacketBatch, UdpTemplate
from repro.traffic.stats import JitterEstimator

_HEADER = struct.Struct("!IQ")  # sequence number, send time in ns


def cbr_head(seq: int, now: float) -> bytes:
    """The head of datagram ``seq`` sent at ``now``: what a CBR flow's
    datagrams differ in, beside their IPv4 ident."""
    return _HEADER.pack(seq & 0xFFFFFFFF, int(now * 1e9))


def cbr_template(
    src_mac, dst_mac, src_ip, dst_ip, sport: int, dport: int, payload_size: int
) -> UdpTemplate:
    """A CBR flow's template: each datagram is it stamped with its ident
    and its :func:`cbr_head` (the rest of the payload is zeros)."""
    if payload_size < _HEADER.size:
        raise ValueError(f"payload size must be >= {_HEADER.size}, got {payload_size}")
    return UdpTemplate(Packet.udp(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        sport=sport,
        dport=dport,
        payload=bytes(payload_size),
    ))


def _decode_payload(payload: bytes) -> Optional[tuple]:
    if len(payload) < _HEADER.size:
        return None
    seq, send_ns = _HEADER.unpack_from(payload)
    return seq, send_ns / 1e9


def send_interval(payload_size: int, rate_bps: float, send_cost: float) -> float:
    """Inter-departure time of a CBR sender: the slower of pacing and
    sender CPU.  The flow a sender offers depends on its rate only
    through this value."""
    return max(payload_size * 8.0 / rate_bps, send_cost)


@dataclass
class UdpFlowResult:
    """End-of-run report for one UDP flow (iperf server-side summary)."""

    sent: int
    received_unique: int
    duplicates: int
    reordered: int
    payload_size: int
    duration: float
    jitter_s: float

    @property
    def lost(self) -> int:
        return max(0, self.sent - self.received_unique)

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    @property
    def throughput_mbps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.received_unique * self.payload_size * 8.0 / self.duration / 1e6

    @property
    def offered_mbps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.sent * self.payload_size * 8.0 / self.duration / 1e6

    @property
    def jitter_ms(self) -> float:
        return self.jitter_s * 1e3


class UdpSender:
    """Paced CBR datagram source."""

    def __init__(
        self,
        host: Host,
        dst_mac,
        dst_ip,
        dport: int,
        rate_bps: float,
        payload_size: int = 1470,
        sport: int = 50000,
        send_cost: float = 0.0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if payload_size < _HEADER.size:
            raise ValueError(
                f"payload size must be >= {_HEADER.size}, got {payload_size}"
            )
        self.host = host
        self.dst_mac = dst_mac
        self.dst_ip = dst_ip
        self.dport = dport
        self.sport = sport
        self.rate_bps = rate_bps
        self.payload_size = payload_size
        self.send_cost = send_cost
        #: inter-departure time (:func:`send_interval`)
        self.interval = send_interval(payload_size, rate_bps, send_cost)
        self.sent = 0
        self._running = False
        self._end_time = 0.0
        #: the flow's template, built when it starts
        self._flow: Optional[UdpTemplate] = None

    def start(self, duration: float, delay: float = 0.0) -> None:
        """Begin sending; stops once ``duration`` of sending has elapsed."""
        host = self.host
        self._flow = cbr_template(
            host.mac, self.dst_mac, host.ip, self.dst_ip,
            self.sport, self.dport, self.payload_size,
        )
        self._running = True
        sim = host.sim
        self._end_time = sim.now + delay + duration
        sim.schedule(delay, self._send_one)

    def stop(self) -> None:
        self._running = False

    def _send_one(self) -> None:
        sim = self.host.sim
        realm = sim.realm
        if realm is not None:
            self._send_train(realm)
            return
        now = sim.now
        if not self._running or now >= self._end_time:
            self._running = False
            return
        host = self.host
        host.send(self._flow.stamp(
            host.next_ip_ident(),
            _HEADER.pack(self.sent & 0xFFFFFFFF, int(now * 1e9)),  # cbr_head, inline
        ))
        self.sent += 1
        sim.post(now + self.interval, self._send_one)

    def _send_train(self, realm) -> None:
        """Emit up to ``realm.train`` datagrams as one packet train.

        Replays :meth:`_send_one` exactly: sequence numbers, the
        ``t += interval`` float accumulation, per-packet IP idents drawn
        in order, and the per-packet ``t >= end_time`` stop condition all
        match the event-per-packet run bit for bit.  The train's jitter
        draws happen inside :meth:`Host.send_batch` in the same order.
        """
        sim = self.host.sim
        t = sim.now
        if not self._running or t >= self._end_time:
            self._running = False
            return
        host = self.host
        interval = self.interval
        end = self._end_time
        seqs = []
        ts_ns = []
        idents = []
        times = []
        for _ in range(realm.train):
            seqs.append(self.sent & 0xFFFFFFFF)  # what the wire carries
            ts_ns.append(int(t * 1e9))
            idents.append(host.next_ip_ident())
            times.append(t)
            self.sent += 1
            t = t + interval
            if t >= end:
                self._running = False
                break
        heads = [_HEADER.pack(s, ns) for s, ns in zip(seqs, ts_ns)]
        flow = self._flow
        if len(seqs) == 1:
            # Trailing partial train of one: the plain path is cheaper
            # and trivially exact.
            host.send(flow.stamp(idents[0], heads[0]))
        else:
            batch = PacketBatch(flow, heads, idents, seqs=seqs, ts_ns=ts_ns)
            realm.note_batch(batch.count)
            host.send_batch(batch, times)
        if self._running:
            sim.schedule_at(t, self._send_one)


class UdpReceiver:
    """Deduplicating iperf-style UDP sink with jitter/loss accounting."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.duplicates = 0
        self.reordered = 0
        self.highest_seq = -1
        self._seen: Set[int] = set()
        self.jitter = JitterEstimator()
        host.bind_udp(port, self._on_packet)
        host.bind_udp_batch(port, self._on_batch_packet)

    def close(self) -> None:
        self.host.unbind_udp(self.port)

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        decoded = _decode_payload(payload)
        if decoded is None:
            return
        seq, send_time = decoded
        if seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(seq)
        now = self.host.sim.now
        if seq < self.highest_seq:
            self.reordered += 1
        self.highest_seq = max(self.highest_seq, seq)
        self.jitter.observe(send_time, now)

    def _on_batch_packet(self, batch, i: int) -> None:
        """:meth:`_on_packet` for one train packet, without decoding bytes.

        ``batch.seqs``/``batch.ts_ns`` hold exactly what
        :func:`cbr_head` wrote (``seq & 0xFFFFFFFF``,
        ``int(t * 1e9)``), so dedup keys, reorder counts and the RFC 3550
        jitter estimator see identical inputs.
        """
        seq = batch.seqs[i]
        if seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(seq)
        now = self.host.sim.now
        if seq < self.highest_seq:
            self.reordered += 1
        else:
            self.highest_seq = seq
        self.jitter.observe(batch.ts_ns[i] / 1e9, now)

    @property
    def received_unique(self) -> int:
        return len(self._seen)

    def received_sequences(self) -> Set[int]:
        """Set of sequence numbers delivered at least once (gap analysis)."""
        return set(self._seen)

    def result(self, sender: UdpSender, duration: float) -> UdpFlowResult:
        return UdpFlowResult(
            sent=sender.sent,
            received_unique=self.received_unique,
            duplicates=self.duplicates,
            reordered=self.reordered,
            payload_size=sender.payload_size,
            duration=duration,
            jitter_s=self.jitter.jitter,
        )
