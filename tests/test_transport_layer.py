"""Transport-layer refactor invariants.

* DES bit-identity: the crash_restart chaos battery (24 seeds) and two
  instrumented fig5-style run reports, replayed through the
  transport-session code, must reproduce every field pinned in
  ``benchmarks/transport_baseline.json``.  New fields may appear
  (counters grow over PRs); pinned ones may not drift.
* wire framing round-trips and rejects malformed datagrams — hostile
  bytes raise ``TransportError`` and nothing else;
* the UDP receive path: dispatch and counters without a socket, then the
  burst drain, timers between bursts, a close or a failing callback
  mid-burst, and ordered re-sends after ``EAGAIN``, over the loopback;
* every copy is delivered as a read-only frame over the bytes that
  arrived: its payload equals a fresh ``Packet.parse`` of the same
  bytes, for mangled frames too, and a receiver can rewrite nothing;
* the session registry (memoised by spec, stable stats order) and what
  the per-session counters count: conservation per scope on one DES flow;
* UDP smoke: the live multi-process demo's verdict — alarms, quarantine
  transitions, released-sequence fingerprint — matches the DES twin on
  the same packet-index fault schedule;
* the DES twin arms its faults through the ``ChaosEngine`` and still
  produces the verdicts pinned in ``benchmarks/live_twin_baseline.json``.
"""

import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.tasks import build_scenario, chaos_run
from repro.chaos.schedule import builtin_battery
from repro.live.schedule import LiveSchedule
from repro.live.twin import des_twin_run
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet, PacketError
from repro.obs.summary import build_run_report
from repro.traffic.iperf import run_udp_flow
from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_FANOUT,
    ROLE_RELEASE,
    SessionSpec,
    TransportError,
)
from repro.transport.wire import (
    MSG_BYE,
    MSG_DATA,
    MSG_HELLO,
    WireFrame,
    decode_message,
    encode_message,
)
from tests.test_packet_properties import (
    _A,
    _B,
    _TCP,
    _UDP,
    _VLAN,
    frames,
    mutated_frames,
    repaired,
)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "transport_baseline.json"
)


def load_baseline():
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def assert_subset(baseline, current, path="$"):
    """Every baseline field must exist and be equal in current output.

    Keys *added* since the baseline was pinned are fine — stats grow over
    PRs — but a pinned value drifting means the refactor changed the DES
    backend's behaviour.
    """
    if isinstance(baseline, dict):
        assert isinstance(current, dict), f"{path}: expected dict, got {type(current).__name__}"
        for key, value in baseline.items():
            assert key in current, f"{path}.{key}: missing from current output"
            assert_subset(value, current[key], f"{path}.{key}")
    elif isinstance(baseline, list):
        assert isinstance(current, list), f"{path}: expected list, got {type(current).__name__}"
        assert len(baseline) == len(current), (
            f"{path}: length {len(current)} != baseline {len(baseline)}"
        )
        for index, (b_item, c_item) in enumerate(zip(baseline, current)):
            assert_subset(b_item, c_item, f"{path}[{index}]")
    else:
        assert baseline == current, f"{path}: {current!r} != baseline {baseline!r}"


# ----------------------------------------------------------------------
# DES bit-identity vs the pre-refactor baseline
# ----------------------------------------------------------------------
class TestDesBitIdentity:
    baseline = load_baseline()

    @pytest.mark.parametrize("seed", sorted(load_baseline()["chaos"], key=int))
    def test_chaos_record_identical(self, seed):
        workload = self.baseline["workloads"]["chaos"]
        schedule = builtin_battery()[workload["schedule"]].to_dict()
        record = chaos_run(
            schedule,
            int(seed),
            variant=workload["variant"],
            duration=workload["duration"],
        )
        assert_subset(self.baseline["chaos"][seed], record, f"chaos[{seed}]")

    @pytest.mark.parametrize("seed", sorted(load_baseline()["obs"], key=int))
    def test_obs_report_identical(self, seed):
        report, _runs = build_run_report(quick=True, seed=int(seed))
        assert_subset(self.baseline["obs"][seed], report.to_dict(), f"obs[{seed}]")


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
class TestWireFraming:
    def test_data_round_trip(self):
        payload = bytes(range(64))
        data = encode_message(
            MSG_DATA, ROLE_COLLECT, "sA", payload,
            branch=2, claim=7, seq=41, t_ns=123456789,
        )
        msg = decode_message(data)
        assert msg.mtype == MSG_DATA
        assert msg.role == ROLE_COLLECT
        assert msg.scope == "sA"
        assert msg.branch == 2
        assert msg.claim == 7
        assert msg.seq == 41
        assert msg.t_ns == 123456789
        assert msg.payload == payload

    def test_none_branch_and_claim(self):
        msg = decode_message(encode_message(MSG_HELLO, ROLE_FANOUT, "compare"))
        assert msg.branch is None and msg.claim is None
        assert msg.payload == b""
        assert msg.mtype == MSG_HELLO

    def test_packet_payload_survives(self):
        packet = Packet.udp(
            MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2),
            50000, 5001, payload=b"x" * 40, ident=9,
        )
        data = encode_message(
            MSG_DATA, ROLE_FANOUT, "sA", bytes(packet.to_bytes()), branch=0,
        )
        decoded = Packet.parse(decode_message(data).payload)
        assert bytes(decoded.to_bytes()) == bytes(packet.to_bytes())

    def test_rejects_malformed(self):
        good = encode_message(MSG_BYE, ROLE_RELEASE, "sB")
        with pytest.raises(TransportError):
            decode_message(good[:4])  # truncated header
        with pytest.raises(TransportError):
            decode_message(b"XX" + good[2:])  # bad magic
        with pytest.raises(TransportError):
            decode_message(good[:2] + bytes([99]) + good[3:])  # bad version
        with pytest.raises(TransportError):
            encode_message(MSG_DATA, "sideways", "sA")  # unknown role
        with pytest.raises(TransportError):
            encode_message(MSG_DATA, ROLE_FANOUT, "s" * 300)  # scope too long


    def test_hostile_fields_raise_transport_error_only(self):
        good = encode_message(MSG_DATA, ROLE_COLLECT, "sA", b"frame", branch=1)
        with pytest.raises(TransportError):  # scope bytes that are not UTF-8
            decode_message(good[:21] + b"\x02\xff\xfe" + good[24:])
        with pytest.raises(TransportError):  # a message type nobody defined
            decode_message(good[:3] + bytes([9]) + good[4:])
        with pytest.raises(TransportError):
            encode_message(9, ROLE_COLLECT, "sA")
        for field in ("branch", "claim"):  # int16 on the wire
            with pytest.raises(TransportError):
                encode_message(MSG_DATA, ROLE_COLLECT, "sA", **{field: 1 << 15})
            with pytest.raises(TransportError):
                encode_message(MSG_DATA, ROLE_COLLECT, "sA", **{field: -(1 << 15) - 1})

    @given(st.one_of(
        st.binary(max_size=64),
        # a real datagram with a few bytes overwritten gets past the magic
        st.tuples(
            st.lists(st.tuples(st.integers(0, 30), st.integers(0, 255)), max_size=4),
            st.integers(0, 40),
        ).map(lambda edit: _overwrite(
            encode_message(MSG_DATA, ROLE_COLLECT, "scöpe", b"frame", branch=2, claim=1),
            *edit,
        )),
    ))
    @settings(max_examples=600)
    def test_decode_returns_a_message_or_raises_transport_error(self, data):
        try:
            message = decode_message(data)
        except TransportError:
            return
        assert message.mtype in (MSG_DATA, MSG_HELLO, MSG_BYE)
        assert isinstance(message.scope, str) and isinstance(message.payload, bytes)


#: random bytes behind an Ethernet header naming IPv4, with the IPv4
#: header checksum made right wherever there is room for one, so the
#: walk past it sees every version, length and protocol
_random_ipv4 = st.binary(max_size=72).map(
    lambda tail: bytes(repaired(bytearray(bytes(12) + b"\x08\x00" + tail), l4=False))
)
#: a canonical frame with one header byte set to any value and both
#: checksums repaired: every length, offset and version field in reach
_one_header_byte = st.tuples(frames, st.integers(12, 61), st.integers(0, 255)).map(
    lambda edit: bytes(repaired(bytearray(edit[0][: edit[1]]) + bytes((edit[2],))
                                + edit[0][edit[1] + 1 :]))
)


def _edited(packet, at, value):
    """``packet``'s frame with byte ``at`` set to ``value`` and both
    checksums repaired."""
    frame = bytearray(packet.to_bytes())
    frame[at] = value
    return bytes(repaired(frame))


_ICMP = Packet.icmp_echo(*_A, *_B, ident=1, seqno=2, payload=b"ab")


class TestWireFrame:
    """The frame's header walk against ``Packet.parse``: the same
    rejections, the same payload, and the bytes themselves kept."""

    # one of each rule, whatever the draw: every rejection, and the
    # lengths that cut the IP payload short or from the end
    @example(_VLAN.to_bytes()[:16])              # truncated VLAN tag
    @example(_edited(_UDP, 14, 0x65))            # IPv4 version 6
    @example(_edited(_UDP, 39, 0x07))            # UDP length below its header
    @example(_edited(_UDP, 17, 0x1E))            # UDP length past the IP payload
    @example(_edited(_TCP, 46, 0x40))            # TCP data offset below 20
    @example(_edited(_TCP, 46, 0xF0))            # TCP data offset past the segment
    @example(_edited(_ICMP, 17, 0x1B))           # ICMP segment of 7 bytes
    @example(_edited(_UDP, 17, 0x05))            # total_length below 20
    @example(_edited(_UDP, 17, 0x00) + bytes(40))  # ... cutting from the end
    @example(_UDP.to_bytes() + b"pad")           # trailing bytes
    @given(st.one_of(
        st.binary(max_size=80),
        _random_ipv4,
        _one_header_byte,
        mutated_frames(),
        st.tuples(frames, st.integers(0, 80)).map(lambda cut: cut[0][: cut[1]]),
    ))
    @settings(max_examples=2000, deadline=None)
    def test_rejects_exactly_what_parse_rejects(self, data):
        try:
            parsed = Packet.parse(data)
        except PacketError:
            with pytest.raises(PacketError):
                WireFrame(data)
            return
        frame = WireFrame(data)
        assert frame.to_bytes() is data and frame.wire_len == len(data)
        assert frame.payload == parsed.payload
        assert frame.trace_id is None
        for name in (*WireFrame.__slots__, "payload", "trace_id", "to_bytes", "meta"):
            with pytest.raises(AttributeError):
                setattr(frame, name, b"")
            with pytest.raises(AttributeError):
                delattr(frame, name)
        assert frame.to_bytes() is data and frame.payload == parsed.payload


def _overwrite(data, edits, keep):
    out = bytearray(data[:keep])
    for at, value in edits:
        if at < len(out):
            out[at] = value
    return bytes(out)


# ----------------------------------------------------------------------
# session registry and per-session counters
# ----------------------------------------------------------------------
def _pkt(ident=0, payload=b"hello"):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        5, 5, payload=payload, ident=ident,
    )


class TestSessions:
    def test_session_memoised_by_spec(self):
        from repro.transport.udp import UdpTransport

        transport = UdpTransport(name="unit")  # opening needs no socket
        spec = SessionSpec("sA", ROLE_COLLECT, 1)
        assert transport.session(spec) is transport.session(spec)
        assert transport.session(SessionSpec("sA", ROLE_COLLECT, 2)) is not (
            transport.session(spec)
        )

    def test_spec_validation(self):
        with pytest.raises(TransportError):
            SessionSpec("sA", "sideways").validate()
        with pytest.raises(TransportError):
            SessionSpec("", ROLE_COLLECT).validate()

    def test_stats_key_order_does_not_depend_on_opening_order(self):
        # branch 0 and the branch-less session of one role/scope used to
        # tie on `branch or -1` and come out in insertion order
        from repro.transport.udp import UdpTransport

        specs = [SessionSpec("sA", ROLE_COLLECT, 0), SessionSpec("sA", ROLE_COLLECT)]
        orders = []
        for opening in (specs, specs[::-1]):
            transport = UdpTransport(name="unit")
            for spec in opening:
                transport.session(spec)
            orders.append(list(transport.stats()))
        assert orders[0] == orders[1] == ["collect:sA", "collect:sA:0"]


def _session_counts(transport, key):
    counts = transport.stats()[key]
    return counts["tx_messages"], counts["rx_messages"]


class TestDesSessionCounters:
    """Counting is the DES adapter's whole job: each count must equal the
    element counter it shadows (one 86-datagram flow, 100 Mbit/s, seed 1)."""

    @staticmethod
    def _flow(variant):
        testbed = build_scenario(variant, None, 1)
        result = run_udp_flow(
            testbed.path(), rate_bps=100e6, duration=0.01,
            send_cost=testbed.params.udp_send_cost,
        )
        assert result.sent == 86
        return testbed.chain

    def test_central3_counts_are_conserved_per_scope(self):
        chain = self._flow("central3")
        ingress, egress = chain.endpoint_a, chain.endpoint_b
        host, core = chain.compare_host, chain.compare_core
        fanned = [
            _session_counts(ingress.transport, f"fanout:nc_sA:{branch}")
            for branch in range(3)
        ]
        assert fanned == [(86, 0)] * 3
        assert sum(tx for tx, _rx in fanned) == ingress.estats.duplicated
        assert (
            _session_counts(egress.transport, "collect:nc_sB")[0]
            == _session_counts(host.transport, "collect:nc_sB")[1]
            == egress.estats.submitted
            == core.stats.submissions
            == 258
        )
        assert (
            _session_counts(host.transport, "release:nc_sB")[0]
            == _session_counts(egress.transport, "release:nc_sB")[1]
            == egress.estats.released_out
            == core.stats.released
            == 86
        )
        # nothing flowed h2 -> h1: the reverse scope opened and stayed at zero
        for transport in (ingress.transport, host.transport):
            for key in ("collect:nc_sA", "release:nc_sA"):
                assert _session_counts(transport, key) == (0, 0)

    def test_pox3_counts_hold_on_each_side_of_the_control_channel(self):
        """The channel may drop and the endpoint has no release session
        there, so only the per-side identities hold."""
        chain = self._flow("pox3")
        egress, app, core = chain.endpoint_b, chain.controller, chain.compare_core
        assert (
            _session_counts(egress.transport, "collect:nc_sB")
            == (egress.estats.submitted, 0)
            == (258, 0)
        )
        assert (
            _session_counts(app.transport, "collect:nc_sB")
            == (0, core.stats.submissions)
            == (0, 248)
        )
        assert (
            _session_counts(app.transport, "release:nc_sB")
            == (core.stats.released, 0)
            == (83, 0)
        )
        assert "release:nc_sB" not in egress.transport.stats()


# ----------------------------------------------------------------------
# RealTimeScheduler: the Simulator surface the voter uses, on asyncio
# ----------------------------------------------------------------------
class TestRealTimeScheduler:
    def test_post_runs_the_call_with_its_arguments(self):
        import asyncio

        from repro.transport.realtime import RealTimeScheduler

        async def scenario():
            sched = RealTimeScheduler(asyncio.get_running_loop())
            got = asyncio.Event()
            seen = []
            sched.post(sched.now - 1.0, seen.append, ("late",))  # clamped to now
            sched.post(sched.now + 0.01, lambda a, b: (seen.append((a, b)), got.set()), (1, 2))
            await asyncio.wait_for(got.wait(), timeout=5.0)
            return seen

        assert asyncio.run(scenario()) == ["late", (1, 2)]

    def test_compare_with_service_cost_releases(self):
        """A non-zero ``proc_time`` queues each copy behind the compare's
        processor, i.e. goes through ``sim.post`` and reads the clock —
        the facade has neither a heap nor ``_now``.  (The live stack runs
        at zero cost and never takes this path.)"""
        import asyncio

        from repro.core.alarms import AlarmSink
        from repro.core.compare import CompareConfig, CompareContext, CompareCore
        from repro.transport.realtime import RealTimeScheduler

        async def scenario():
            loop = asyncio.get_running_loop()
            core = CompareCore(
                RealTimeScheduler(loop),
                CompareConfig(k=3, proc_time=1e-3, buffer_timeout=0.5),
                name="rt_compare",
                alarm_sink=AlarmSink(None),
            )
            got = asyncio.Event()
            released = []
            context = CompareContext(
                scope="s", release=lambda packet: (released.append(packet), got.set())
            )
            for branch in range(3):
                core.submit(_pkt(ident=7), branch, context)
            assert released == []  # queued, not served inline
            await asyncio.wait_for(got.wait(), timeout=5.0)
            await asyncio.sleep(0.01)  # let the third copy be served too
            return core, released

        core, released = asyncio.run(scenario())
        assert [p.to_bytes() for p in released] == [_pkt(ident=7).to_bytes()]
        assert core.stats.submissions == 3
        assert core._in_service == 0


# ----------------------------------------------------------------------
# UdpTransport: the receive path the repo owns (socket, drain, dispatch)
# ----------------------------------------------------------------------
def _datagram(branch=0, seq=0, scope="sA", payload=None):
    payload = _pkt(ident=seq).to_bytes() if payload is None else payload
    return encode_message(MSG_DATA, ROLE_COLLECT, scope, payload, branch=branch, seq=seq)


class TestUdpDispatch:
    """``_on_datagram`` needs no socket: bytes in, a delivery or a count out."""

    PEER = ("127.0.0.1", 9)

    def _transport(self):
        from repro.transport.udp import UdpTransport

        transport = UdpTransport(name="unit")
        got = []
        transport.session(SessionSpec("sA", ROLE_COLLECT)).set_receiver(
            lambda packet, meta: got.append(("any", meta["branch"], meta["seq"]))
        )
        return transport, got

    def test_hostile_datagrams_are_counted_not_raised(self):
        transport, got = self._transport()
        good = _datagram()
        for bad in (
            b"",                                              # too short
            good[:21] + b"\x02\xff\xfe" + good[24:],          # scope not UTF-8
            good[:3] + bytes([9]) + good[4:],                 # unknown mtype
            _datagram(payload=b"\x00" * 10),                  # not a frame
            _datagram(payload=_pkt().to_bytes()[:30]),        # truncated IPv4
        ):
            transport._on_datagram(bad, self.PEER)
        assert transport.rx_errors == 5 and got == []
        transport._on_datagram(_datagram(scope="sB"), self.PEER)
        assert transport.rx_unmatched == 1
        transport._on_datagram(good, self.PEER)
        assert got == [("any", 0, 0)]

    def test_role_code_3_is_a_malformed_datagram(self):
        """The wire knows fan-out, collect and release (0-2); plain
        forwarding is no session role, so code 3 is an error, not a
        message no session matches."""
        transport, got = self._transport()
        data = bytearray(_datagram())
        data[4] = 3  # the role byte
        with pytest.raises(TransportError, match="unknown role code 3"):
            decode_message(bytes(data))
        transport._on_datagram(bytes(data), self.PEER)
        assert (transport.rx_errors, transport.rx_unmatched, got) == (1, 0, [])

    def test_only_packet_errors_count_as_rx_errors(self, monkeypatch):
        """A bug behind the frame's header walk is not a malformed
        datagram."""
        from repro.transport import udp

        transport, _got = self._transport()

        def broken(_data):
            raise RuntimeError("bug")

        monkeypatch.setattr(udp, "WireFrame", broken)
        with pytest.raises(RuntimeError):
            transport._on_datagram(_datagram(), self.PEER)
        assert transport.rx_errors == 0

    def test_received_packet_holds_the_bytes_that_arrived(self):
        from repro.transport.udp import UdpTransport

        transport = UdpTransport(name="unit")
        packets = []
        transport.session(SessionSpec("sA", ROLE_COLLECT)).set_receiver(
            lambda packet, _meta: packets.append(packet)
        )
        frame = _pkt(ident=3).to_bytes()
        transport._on_datagram(_datagram(payload=frame), self.PEER)
        assert type(packets[0]) is WireFrame
        assert packets[0].to_bytes() == frame and packets[0].wire_len == len(frame)

    def test_delivered_meta_carries_what_receivers_read(self):
        """The meta dict a receiver is handed holds the wire's branch,
        claim and seq, and nothing else."""
        from repro.transport.udp import UdpTransport

        transport = UdpTransport(name="unit")
        metas = []
        transport.session(SessionSpec("sA", ROLE_COLLECT)).set_receiver(
            lambda _packet, meta: metas.append(meta)
        )
        transport._on_datagram(_datagram(branch=2, seq=7), self.PEER)
        assert len(metas) == 1 and set(metas[0]) == {"branch", "claim", "seq"}
        assert (metas[0]["branch"], metas[0]["seq"]) == (2, 7)

    def test_route_memo_follows_session_changes(self):
        transport, got = self._transport()
        transport._on_datagram(_datagram(branch=2, seq=0), self.PEER)
        exact = transport.session(SessionSpec("sA", ROLE_COLLECT, 2))
        exact.set_receiver(lambda _p, meta: got.append(("exact", 2, meta["seq"])))
        transport._on_datagram(_datagram(branch=2, seq=1), self.PEER)
        transport._on_datagram(_datagram(branch=1, seq=2), self.PEER)
        exact.close()
        transport._on_datagram(_datagram(branch=2, seq=3), self.PEER)
        assert got == [("any", 2, 0), ("exact", 2, 1), ("any", 1, 2), ("any", 2, 3)]
        transport.close()
        transport._on_datagram(_datagram(branch=2, seq=4), self.PEER)
        assert transport.rx_unmatched == 1 and len(got) == 4

    def test_route_memo_is_bounded_against_hostile_branches(self):
        """A scope-wide session matches whatever branch the wire names."""
        from repro.transport.udp import ROUTE_MEMO_ENTRIES

        transport, got = self._transport()
        for branch in range(5000):
            transport._on_datagram(_datagram(branch=branch, seq=branch), self.PEER)
        assert [seq for _any, _branch, seq in got] == list(range(5000))
        assert 0 < len(transport._routes) <= ROUTE_MEMO_ENTRIES


class TestUdpSharedParse:
    """``_on_datagram`` hands each datagram's payload on as a read-only
    :class:`WireFrame` of its own.  The copies of a frame share nothing
    any more (the class keeps the name of the parse map the frames
    replaced): what each delivers is a fresh parse's payload over its own
    bytes, and nothing a receiver does to it changes the next delivery."""

    PEER = ("127.0.0.1", 9)

    @staticmethod
    def _transport():
        from repro.transport.udp import UdpTransport

        transport = UdpTransport(name="unit")
        packets = []
        session = transport.session(SessionSpec("sA", ROLE_COLLECT))
        session.set_receiver(lambda packet, _meta: packets.append(packet))
        return transport, session, packets

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_delivery_equals_a_fresh_parse(self, data):
        """Canonical, padded, wrong- and 0xFFFF-checksum, truncated frames,
        in sequences with repeats, against a parse of each datagram."""
        pool = data.draw(
            st.lists(st.one_of(frames, mutated_frames()), min_size=1, max_size=5)
        )
        sequence = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=15))
        transport, session, packets = self._transport()
        for branch, payload in enumerate(sequence):
            transport._on_datagram(_datagram(branch % 3, payload=payload), self.PEER)
        accepted = [payload for payload in sequence if _parses(payload)]
        # a malformed payload is rejected every time it comes
        assert transport.rx_errors == len(sequence) - len(accepted)
        assert session.stats.rx_messages == len(packets) == len(accepted)
        for packet, payload in zip(packets, accepted):
            # the bytes that arrived, never a normalised rebuild of them
            assert packet.to_bytes() == payload and packet.wire_len == len(payload)
            assert packet.payload == Packet.parse(payload).payload
            assert packet.trace_id is None

    def test_each_copy_is_delivered_as_its_own_bytes(self):
        """An honest copy and a copy that differs only in its UDP checksum
        field: each is delivered as it arrived, so they vote apart."""
        transport, session, packets = self._transport()
        frame = _pkt(ident=3).to_bytes()
        bad_checksum = frame[:40] + bytes([frame[40] ^ 0xFF]) + frame[41:]
        for branch, payload in enumerate((frame, frame, bad_checksum)):
            transport._on_datagram(_datagram(branch, payload=payload), self.PEER)
        assert [p.to_bytes() for p in packets] == [frame, frame, bad_checksum]
        assert len({id(p) for p in packets}) == 3
        assert (transport.rx_errors, session.stats.rx_messages) == (0, 3)

    @pytest.mark.parametrize("rewrite", [
        lambda packet: packet.decrement_ttl(),
        lambda packet: setattr(packet, "payload", b"rewritten"),
        lambda packet: setattr(packet.eth, "src", MacAddress.from_index(9)),
        lambda packet: setattr(packet.l4, "dport", 6),
        lambda packet: setattr(packet, "trace_id", 7),
    ], ids=["ttl", "payload", "eth-src", "l4-dport", "trace-id"])
    def test_a_receivers_rewrite_stays_its_own(self, rewrite):
        """Each way a receiver rewrote a parsed packet fails on a frame —
        it has no header objects, no rewriting method and refuses every
        assignment — and the later copies arrive as the first did."""
        transport, _session, packets = self._transport()
        frame = _pkt(ident=4).to_bytes()
        for branch in range(3):
            transport._on_datagram(_datagram(branch, payload=frame), self.PEER)
            if branch < 2:
                with pytest.raises(AttributeError):
                    rewrite(packets[-1])
        for packet in packets:
            assert packet.to_bytes() == frame and packet.wire_len == len(frame)
            assert packet.payload == _pkt(ident=4).payload
            assert packet.trace_id is None


def _parses(payload):
    try:
        Packet.parse(payload)
    except PacketError:
        return False
    return True


class _StubbornSocket:
    """The transport's socket, refusing the first ``refusals`` sends."""

    def __init__(self, sock, refusals):
        self._sock = sock
        self.refusals = refusals

    def sendto(self, data, address):
        if self.refusals > 0:
            self.refusals -= 1
            raise BlockingIOError
        return self._sock.sendto(data, address)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestUdpDrain:
    @staticmethod
    async def _pair():
        from repro.transport.udp import UdpTransport

        rx = UdpTransport(("127.0.0.1", 0), name="rx")
        tx = UdpTransport(("127.0.0.1", 0), name="tx")
        address = await rx.start()
        await tx.start()
        spec = SessionSpec("sA", ROLE_COLLECT, 0)
        return rx, tx, rx.session(spec), tx.session(spec, remote=address)

    @staticmethod
    async def _until(condition, timeout=5.0):
        import asyncio

        deadline = asyncio.get_running_loop().time() + timeout
        while not condition():
            assert asyncio.get_running_loop().time() < deadline, "timed out"
            await asyncio.sleep(0.001)

    def test_lifecycle_keeps_its_contract(self):
        import asyncio

        from repro.transport.udp import UdpTransport

        async def scenario():
            transport = UdpTransport(("127.0.0.1", 0), name="t")
            with pytest.raises(TransportError):
                transport.local_address()
            session = transport.session(
                SessionSpec("sA", ROLE_COLLECT, 0), remote=("127.0.0.1", 9)
            )
            with pytest.raises(TransportError):
                session.send(_pkt())  # not started
            address = await transport.start()
            assert address[0] == "127.0.0.1" and address[1] > 0
            with pytest.raises(TransportError):  # int16 on the wire
                session.send(_pkt(), branch=1 << 15)
            assert await transport.start() == address == transport.local_address()
            transport.close()
            transport.close()  # idempotent
            assert transport.sessions == {}
            with pytest.raises(TransportError):
                transport.local_address()
            with pytest.raises(TransportError):
                session.send(_pkt())

        asyncio.run(scenario())

    def test_due_timer_runs_between_bursts(self):
        """More than two bursts are queued on the socket when a timer
        comes due: it fires after at most one burst, not behind them all."""
        import asyncio

        from repro.transport.realtime import RealTimeScheduler
        from repro.transport.udp import RX_BURST

        total = 2 * RX_BURST + 10

        async def scenario():
            rx, tx, inbound, outbound = await self._pair()
            try:
                seen, at_timer = [], []
                inbound.set_receiver(lambda _p, meta: seen.append(meta["seq"]))
                packet = _pkt()
                for _ in range(total):
                    outbound.send(packet)
                sched = RealTimeScheduler(asyncio.get_running_loop())
                sched.post(sched.now, lambda: at_timer.append(len(seen)))
                await self._until(lambda: len(seen) == total)
                return seen, at_timer
            finally:
                tx.close()
                rx.close()

        seen, at_timer = asyncio.run(scenario())
        assert seen == list(range(total))
        assert len(at_timer) == 1 and at_timer[0] <= RX_BURST < total

    def test_close_from_a_receiver_ends_the_drain(self):
        import asyncio

        async def scenario():
            rx, tx, inbound, outbound = await self._pair()
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            seen = []

            def on_message(_packet, meta):
                seen.append(meta["seq"])
                if len(seen) == 3:
                    rx.close()

            inbound.set_receiver(on_message)
            try:
                for _ in range(10):
                    outbound.send(_pkt())
                await self._until(lambda: len(seen) >= 3)
                await asyncio.sleep(0.02)
                return seen, reported, rx
            finally:
                tx.close()
                rx.close()

        seen, reported, rx = asyncio.run(scenario())
        assert seen == [0, 1, 2] and reported == []
        assert rx.rx_errors == 0 and rx.rx_handler_errors == 0

    def test_failing_receiver_is_reported_and_the_drain_goes_on(self):
        import asyncio
        import socket

        from repro.live.verdict import Verdict
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry(enabled=True)

        async def scenario():
            with use_registry(registry):
                rx, tx, inbound, outbound = await self._pair()
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            seen = []

            def on_message(_packet, meta):
                seen.append(meta["seq"])
                if meta["seq"] == 1:
                    raise ValueError("receiver bug")

            inbound.set_receiver(on_message)
            try:
                outbound.send(_pkt())
                outbound.send(_pkt())
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
                    raw.sendto(b"not a transport datagram", rx.local_address())
                outbound.send(_pkt())
                await self._until(lambda: len(seen) == 3)
                return seen, reported, rx, inbound
            finally:
                tx.close()
                rx.close()

        seen, reported, rx, inbound = asyncio.run(scenario())
        assert seen == [0, 1, 2]
        assert rx.rx_handler_errors == 1 and rx.rx_errors == 1
        # the compare worker's verdict and /metrics read the same counts
        verdict = Verdict.build("udp", 3, seen, (), (), **rx.rx_counts())
        assert verdict.extras == {
            "rx_errors": 1, "rx_unmatched": 0, "rx_handler_errors": 1,
            "tx_dropped": 0,
        }
        # the three copies reached the one session; the junk datagram did not
        assert inbound.stats.rx_messages == 3
        samples = registry.samples()
        assert samples['transport_rx_handler_errors_total{transport="rx"}'] == 1
        assert samples['transport_rx_errors_total{transport="rx"}'] == 1
        assert samples[
            'transport_session_rx_messages_total'
            '{session="collect:sA:0",transport="rx"}'
        ] == 3
        assert len(reported) == 1
        assert isinstance(reported[0]["exception"], ValueError)

    def test_refused_sends_keep_order_and_lose_nothing(self):
        import asyncio

        async def scenario():
            rx, tx, inbound, outbound = await self._pair()
            seen = []
            inbound.set_receiver(lambda _p, meta: seen.append(meta["seq"]))
            # the first send and the first flush find the socket full
            tx._sock = stubborn = _StubbornSocket(tx._sock, refusals=2)
            try:
                for _ in range(5):
                    outbound.send(_pkt())
                assert seen == [] and len(tx._backlog) == 5
                await self._until(lambda: len(seen) == 5)
                assert stubborn.refusals == 0 and not tx._backlog
                outbound.send(_pkt())  # and the direct path is back
                await self._until(lambda: len(seen) == 6)
                return seen
            finally:
                tx.close()
                rx.close()

        assert asyncio.run(scenario()) == list(range(6))

    def test_backlog_is_bounded_and_the_overflow_is_counted(self):
        """A peer that never drains: the queue stops growing, the newest
        datagrams are the ones dropped, and nothing raises."""
        import asyncio

        from repro.transport.udp import TX_BACKLOG_FRAMES

        async def scenario():
            rx, tx, _inbound, outbound = await self._pair()
            tx._sock = _StubbornSocket(tx._sock, refusals=float("inf"))
            packet = _pkt()
            try:
                for _ in range(10 * TX_BACKLOG_FRAMES):
                    outbound.send(packet)
                await asyncio.sleep(0.01)  # the writer callback finds it full too
                kept = [decode_message(data).seq for data, _remote in tx._backlog]
                return kept, tx.rx_counts()["tx_dropped"], outbound.stats.tx_messages
            finally:
                tx.close()
                rx.close()

        kept, dropped, offered = asyncio.run(scenario())
        assert kept == list(range(TX_BACKLOG_FRAMES))
        assert dropped == 9 * TX_BACKLOG_FRAMES and offered == 10 * TX_BACKLOG_FRAMES


# ----------------------------------------------------------------------
# UDP loopback smoke: live verdict == DES verdict
# ----------------------------------------------------------------------
class TestUdpSmoke:
    def test_udp_transport_loopback_delivery(self):
        """Two in-process UdpTransports exchange one framed packet."""
        import asyncio

        from repro.transport.udp import UdpTransport

        async def scenario():
            rx = UdpTransport(("127.0.0.1", 0), name="rx")
            await rx.start()
            tx = UdpTransport(("127.0.0.1", 0), name="tx")
            await tx.start()
            got = asyncio.Event()
            messages = []

            def on_message(packet, meta):
                messages.append((packet, meta))
                got.set()

            spec = SessionSpec("sA", ROLE_COLLECT, 2)
            rx.session(spec).set_receiver(on_message)
            tx.session(spec, remote=rx.local_address()).send(
                _pkt(ident=5), branch=2, claim=1
            )
            await asyncio.wait_for(got.wait(), timeout=5.0)
            stats = tx.stats(), rx.stats()
            tx.close()
            rx.close()
            return messages, stats

        messages, (tx_stats, rx_stats) = asyncio.run(scenario())
        assert len(messages) == 1
        packet, meta = messages[0]
        assert meta["branch"] == 2 and meta["claim"] == 1 and meta["seq"] == 0
        assert bytes(packet.to_bytes()) == bytes(_pkt(ident=5).to_bytes())
        assert tx_stats["collect:sA:2"]["tx_messages"] == 1
        assert rx_stats["collect:sA:2"]["rx_messages"] == 1

    def test_live_demo_matches_des_twin(self):
        """The multi-process UDP demo and the DES backend agree on the
        verdict for the default crash schedule: same alarms, same
        quarantine transitions, same released-sequence fingerprint."""
        from repro.live.demo import run_live_demo

        # With branch 1 crashed a release needs both honest copies inside
        # the live buffer timeout, so the timeout is also the longest stall
        # of one worker process the run masks.  A shared 2-core host holds
        # a process back ~100 ms in one run of ten (129 ms worst of 20
        # full-suite runs) — too close to the demo's 0.15 s, where a 0.25 s
        # SIGSTOP of one honest switch loses packets (`expired_unreleased`
        # > 0); 0.5 s masks it.  No restart in this schedule, so no
        # detectability bound (EXPERIMENTS.md) caps the timeout.
        report = run_live_demo(
            packets=120, interval=0.005, live_buffer_timeout=0.5
        )
        live = report["live"]
        # a failure names its cause: vote-book counters (expired_unreleased,
        # late_copies), rx_errors / rx_unmatched / rx_handler_errors,
        # per-session tx/rx on both sides, timed_out
        detail = json.dumps(live["extras"], sort_keys=True)
        assert live["sent"] == 120, detail
        assert live["released"] == 120, detail  # crash masked by quorum
        assert ["branch_quarantined", 1] in live["alarms"], detail
        assert live["quarantined"] == [1], detail
        assert report["match"], f"verdicts differ: {report['diffs']}\n{detail}"


# ----------------------------------------------------------------------
# DES twin: faults armed through the ChaosEngine, verdicts as before
# ----------------------------------------------------------------------
def load_twin_baseline():
    path = os.path.join(os.path.dirname(BASELINE_PATH), "live_twin_baseline.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


class TestDesTwinVerdicts:
    """Crash, crash/restart and a two-fault schedule on seeds 0, 1, 5:
    every verdict field, extras included, as the hand-scheduled twin
    produced it."""

    runs = load_twin_baseline()

    @pytest.mark.parametrize("run", sorted(load_twin_baseline()))
    def test_verdict_identical(self, run):
        pinned = self.runs[run]
        verdict = des_twin_run(
            LiveSchedule.from_dict(pinned["verdict"]["extras"]["schedule"]),
            packets=pinned["packets"],
            interval=pinned["interval"],
            seed=pinned["seed"],
        )
        assert verdict.to_dict() == pinned["verdict"]


class TestLiveScheduleAgainstK:
    """A fault on a branch the combiner does not have is refused before
    anything runs."""

    bad = LiveSchedule.from_dict(
        {"name": "crash", "faults": [{"branch": 5, "at_index": 10}]}
    )

    def test_validate_needs_k_to_see_it(self):
        self.bad.validate()
        self.bad.validate(k=6)
        with pytest.raises(ValueError, match="branch must be < k = 3"):
            self.bad.validate(k=3)

    def test_live_demo_refuses_before_spawning(self, monkeypatch):
        import multiprocessing

        from repro.live.demo import run_live_demo

        monkeypatch.setattr(
            multiprocessing, "get_context",
            lambda *_: pytest.fail("a worker process was about to be spawned"),
        )
        with pytest.raises(ValueError, match="branch must be < k = 3"):
            run_live_demo(packets=30, schedule=self.bad)
