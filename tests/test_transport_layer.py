"""Transport-layer refactor invariants.

* DES bit-identity: the crash_restart chaos battery (24 seeds) and two
  instrumented fig5-style run reports, replayed through the
  transport-session code, must reproduce every field pinned in
  ``benchmarks/transport_baseline.json``.  New fields may appear
  (counters grow over PRs); pinned ones may not drift.
* wire framing round-trips and rejects malformed datagrams;
* loopback pairs and the redundant transport (fusion + first-copy-wins
  dedup, tracer hooks, stats rollups);
* UDP smoke: the live multi-process demo's verdict — alarms, quarantine
  transitions, released-sequence fingerprint — matches the DES twin on
  the same packet-index fault schedule.
"""

import json
import os

import pytest

from repro.analysis.tasks import chaos_run
from repro.chaos.schedule import builtin_battery
from repro.net import IpAddress, MacAddress, Packet
from repro.obs.summary import build_run_report
from repro.transport import (
    ROLE_COLLECT,
    ROLE_FANOUT,
    ROLE_RELEASE,
    LoopbackTransport,
    RedundantTransport,
    SessionSpec,
    TransportError,
)
from repro.transport.wire import (
    MSG_BYE,
    MSG_DATA,
    MSG_HELLO,
    decode_message,
    encode_message,
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
        assert msg.meta() == {"branch": 2, "claim": 7, "seq": 41}

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


# ----------------------------------------------------------------------
# session registry, loopback, redundant fusion
# ----------------------------------------------------------------------
def _pkt(ident=0, payload=b"hello"):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        5, 5, payload=payload, ident=ident,
    )


class TestSessions:
    def test_session_memoised_by_spec(self):
        transport, _peer = LoopbackTransport.pair()
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

    def test_loopback_pair_delivers_and_traces(self):
        a, b = LoopbackTransport.pair()
        spec = SessionSpec("sA", ROLE_COLLECT, 0)
        got, traces = [], []
        b.session(spec).set_receiver(lambda p, m: got.append((p, m)))
        a.add_tracer(traces.append)
        b.add_tracer(traces.append)
        packet = _pkt()
        a.session(spec).send(packet, branch=0, claim=3)
        assert len(got) == 1
        assert got[0][0] is packet
        assert got[0][1]["branch"] == 0 and got[0][1]["claim"] == 3
        assert [t.direction for t in traces] == ["tx", "rx"]
        assert a.stats()["collect:sA:0"]["tx_messages"] == 1
        assert b.stats()["collect:sA:0"]["rx_messages"] == 1

    def test_loopback_drop_without_receiver_session(self):
        a, _b = LoopbackTransport.pair()
        session = a.session(SessionSpec("sA", ROLE_FANOUT, 1))
        session.send(_pkt())
        assert session.stats.drops == 1

    def test_redundant_dedup_first_copy_wins(self):
        k = 3
        pairs = [LoopbackTransport.pair(f"inf{i}") for i in range(k)]
        red = RedundantTransport([a for a, _ in pairs], name="red")
        spec = SessionSpec("sA", ROLE_COLLECT)
        got = []
        fused = red.session(spec)
        fused.set_receiver(lambda p, m: got.append(m))
        # receivers on the far side loop each inferior straight back
        for index, (a, b) in enumerate(pairs):
            far = b.session(spec)
            near = a.session(spec)
            far.set_receiver(
                lambda p, m, s=far, i=index: s.send(p, branch=i)
            )
        fused.send(_pkt(ident=1))
        # one copy per inferior went out, exactly one was delivered up
        assert fused.stats.tx_messages == 1
        assert len(got) == 1
        assert fused.deduplicated == k - 1
        assert sum(fused.firsts.values()) == 1

    def test_redundant_straggler_after_window(self):
        a0, _b0 = LoopbackTransport.pair("w0")
        red = RedundantTransport([a0], window=2)
        spec = SessionSpec("sA", ROLE_COLLECT)
        got = []
        fused = red.session(spec)
        fused.set_receiver(lambda p, m: got.append(m["seq"]))
        # drive the merge hook straight through the inferior session
        inferior = fused.inferiors[0]
        inferior.deliver(_pkt(), {"branch": 0, "seq": 10})
        inferior.deliver(_pkt(), {"branch": 0, "seq": 10})
        assert fused.deduplicated == 1
        inferior.deliver(_pkt(), {"branch": 0, "seq": 11})
        inferior.deliver(_pkt(), {"branch": 0, "seq": 12})  # evicts 10
        inferior.deliver(_pkt(), {"branch": 0, "seq": 10})  # fresh again
        assert got == [10, 11, 12, 10]


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
            tx.close()
            rx.close()
            return messages

        messages = asyncio.run(scenario())
        assert len(messages) == 1
        packet, meta = messages[0]
        assert meta["branch"] == 2 and meta["claim"] == 1 and meta["seq"] == 0
        assert bytes(packet.to_bytes()) == bytes(_pkt(ident=5).to_bytes())

    def test_live_demo_matches_des_twin(self):
        """The multi-process UDP demo and the DES backend agree on the
        verdict for the default crash schedule: same alarms, same
        quarantine transitions, same released-sequence fingerprint."""
        from repro.live.demo import run_live_demo

        report = run_live_demo(packets=120, interval=0.005)
        assert report["live"]["sent"] == 120
        assert report["live"]["released"] == 120  # crash masked by quorum
        assert ["branch_quarantined", 1] in report["live"]["alarms"]
        assert report["live"]["quarantined"] == [1]
        assert report["match"], f"verdicts differ: {report['diffs']}"
