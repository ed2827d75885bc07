"""The DES twin of a live run: same fault schedule, simulated transport.

Runs the calibrated Central-k testbed (DES backend, :class:`DesTransport`
sessions end to end) under the packet-index schedule a live demo used.
Index-to-time conversion places each fault *between* two departures: the
source emits sequence ``s`` at ``warmup + s * interval``, so failing a
router at ``warmup + (at_index - 0.5) * interval`` guarantees packets
``< at_index`` cleared it and packets ``>= at_index`` find it dead —
exactly the set a live switch process drops.  The faults are injected
the way every chaos run injects them: the schedule compiles to
:class:`~repro.chaos.schedule.RouterCrash` events armed through a
:class:`~repro.chaos.schedule.ChaosEngine`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.chaos.quarantine import QuarantineController
from repro.chaos.schedule import ChaosEngine, FaultSchedule, RouterCrash
from repro.live.schedule import LiveSchedule
from repro.live.verdict import Verdict
from repro.scenarios.testbed import build_testbed
from repro.traffic.udp import UdpReceiver, UdpSender


def des_twin_run(
    schedule: LiveSchedule,
    packets: int,
    interval: float,
    payload_size: int = 256,
    seed: int = 0,
    variant: str = "central3",
    miss_threshold: int = 8,
    probation_clean_target: int = 12,
    buffer_timeout: float = 2e-3,
    params: Optional[Dict[str, Any]] = None,
) -> Verdict:
    """Run ``schedule`` through the simulator; return the DES verdict."""
    schedule.validate()
    from repro.analysis.tasks import chaos_aliases, params_from_dict

    base = replace(
        params_from_dict(params), compare_buffer_timeout=buffer_timeout
    )
    testbed = build_testbed(variant, base, seed)
    net = testbed.network
    core = testbed.compare_core
    core.config.miss_threshold = miss_threshold
    core.config.probation_clean_target = probation_clean_target
    controller = QuarantineController(core, net.trace)

    warmup = 1e-3

    def index_time(index: Optional[int]) -> Optional[float]:
        return None if index is None else warmup + (index - 0.5) * interval

    crashes = [
        RouterCrash(
            index_time(fault.at_index),
            f"r{fault.branch}",
            restart_at=index_time(fault.restart_index),
        )
        for fault in schedule.faults
    ]
    ChaosEngine(
        FaultSchedule(crashes, name=schedule.name),
        net,
        aliases=chaos_aliases(testbed),
    ).arm()

    # duration = (packets - 0.5) * interval makes the sender emit exactly
    # `packets` datagrams (seq n departs at n * interval < duration).
    duration = (packets - 0.5) * interval
    dport = 5001
    receiver = UdpReceiver(testbed.h2, dport)
    sender = UdpSender(
        testbed.h1,
        dst_mac=testbed.h2.mac,
        dst_ip=testbed.h2.ip,
        dport=dport,
        rate_bps=payload_size * 8.0 / interval,
        payload_size=payload_size,
        send_cost=min(base.udp_send_cost, interval),
    )
    sender.start(duration, delay=warmup)
    drain = max(10 * buffer_timeout, 0.05)
    net.run(until=warmup + duration + drain)
    receiver.close()
    controller.detach()
    if sender.sent != packets:
        raise RuntimeError(
            f"DES twin paced {sender.sent} packets, expected {packets}"
        )

    return Verdict.build(
        backend="des",
        sent=sender.sent,
        released_sequences=receiver.received_sequences(),
        alarm_pairs=(
            (alarm.kind, alarm.branch) for alarm in testbed.chain.alarms.alarms
        ),
        transitions=(
            (t["event"], t["branch"]) for t in controller.transitions
        ),
        schedule=schedule.to_dict(),
        duplicates=receiver.duplicates,
        compare=core.stats.as_dict(),
        transport_stats=testbed.transport.stats(),
    )
