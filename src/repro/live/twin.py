"""The DES twin of a live run: same fault schedule, simulated transport.

Runs the calibrated Central-k testbed (DES backend, :class:`DesTransport`
sessions end to end) under the packet-index schedule a live demo used.
Index-to-time conversion places each fault *between* two departures: the
source emits sequence ``s`` at ``warmup + s * interval``, so failing a
router at ``warmup + (at_index - 0.5) * interval`` guarantees packets
``< at_index`` cleared it and packets ``>= at_index`` find it dead —
exactly the set a live switch process drops.  The faults are injected
the way every chaos run injects them: the schedule compiles to
:class:`~repro.chaos.schedule.RouterCrash` events and runs through
:func:`repro.analysis.tasks.run_supervised_flow`, the flow ``chaos.run``
and ``adv.run`` drive.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.chaos.schedule import FaultSchedule, RouterCrash
from repro.live.schedule import LiveSchedule
from repro.live.verdict import Verdict
from repro.scenarios.testbed import build_testbed


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
    from repro.analysis.tasks import WARMUP, params_from_dict, run_supervised_flow

    base = replace(
        params_from_dict(params), compare_buffer_timeout=buffer_timeout
    )
    testbed = build_testbed(variant, base, seed)
    schedule.validate(k=len(testbed.routers))

    def index_time(index: Optional[int]) -> Optional[float]:
        return None if index is None else WARMUP + (index - 0.5) * interval

    crashes = [
        RouterCrash(
            index_time(fault.at_index),
            f"r{fault.branch}",
            restart_at=index_time(fault.restart_index),
        )
        for fault in schedule.faults
    ]
    run = run_supervised_flow(
        testbed,
        FaultSchedule(crashes, name=schedule.name),
        {
            "miss_threshold": miss_threshold,
            "probation_clean_target": probation_clean_target,
        },
        rate_bps=payload_size * 8.0 / interval,
        # duration = (packets - 0.5) * interval makes the sender emit
        # exactly `packets` datagrams (seq n departs at n * interval <
        # duration).
        duration=(packets - 0.5) * interval,
        payload_size=payload_size,
        send_cost=min(base.udp_send_cost, interval),
        drain=max(10 * buffer_timeout, 0.05),
    )
    if run.flow.sent != packets:
        raise RuntimeError(
            f"DES twin paced {run.flow.sent} packets, expected {packets}"
        )

    return Verdict.build(
        backend="des",
        sent=run.flow.sent,
        released_sequences=run.seen,
        alarm_pairs=(
            (alarm.kind, alarm.branch) for alarm in testbed.alarms.alarms
        ),
        transitions=((t["event"], t["branch"]) for t in run.transitions),
        schedule=schedule.to_dict(),
        duplicates=run.flow.duplicates,
        compare=testbed.compare_core.stats.as_dict(),
        transport_stats=testbed.transport.stats(),
    )
