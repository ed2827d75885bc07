"""The live demo's worker processes (spawn-safe module-level entrypoints).

Topology (all localhost UDP, one socket per process via
:class:`~repro.transport.udp.UdpTransport`)::

    source ──fanout──▶ switch 0 ──collect──▶
    source ──fanout──▶ switch 1 ──collect──▶  compare (votes, releases)
    source ──fanout──▶ switch 2 ──collect──▶

Each switch process is one untrusted branch: it forwards every fanout
datagram to the compare tagged with its branch id, except the sequence
windows its fault schedule says to drop (a crashed router forwards
nothing).  The compare process runs the stock :class:`CompareCore` and
:class:`QuarantineController` on a :class:`RealTimeScheduler` — the same
objects, methods and thresholds the DES backend uses.

Startup is barriered with transport HELLOs: workers greet the source
until traffic arrives, and the source holds its first datagram until
every worker has greeted — otherwise a slow-to-bind switch would look
like a silently failed branch from packet zero.
"""

from __future__ import annotations

import asyncio
import traceback
from typing import Any, Dict, List, Optional

from repro.chaos.quarantine import QuarantineController
from repro.core.alarms import AlarmSink
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.live.schedule import LiveSchedule
from repro.live.verdict import Verdict
from repro.sim.trace import TraceBus
from repro.traffic.udp import _decode_payload
from repro.transport.base import ROLE_COLLECT, ROLE_FANOUT, SessionSpec
from repro.transport.realtime import RealTimeScheduler
from repro.transport.udp import UdpTransport
from repro.transport.wire import MSG_BYE, MSG_HELLO

HOST = "127.0.0.1"
HELLO_PERIOD = 0.2


# ----------------------------------------------------------------------
# switch process: one untrusted branch
# ----------------------------------------------------------------------
async def _switch_async(config: Dict[str, Any]) -> None:
    branch = int(config["branch"])
    scope = config["scope"]
    schedule = LiveSchedule.from_dict(config["schedule"])
    transport = UdpTransport((HOST, int(config["port"])), name=f"live.r{branch}")
    await transport.start()
    collect = transport.session(
        SessionSpec(scope, ROLE_COLLECT, branch),
        remote=(HOST, int(config["compare_port"])),
    )
    saw_data = asyncio.Event()
    dropped = [0]

    def on_fanout(packet: object, meta: dict) -> None:
        saw_data.set()
        seq = meta.get("seq")
        if seq is not None and schedule.drops(branch, seq):
            dropped[0] += 1
            return
        collect.send(packet, branch=branch)

    fanout = transport.session(SessionSpec(scope, ROLE_FANOUT, branch))
    fanout.set_receiver(on_fanout)

    source = (HOST, int(config["source_port"]))
    deadline = asyncio.get_running_loop().time() + float(config["deadline_s"])
    while not saw_data.is_set():
        transport.send_control(MSG_HELLO, scope, branch=branch, remote=source)
        try:
            await asyncio.wait_for(saw_data.wait(), timeout=HELLO_PERIOD)
        except asyncio.TimeoutError:
            pass
        if asyncio.get_running_loop().time() > deadline:
            transport.close()
            return
    # Forward until the orchestrator tears us down (or the deadline, as
    # a backstop against a leaked process).
    remaining = deadline - asyncio.get_running_loop().time()
    if remaining > 0:
        await asyncio.sleep(remaining)
    transport.close()


def switch_main(config: Dict[str, Any]) -> None:
    asyncio.run(_switch_async(config))


# ----------------------------------------------------------------------
# compare process: the trusted voter
# ----------------------------------------------------------------------
async def _compare_async(config: Dict[str, Any]) -> dict:
    scope = config["scope"]
    loop = asyncio.get_running_loop()
    scheduler = RealTimeScheduler(loop)
    trace_bus = TraceBus()
    alarms = AlarmSink(trace_bus)
    core = CompareCore(
        scheduler,
        CompareConfig(
            k=int(config["k"]),
            buffer_timeout=float(config["buffer_timeout"]),
            miss_threshold=int(config["miss_threshold"]),
            probation_clean_target=int(config["probation_clean_target"]),
        ),
        name="live_compare",
        alarm_sink=alarms,
        trace_bus=trace_bus,
    )
    controller = QuarantineController(core, trace_bus)

    released: List[int] = []

    def release(packet: object) -> None:
        decoded = _decode_payload(packet.payload)
        if decoded is not None:
            released.append(decoded[0])

    context = CompareContext(scope=scope, release=release, block_branch=None)

    transport = UdpTransport((HOST, int(config["port"])), name="live.compare")
    await transport.start()
    saw_data = asyncio.Event()
    done = asyncio.Event()
    submissions = [0]

    def on_collect(packet: object, meta: dict) -> None:
        # the branch is the sender's claim: the compare refuses (and
        # counts, as spoof_drops) any it does not own, None included
        saw_data.set()
        submissions[0] += 1
        core.submit(packet, meta["branch"], context, claim=meta["claim"])

    collect = transport.session(SessionSpec(scope, ROLE_COLLECT))
    collect.set_receiver(on_collect)

    def on_control(
        mtype: int, _scope: str, _branch: Optional[int], _addr: tuple
    ) -> None:
        if mtype == MSG_BYE:
            done.set()

    transport.set_control_handler(on_control)

    source = (HOST, int(config["source_port"]))

    async def hello_loop() -> None:
        while not (saw_data.is_set() or done.is_set()):
            transport.send_control(MSG_HELLO, "compare", remote=source)
            await asyncio.sleep(HELLO_PERIOD)

    greeter = asyncio.ensure_future(hello_loop())
    try:
        await asyncio.wait_for(done.wait(), timeout=float(config["deadline_s"]))
        timed_out = False
    except asyncio.TimeoutError:
        timed_out = True
    greeter.cancel()
    # Let in-flight entries expire through the sweeper so miss counts
    # and quarantine decisions settle exactly as they do mid-run.
    await asyncio.sleep(max(3.0 * core.config.buffer_timeout, 0.3))
    core.flush()
    controller.detach()
    verdict = Verdict.build(
        backend="udp",
        sent=int(config["packets"]),
        released_sequences=released,
        alarm_pairs=((alarm.kind, alarm.branch) for alarm in alarms.alarms),
        transitions=((t["event"], t["branch"]) for t in controller.transitions),
        submissions=submissions[0],
        timed_out=timed_out,
        **transport.rx_counts(),
        compare=core.stats.as_dict(),
        spoof_drops=core.spoof_drops,
        transport_stats=transport.stats(),
    )
    transport.close()
    return verdict.to_dict()


def compare_main(config: Dict[str, Any], result_q) -> None:
    try:
        result_q.put({"ok": True, "verdict": asyncio.run(_compare_async(config))})
    except Exception as exc:  # surface the real error to the orchestrator
        result_q.put(
            {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
