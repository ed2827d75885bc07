"""Atomic farm tasks: the per-sample work items behind each figure.

Each function runs ONE independent simulation (one testbed build, one
flow or ping sequence) and returns a JSON-serialisable value, so it can
execute in a worker process and be cached on disk.  ``params`` travels
as the ``dataclasses.asdict`` form of :class:`TestbedParams` (or
``None`` for the calibrated defaults); the same parameter set drives
both the topology build and per-flow costs like ``udp_send_cost``, so
they cannot diverge.

The figure plans in :mod:`repro.plan.builtin` expand into lists of
:class:`~repro.farm.spec.RunSpec` over these tasks, folded back by the
pure merge recipes of :mod:`repro.plan.mergers`.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import (
    AdversaryStrategy,
    ChaosEngine,
    ControllerCompromise,
    ControllerCrash,
    FaultSchedule,
    QuarantineController,
)
from repro.core.alarms import ALARM_DOS_SUSPECTED, ALARM_ROUTER_UNAVAILABLE
from repro.farm.spec import register_runner
from repro.scenarios.ctrlplane import CtrlParams, CtrlTestbed, build_ctrl_testbed
from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.iperf import (
    DRAIN_TIME,
    find_max_udp_rate,
    run_ping,
    run_tcp_flow,
    run_udp_flow,
)
from repro.traffic.udp import UdpFlowResult, UdpReceiver, UdpSender


def params_to_dict(params: Optional[TestbedParams]) -> Optional[Dict[str, Any]]:
    """Serialisable form of testbed parameters for spec kwargs."""
    return asdict(params) if params is not None else None


def params_from_dict(data: Optional[Dict[str, Any]]) -> TestbedParams:
    return TestbedParams(**data) if data else TestbedParams()


def build_scenario(
    variant: str,
    params: Any = None,
    seed: int = 0,
):
    """The one scenario-building path every farm task goes through.

    ``params`` may be ``None`` (calibrated defaults), the JSON dict form
    a :class:`~repro.farm.spec.RunSpec` carries (full *or* partial —
    unset fields keep their defaults), or an already-built
    :class:`TestbedParams`.  The variant is resolved through the
    scenario registry, so an unknown name fails with the registry's
    canonical message before any simulation work starts.
    """
    if not isinstance(params, TestbedParams):
        params = params_from_dict(params)
    return build_testbed(variant, params=params, seed=seed)


@register_runner("fig4.tcp")
def tcp_throughput_sample(
    variant: str,
    duration: float,
    reverse: bool,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
) -> float:
    """One TCP bulk-transfer run; returns throughput in Mbit/s."""
    testbed = build_scenario(variant, params, seed)
    path = testbed.path(reverse=reverse)
    return run_tcp_flow(path, duration=duration).throughput_mbps


@register_runner("fig5.udp_max")
def udp_max_rate_search(
    variant: str,
    duration: float,
    iterations: int,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """The paper's 'adjust -b until a maximum is reached' search for
    one scenario; each probe uses a fresh testbed instance."""
    base = params_from_dict(params)
    rate, result = find_max_udp_rate(
        lambda: build_scenario(variant, base, seed).path(),
        duration=duration,
        iterations=iterations,
        send_cost=base.udp_send_cost,
    )
    return {
        "mbps": result.throughput_mbps,
        "loss_rate": result.loss_rate,
        "rate_bps": rate,
    }


@register_runner("fig6.udp_point")
def udp_offered_point(
    rate_mbps: float,
    duration: float,
    seed: int,
    variant: str = "central3",
    params: Optional[Dict[str, Any]] = None,
) -> List[float]:
    """One offered-rate point of the loss sweep:
    ``[offered_mbps, goodput_mbps, loss_rate]``."""
    base = params_from_dict(params)
    result = run_udp_flow(
        build_scenario(variant, base, seed).path(),
        rate_bps=rate_mbps * 1e6,
        duration=duration,
        send_cost=base.udp_send_cost,
    )
    return [rate_mbps, result.throughput_mbps, result.loss_rate]


@register_runner("fig7.rtt")
def rtt_sample(
    variant: str,
    count: int,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
) -> float:
    """One sequence of ``count`` echo cycles; returns average RTT (ms)."""
    testbed = build_scenario(variant, params, seed)
    return run_ping(testbed.path(), count=count, interval=1e-3).avg_rtt_ms


def chaos_aliases(testbed) -> Dict[str, str]:
    """Schedule-target aliases for a combiner testbed: ``r{i}`` is branch
    i's router, ``link_a{i}``/``link_b{i}`` its ingress/egress link."""
    chain = testbed.chain
    aliases: Dict[str, str] = {}
    for i, router in enumerate(chain.routers):
        aliases[f"r{i}"] = router.name
        aliases[f"link_a{i}"] = f"{chain.endpoint_a.name}-{router.name}"
        aliases[f"link_b{i}"] = f"{router.name}-{chain.endpoint_b.name}"
    return aliases


@register_runner("chaos.run")
def chaos_run(
    schedule: Dict[str, Any],
    seed: int,
    variant: str = "central3",
    duration: float = 0.05,
    rate_mbps: float = 20.0,
    payload_size: int = 1470,
    miss_threshold: int = 8,
    probation_clean_target: int = 12,
    buffer_timeout: float = 2e-3,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One UDP flow through a combiner testbed under a fault schedule.

    Returns the full survivability record: flow loss, the injected fault
    timeline, quarantine/readmit transitions, and the post-quarantine
    delivery gap count (the acceptance metric: a healthy self-healing
    combiner shows ``post_quarantine_gaps == 0``).
    """
    base = replace(params_from_dict(params), compare_buffer_timeout=buffer_timeout)
    testbed = build_scenario(variant, base, seed)
    net = testbed.network
    core = testbed.compare_core
    # Availability knobs are read dynamically by the compare, so tuning
    # them post-build is safe (buffer_timeout is not: set above).
    core.config.miss_threshold = miss_threshold
    core.config.probation_clean_target = probation_clean_target

    controller = QuarantineController(core, net.trace)
    engine = ChaosEngine(
        FaultSchedule.from_dict(schedule), net, aliases=chaos_aliases(testbed)
    )
    engine.arm()

    warmup = 1e-3
    dport = 5001
    receiver = UdpReceiver(testbed.h2, dport)
    sender = UdpSender(
        testbed.h1,
        dst_mac=testbed.h2.mac,
        dst_ip=testbed.h2.ip,
        dport=dport,
        rate_bps=rate_mbps * 1e6,
        payload_size=payload_size,
        send_cost=base.udp_send_cost,
    )
    sender.start(duration, delay=warmup)
    net.run(until=warmup + duration + DRAIN_TIME)
    flow = receiver.result(sender, duration)
    receiver.close()
    controller.detach()

    # Post-quarantine gap analysis: the sender paces deterministically
    # (seq i departs at warmup + i * interval), so the datagrams offered
    # after the first quarantine are exactly the seqs >= the cutoff.
    quarantine_times = [
        t["time"] for t in controller.transitions if t["event"] == "quarantine"
    ]
    post_quarantine_gaps = None
    if quarantine_times:
        first_q = min(quarantine_times)
        seen = receiver.received_sequences()
        interval = sender.interval
        post = [
            s for s in range(sender.sent) if warmup + s * interval >= first_q
        ]
        post_quarantine_gaps = sum(1 for s in post if s not in seen)

    return {
        "variant": variant,
        "schedule": engine.schedule.name,
        "seed": seed,
        "sent": flow.sent,
        "received": flow.received_unique,
        "duplicates": flow.duplicates,
        "lost": flow.lost,
        "loss_rate": flow.loss_rate,
        "injections": engine.injections,
        "transitions": controller.transitions,
        "quarantined": sorted(
            {t["branch"] for t in controller.transitions if t["event"] == "quarantine"}
        ),
        "readmitted": sorted(
            {t["branch"] for t in controller.transitions if t["event"] == "readmit"}
        ),
        "post_quarantine_gaps": post_quarantine_gaps,
        "alarms": testbed.chain.alarms.counts(),
        "compare": core.stats.as_dict(),
    }


#: the adversary axis of the advbench sweep.  ``sampled_p<digits>``
#: encodes the corruption probability (p001 -> 0.001, p1 -> 0.1);
#: ``colluding_minority`` compromises quorum-1 branches with identical
#: wrong wire images, ``colluding_quorum`` compromises a full quorum —
#: the negative-control row where the voter *must* admit damage.
ADVBENCH_ADVERSARIES = (
    "sampled_p001",
    "sampled_p01",
    "sampled_p1",
    "probation_evader",
    "sweep_timed",
    "path_inconsistency",
    "colluding_minority",
    "colluding_quorum",
)

#: compare timing/threshold profiles swept by advbench.  Only *when*
#: detection triggers varies — the vote policy stays bit-exact in every
#: profile, so sub-quorum masked damage must be 0 in all rows.
#: ``block_duration`` is kept short so a quarantined-but-quiet branch's
#: clean copies reach the compare and probation can actually progress.
COMPARE_PROFILES: Dict[str, Dict[str, Any]] = {
    "balanced": {
        "buffer_timeout": 2e-3,
        "miss_threshold": 8,
        "craft_threshold": 48,
        "probation_clean_target": 12,
        "block_duration": 2e-3,
    },
    "vigilant": {
        "buffer_timeout": 1e-3,
        "miss_threshold": 4,
        "craft_threshold": 16,
        "probation_clean_target": 24,
        "block_duration": 1e-3,
    },
}


def advbench_schedule(
    adversary: str,
    k: int,
    activate_at: float,
    until: Optional[float] = None,
) -> FaultSchedule:
    """The fault schedule behind one advbench adversary row.

    Single-branch strategies target ``r1``; collusion rows target
    ``r0..r{m-1}`` with m = quorum-1 (minority) or m = quorum (the
    negative control).
    """
    quorum = k // 2 + 1
    if adversary.startswith("sampled_p"):
        rate = float("0." + adversary[len("sampled_p"):])
        spec = [("r1", {"strategy": "sampled_corruption", "rate": rate})]
    elif adversary == "probation_evader":
        spec = [("r1", {"strategy": "probation_evader"})]
    elif adversary == "sweep_timed":
        spec = [("r1", {"strategy": "sweep_timed"})]
    elif adversary == "path_inconsistency":
        spec = [("r1", {"strategy": "path_inconsistency", "pace": 3})]
    elif adversary == "colluding_minority":
        spec = [(f"r{i}", {"strategy": "colluding_minority"}) for i in range(quorum - 1)]
    elif adversary == "colluding_quorum":
        spec = [(f"r{i}", {"strategy": "colluding_minority"}) for i in range(quorum)]
    else:
        raise ValueError(
            f"unknown advbench adversary {adversary!r} "
            f"(known: {list(ADVBENCH_ADVERSARIES)})"
        )
    events = [
        AdversaryStrategy(activate_at, target, until=until, **kwargs)
        for target, kwargs in spec
    ]
    return FaultSchedule(events, name=adversary)


@register_runner("adv.run")
def adversary_run(
    seed: int,
    variant: str = "central3",
    adversary: str = "sampled_p1",
    profile: str = "balanced",
    duration: float = 0.03,
    rate_mbps: float = 20.0,
    payload_size: int = 512,
    activate_at: float = 0.005,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One UDP flow through a combiner testbed under one adversary strategy.

    The detection-latency record behind the advbench table:
    time-to-first-alarm, time-to-quarantine, packets leaked before the
    first quarantine, masked damage (corrupted datagrams the voter
    released — the canonical corruption lands in the UDP sequence
    header, so any tampered datagram that reaches the receiver decodes
    to an alien sequence number far above anything actually sent), and
    the false-quarantine count over honest branches.
    """
    prof = COMPARE_PROFILES.get(profile)
    if prof is None:
        raise ValueError(
            f"unknown compare profile {profile!r} (known: {sorted(COMPARE_PROFILES)})"
        )
    base = replace(
        params_from_dict(params), compare_buffer_timeout=prof["buffer_timeout"]
    )
    testbed = build_scenario(variant, base, seed)
    net = testbed.network
    core = testbed.compare_core
    if core is None:
        raise ValueError(f"variant {variant!r} has no compare element")
    # Threshold knobs are read dynamically by the compare, so tuning
    # them post-build is safe (buffer_timeout is not: set above).
    core.config.miss_threshold = prof["miss_threshold"]
    core.config.craft_threshold = prof["craft_threshold"]
    core.config.probation_clean_target = prof["probation_clean_target"]
    core.config.block_duration = prof["block_duration"]
    k = len(testbed.chain.routers)

    warmup = 1e-3
    until = warmup + duration
    # A lying branch that keeps voting never goes *missing*; it surfaces
    # through single-source expiries escalating to the crafted-flood DoS
    # alarm, so the quarantine loop listens for both alarm kinds.
    controller = QuarantineController(
        core,
        net.trace,
        trigger_kinds=(ALARM_ROUTER_UNAVAILABLE, ALARM_DOS_SUSPECTED),
    )
    # An activation scheduled past the flow's end (the honest control)
    # drops the deactivation event: the strategy never fires anyway.
    engine = ChaosEngine(
        advbench_schedule(
            adversary, k, activate_at,
            until=until if activate_at < until else None,
        ),
        net,
        aliases=chaos_aliases(testbed),
        compare_core=core,
    )
    engine.arm()

    dport = 5001
    receiver = UdpReceiver(testbed.h2, dport)
    sender = UdpSender(
        testbed.h1,
        dst_mac=testbed.h2.mac,
        dst_ip=testbed.h2.ip,
        dport=dport,
        rate_bps=rate_mbps * 1e6,
        payload_size=payload_size,
        send_cost=base.udp_send_cost,
    )
    sender.start(duration, delay=warmup)
    net.run(until=warmup + duration + DRAIN_TIME)
    flow = receiver.result(sender, duration)
    receiver.close()
    controller.detach()

    strategies = engine.strategy_behaviors.values()
    adversary_branches = sorted(s.branch for s in strategies)
    tampered = sum(s.packets_tampered for s in strategies)
    active_seconds = sum(s.active_seconds for s in strategies)

    alarms = testbed.chain.alarms.alarms
    attack_alarms = [a for a in alarms if a.time >= activate_at]
    time_to_first_alarm = None
    first_alarm_kind = None
    if attack_alarms:
        first = min(attack_alarms, key=lambda a: a.time)
        time_to_first_alarm = first.time - activate_at
        first_alarm_kind = first.kind

    transitions = controller.transitions
    adversary_q_times = [
        t["time"]
        for t in transitions
        if t["event"] == "quarantine" and t["branch"] in adversary_branches
    ]
    detection_latency = (
        min(adversary_q_times) - activate_at if adversary_q_times else None
    )
    honest_branches = [b for b in range(k) if b not in adversary_branches]
    false_quarantines = sum(
        1
        for t in transitions
        if t["event"] == "quarantine" and t["branch"] in honest_branches
    )
    falsely_quarantined = sorted(
        {
            t["branch"]
            for t in transitions
            if t["event"] == "quarantine" and t["branch"] in honest_branches
        }
    )
    false_quarantine_rate = (
        len(falsely_quarantined) / len(honest_branches) if honest_branches else 0.0
    )

    # Damage accounting off the receiver's sequence log.  Intact seqs are
    # < sender.sent; a released corrupt datagram decodes as an alien seq.
    seen = receiver.received_sequences()
    masked_damage = sum(1 for s in seen if s >= flow.sent)
    intact = {s for s in seen if s < flow.sent}
    # Leaked = attack-window datagrams (sent deterministically at
    # warmup + s * interval) not delivered intact before the first
    # adversary-branch quarantine; with an honest quorum every one is
    # outvoted and leaked stays 0.
    interval = sender.interval
    window_end = min(adversary_q_times) if adversary_q_times else until
    leaked = sum(
        1
        for s in range(flow.sent)
        if activate_at <= warmup + s * interval < window_end and s not in intact
    )

    return {
        "variant": variant,
        "k": k,
        "quorum": core.config.effective_quorum(),
        "adversary": adversary,
        "profile": profile,
        "seed": seed,
        "adversary_branches": adversary_branches,
        "activate_at": activate_at,
        "sent": flow.sent,
        "received": flow.received_unique,
        "duplicates": flow.duplicates,
        "lost": flow.lost,
        "loss_rate": flow.loss_rate,
        "tampered": tampered,
        "adversary_active_seconds": active_seconds,
        "time_to_first_alarm": time_to_first_alarm,
        "first_alarm_kind": first_alarm_kind,
        "detection_latency": detection_latency,
        "packets_leaked_before_quarantine": leaked,
        "masked_damage": masked_damage,
        "false_quarantines": false_quarantines,
        "falsely_quarantined": falsely_quarantined,
        "false_quarantine_rate": false_quarantine_rate,
        "quarantined": sorted(
            {t["branch"] for t in transitions if t["event"] == "quarantine"}
        ),
        "readmitted": sorted(
            {t["branch"] for t in transitions if t["event"] == "readmit"}
        ),
        "transitions": transitions,
        "injections": engine.injections,
        "alarms": testbed.chain.alarms.counts(),
        "compare": core.stats.as_dict(),
    }


#: the adversary axis of the ctrlbft sweep.  The fault always targets
#: replica ``c1`` when it exists (c0 at ctrl_k=1, giving the
#: *unprotected* baseline: a lone lying controller installs its lies).
CTRL_ADVERSARIES = ("none", "crash", "lying")


def _ctrl_adversary_schedule(adversary: str, ctrl_k: int) -> Optional[FaultSchedule]:
    target = f"c{min(1, ctrl_k - 1)}"
    if adversary == "none":
        return None
    if adversary == "crash":
        return FaultSchedule(
            [ControllerCrash(0.012, target, restart_at=0.030)],
            name="ctrl_crash",
        )
    if adversary == "lying":
        return FaultSchedule(
            [ControllerCompromise(0.010, target, strategy="blackhole")],
            name="ctrl_lying",
        )
    raise ValueError(
        f"unknown control-plane adversary {adversary!r} "
        f"(known: {list(CTRL_ADVERSARIES)})"
    )


def drive_ctrl_flow(
    tb: CtrlTestbed,
    adversary: str,
    rate_bps: float,
    payload_size: int,
    duration: float,
    drain: float,
) -> Tuple[UdpFlowResult, List[int], List[dict]]:
    """Run the ctrlbft traffic pattern on a built control-plane testbed.

    Arms ``adversary``'s fault schedule, sends the reverse primer, then
    one forward UDP flow h1 → h2 for ``duration``, runs ``drain`` longer,
    detaches the quarantine loop and flushes the voter.  Returns the flow
    result, the sorted sequence numbers h2 received and the engine's
    applied-fault timeline (empty without an adversary).
    """
    net = tb.network
    base = tb.testbed.params

    schedule = _ctrl_adversary_schedule(adversary, tb.ctrl.ctrl_k)
    engine = None
    if schedule is not None:
        engine = ChaosEngine(
            schedule,
            net,
            aliases=chaos_aliases(tb.testbed),
            control_plane=tb.control_plane,
        )
        engine.arm()

    # One reverse datagram teaches every replica h2's port before the
    # forward flow starts, so forward decisions are FlowMod installs
    # (votable, and worth lying about) instead of endless floods.
    primer = UdpSender(
        tb.h2,
        dst_mac=tb.h1.mac,
        dst_ip=tb.h1.ip,
        dport=5002,
        rate_bps=rate_bps,
        payload_size=64,
        send_cost=base.udp_send_cost,
    )
    primer.start(1e-6, delay=2e-4)

    warmup = 1e-3
    dport = 5001
    receiver = UdpReceiver(tb.h2, dport)
    sender = UdpSender(
        tb.h1,
        dst_mac=tb.h2.mac,
        dst_ip=tb.h2.ip,
        dport=dport,
        rate_bps=rate_bps,
        payload_size=payload_size,
        send_cost=base.udp_send_cost,
    )
    sender.start(duration, delay=warmup)
    net.run(until=warmup + duration + drain)
    flow = receiver.result(sender, duration)
    receiver.close()
    if tb.quarantine is not None:
        tb.quarantine.detach()
    tb.control_plane.compare.flush()
    return (
        flow,
        sorted(receiver.received_sequences()),
        engine.injections if engine is not None else [],
    )


@register_runner("ctrl.run")
def ctrl_run(
    seed: int,
    variant: str = "central3",
    ctrl_k: int = 3,
    adversary: str = "none",
    duration: float = 0.04,
    rate_mbps: float = 10.0,
    payload_size: int = 512,
    vote_timeout: float = 2e-3,
    miss_threshold: int = 4,
    probation_clean_target: int = 6,
    flow_hard_timeout: float = 5e-3,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One UDP flow under a replicated control plane and one adversary.

    Returns the BFT record: flow loss, a fingerprint of the exact
    data-plane delivery (bit-identity across ctrl_k is the acceptance
    check), vote/blocked counters, the quarantine timeline and the
    detection latency from fault injection to quarantine.
    """
    ctrl = CtrlParams(
        ctrl_k=ctrl_k,
        vote_timeout=vote_timeout,
        miss_threshold=miss_threshold,
        probation_clean_target=probation_clean_target,
        flow_hard_timeout=flow_hard_timeout,
    )
    tb = build_ctrl_testbed(variant, ctrl=ctrl, params=params_from_dict(params), seed=seed)
    flow, sequences, injections = drive_ctrl_flow(
        tb, adversary, rate_mbps * 1e6, payload_size, duration, DRAIN_TIME
    )

    # The bit-identity artefact: a digest of exactly which datagrams the
    # receiver saw.  Equal fingerprints == identical data-plane outcome.
    fingerprint = hashlib.sha256(
        ",".join(str(s) for s in sequences).encode("ascii")
    ).hexdigest()[:16]

    transitions = tb.quarantine.transitions if tb.quarantine is not None else []
    quarantine_times = [t["time"] for t in transitions if t["event"] == "quarantine"]
    detection_latency = None
    if quarantine_times and injections:
        detection_latency = min(quarantine_times) - min(i["time"] for i in injections)

    handles = tb.control_plane.replica_stats()
    malicious_emitted = sum(h["malicious_emitted"] for h in handles)
    if ctrl_k >= 2:
        # The voter's accounting of lies that assembled a majority.
        malicious_installed = tb.compare.stats.malicious_released
    else:
        # Pass-through: every lie the lone replica emitted was installed.
        malicious_installed = malicious_emitted

    return {
        "variant": variant,
        "ctrl_k": ctrl_k,
        "adversary": adversary,
        "seed": seed,
        "sent": flow.sent,
        "received": flow.received_unique,
        "duplicates": flow.duplicates,
        "lost": flow.lost,
        "loss_rate": flow.loss_rate,
        "data_fingerprint": fingerprint,
        "malicious_emitted": malicious_emitted,
        "malicious_installed": malicious_installed,
        "detection_latency": detection_latency,
        "ctrl_quarantined": sorted(
            {t["branch"] for t in transitions if t["event"] == "quarantine"}
        ),
        "ctrl_readmitted": sorted(
            {t["branch"] for t in transitions if t["event"] == "readmit"}
        ),
        "transitions": transitions,
        "injections": injections,
        "alarms": tb.testbed.chain.alarms.counts(),
        "ctrl": tb.compare.stats.as_dict(),
        "replicas": handles,
    }


@register_runner("fig8.jitter")
def jitter_sample(
    variant: str,
    payload_size: int,
    rate_mbps: float,
    duration: float,
    seed: int,
    params: Optional[Dict[str, Any]] = None,
) -> float:
    """One fixed-bitrate UDP run; returns RFC 3550 jitter (ms)."""
    result = run_udp_flow(
        build_scenario(variant, params, seed).path(),
        rate_bps=rate_mbps * 1e6,
        duration=duration,
        payload_size=payload_size,
    )
    return result.jitter_ms
