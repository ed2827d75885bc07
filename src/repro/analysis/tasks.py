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

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.adversary.catalogue import CONTROL, DATA, row
from repro.chaos.quarantine import QuarantineController
from repro.chaos.schedule import ChaosEngine, FaultSchedule, row_schedule
from repro.core.alarms import ALARM_DOS_SUSPECTED, ALARM_ROUTER_UNAVAILABLE
from repro.farm.spec import register_runner
from repro.live.verdict import fingerprint
from repro.scenarios.ctrlplane import CtrlParams, CtrlTestbed, build_ctrl_testbed
from repro.scenarios.datacenter import build_pod_slice, mount_attack, run_echo_test
from repro.scenarios.testbed import Testbed, TestbedParams, build_testbed
from repro.traffic.iperf import (
    DRAIN_TIME,
    drive_udp_flow,
    find_max_udp_rate,
    run_ping,
    run_tcp_flow,
    run_udp_flow,
)
from repro.traffic.udp import UdpFlowResult, UdpSender

#: every supervised flow starts this long after t = 0
WARMUP = 1e-3


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


def transition_branches(transitions: List[dict], event: str) -> List[int]:
    """The branches a quarantine log saw ``event`` ("quarantine" /
    "readmit") for, sorted."""
    return sorted({t["branch"] for t in transitions if t["event"] == event})


def first_quarantine(
    transitions: List[dict], branches: Optional[Sequence[int]] = None
) -> Optional[float]:
    """When a quarantine log first quarantined one of ``branches``
    (default: any branch); ``None`` if it never did."""
    times = [
        t["time"]
        for t in transitions
        if t["event"] == "quarantine"
        and (branches is None or t["branch"] in branches)
    ]
    return min(times) if times else None


@dataclass
class SupervisedFlow:
    """What :func:`run_supervised_flow` left behind."""

    flow: UdpFlowResult
    #: sequence numbers the receiver saw at least once
    seen: Set[int]
    #: sequence ``s`` departed at ``WARMUP + s * interval``
    interval: float
    #: the quarantine loop's ordered log: dicts of time/event/branch
    transitions: List[dict]
    #: the armed engine: applied faults, strategy behaviours, schedule
    engine: ChaosEngine

    def undelivered(self, start: float, end: float = float("inf")) -> int:
        """Datagrams that departed in ``[start, end)`` and never arrived.

        The sender paces deterministically, so the departure time of each
        sequence number is known without a log.
        """
        return sum(
            1
            for s in range(self.flow.sent)
            if start <= WARMUP + s * self.interval < end and s not in self.seen
        )


def run_supervised_flow(
    testbed: Testbed,
    schedule: FaultSchedule,
    thresholds: Dict[str, Any],
    rate_bps: float,
    duration: float,
    payload_size: int,
    trigger_kinds: Sequence[str] = (ALARM_ROUTER_UNAVAILABLE,),
    send_cost: Optional[float] = None,
    drain: float = DRAIN_TIME,
) -> SupervisedFlow:
    """One UDP flow h1 → h2 through a freshly built testbed of any
    realisation with a compare element, under ``schedule`` and a
    quarantine loop.

    ``thresholds`` are :class:`~repro.core.compare.CompareConfig` knobs
    the compare reads dynamically, so setting them after the build is
    safe (``buffer_timeout`` is not: it goes into the testbed params).
    The loop quarantines on ``trigger_kinds``; the engine resolves the
    handle's ``r{i}`` / ``link_a{i}`` / ``link_b{i}`` aliases and hands the
    compare to the strategies that time themselves against it.  ``send_cost``
    defaults to the testbed's calibrated per-datagram sender cost.
    """
    net = testbed.network
    core = testbed.compare_core
    if core is None:
        raise ValueError(f"variant {testbed.variant!r} has no compare element")
    for knob, value in thresholds.items():
        setattr(core.config, knob, value)
    controller = QuarantineController(core, net.trace, trigger_kinds=trigger_kinds)
    engine = ChaosEngine(
        schedule, net, aliases=testbed.aliases(), compare_core=core
    )
    engine.arm()
    if send_cost is None:
        send_cost = testbed.params.udp_send_cost
    sender, receiver = drive_udp_flow(
        testbed.path(),
        rate_bps,
        duration,
        payload_size,
        send_cost=send_cost,
        warmup=WARMUP,
        drain=drain,
    )
    controller.detach()
    return SupervisedFlow(
        flow=receiver.result(sender, duration),
        seen=receiver.received_sequences(),
        interval=sender.interval,
        transitions=controller.transitions,
        engine=engine,
    )


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
    run = run_supervised_flow(
        testbed,
        FaultSchedule.from_dict(schedule),
        {
            "miss_threshold": miss_threshold,
            "probation_clean_target": probation_clean_target,
        },
        rate_bps=rate_mbps * 1e6,
        duration=duration,
        payload_size=payload_size,
    )
    flow = run.flow
    quarantined_at = first_quarantine(run.transitions)
    return {
        "variant": variant,
        "schedule": run.engine.schedule.name,
        "seed": seed,
        "sent": flow.sent,
        "received": flow.received_unique,
        "duplicates": flow.duplicates,
        "lost": flow.lost,
        "loss_rate": flow.loss_rate,
        "injections": run.engine.injections,
        "transitions": run.transitions,
        "quarantined": transition_branches(run.transitions, "quarantine"),
        "readmitted": transition_branches(run.transitions, "readmit"),
        "post_quarantine_gaps": (
            None if quarantined_at is None else run.undelivered(quarantined_at)
        ),
        "alarms": testbed.alarms.counts(),
        "compare": testbed.compare_core.stats.as_dict(),
    }


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
    """One UDP flow through a combiner testbed under one advbench row (a
    data-plane row of ``repro.adversary.catalogue.ROWS``).

    The detection-latency record behind the advbench table:
    time-to-first-alarm, time-to-quarantine, packets leaked before the
    first quarantine, masked damage (corrupted datagrams the voter
    released — the canonical corruption lands in the UDP sequence
    header, so any tampered datagram that reaches the receiver decodes
    to an alien sequence number far above anything actually sent; only
    payload corruption shows there), and the false-quarantine count over
    honest branches.
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
    k = len(testbed.routers)
    until = WARMUP + duration
    run = run_supervised_flow(
        testbed,
        # An activation scheduled past the flow's end (the honest control)
        # drops the deactivation event: the strategy never fires anyway.
        row_schedule(
            row(DATA, adversary), k, activate_at,
            until=until if activate_at < until else None,
        ),
        {knob: value for knob, value in prof.items() if knob != "buffer_timeout"},
        rate_bps=rate_mbps * 1e6,
        duration=duration,
        payload_size=payload_size,
        # A lying branch that keeps voting never goes *missing*; it
        # surfaces through single-source expiries escalating to the
        # crafted-flood DoS alarm, so the quarantine loop listens for
        # both alarm kinds.
        trigger_kinds=(ALARM_ROUTER_UNAVAILABLE, ALARM_DOS_SUSPECTED),
    )
    flow, transitions = run.flow, run.transitions

    armed = run.engine.adversaries.values()
    adversary_branches = sorted(a.branch for a in armed)
    tampered = sum(a.packets_tampered for a in armed)
    active_seconds = sum(a.active_seconds for a in armed)

    attack_alarms = [
        a for a in testbed.alarms.alarms if a.time >= activate_at
    ]
    time_to_first_alarm = None
    first_alarm_kind = None
    if attack_alarms:
        first = min(attack_alarms, key=lambda a: a.time)
        time_to_first_alarm = first.time - activate_at
        first_alarm_kind = first.kind

    adversary_quarantined_at = first_quarantine(transitions, adversary_branches)
    honest_branches = [b for b in range(k) if b not in adversary_branches]
    honest_quarantines = [
        t
        for t in transitions
        if t["event"] == "quarantine" and t["branch"] in honest_branches
    ]
    falsely_quarantined = transition_branches(honest_quarantines, "quarantine")

    return {
        "variant": variant,
        "k": k,
        "quorum": testbed.compare_core.config.effective_quorum(),
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
        "detection_latency": (
            None
            if adversary_quarantined_at is None
            else adversary_quarantined_at - activate_at
        ),
        # Attack-window datagrams not delivered intact before the first
        # adversary-branch quarantine; with an honest quorum every one is
        # outvoted and this stays 0.
        "packets_leaked_before_quarantine": run.undelivered(
            activate_at,
            until if adversary_quarantined_at is None else adversary_quarantined_at,
        ),
        # a released corrupt datagram decodes as an alien sequence number
        "masked_damage": sum(1 for s in run.seen if s >= flow.sent),
        "false_quarantines": len(honest_quarantines),
        "falsely_quarantined": falsely_quarantined,
        "false_quarantine_rate": (
            len(falsely_quarantined) / len(honest_branches)
            if honest_branches
            else 0.0
        ),
        "quarantined": transition_branches(transitions, "quarantine"),
        "readmitted": transition_branches(transitions, "readmit"),
        "transitions": transitions,
        "injections": run.engine.injections,
        "alarms": testbed.alarms.counts(),
        "compare": testbed.compare_core.stats.as_dict(),
    }


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

    schedule = row_schedule(row(CONTROL, adversary), tb.ctrl.ctrl_k)
    engine = None
    if schedule is not None:
        engine = ChaosEngine(
            schedule,
            net,
            aliases=tb.testbed.aliases(),
            control_plane=tb.control_plane,
        )
        engine.arm()

    send_cost = tb.testbed.params.udp_send_cost
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
        send_cost=send_cost,
    )
    primer.start(1e-6, delay=2e-4)

    sender, receiver = drive_udp_flow(
        tb.testbed.path(),
        rate_bps,
        duration,
        payload_size,
        send_cost=send_cost,
        warmup=WARMUP,
        drain=drain,
    )
    if tb.quarantine is not None:
        tb.quarantine.detach()
    tb.control_plane.compare.flush()
    return (
        receiver.result(sender, duration),
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

    transitions = tb.quarantine.transitions if tb.quarantine is not None else []
    quarantined_at = first_quarantine(transitions)
    detection_latency = None
    if quarantined_at is not None and injections:
        detection_latency = quarantined_at - min(i["time"] for i in injections)

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
        # The bit-identity artefact: a digest of exactly which datagrams
        # the receiver saw.  Equal fingerprints == identical data-plane
        # outcome.
        "data_fingerprint": fingerprint(sequences),
        "malicious_emitted": malicious_emitted,
        "malicious_installed": malicious_installed,
        "detection_latency": detection_latency,
        "ctrl_quarantined": transition_branches(transitions, "quarantine"),
        "ctrl_readmitted": transition_branches(transitions, "readmit"),
        "transitions": transitions,
        "injections": injections,
        "alarms": tb.testbed.alarms.counts(),
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


#: the three Section VI scenario runs, in the paper's order
CASESTUDY_RUNS = ("baseline", "attack", "protected")


@register_runner("casestudy.run")
def casestudy_run(
    run: str,
    seed: int,
    echo_count: int = 10,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One Section VI scenario run on the fat-tree pod slice; returns the
    ``asdict`` form of its ``CaseStudyResult``.  The protected run is the
    registered ``fattree_shielded3`` with replica r2 compromised.
    ``params`` is the farm's uniform kwarg, unused: the slice keeps its
    own constants."""
    if run not in CASESTUDY_RUNS:
        raise ValueError(
            f"unknown case-study run {run!r} (known: {list(CASESTUDY_RUNS)})"
        )
    if run == "protected":
        testbed = build_testbed("fattree_shielded3", seed=seed)
        network, agg1 = testbed.network, testbed.chain
    else:
        network, agg1 = build_pod_slice(seed)
    if run != "baseline":
        mount_attack(network, agg1)
    return asdict(run_echo_test(network, agg1, run, echo_count))
