"""Built-in plans: every paper figure/table as an ExperimentPlan.

These builders are the single source of truth for the evaluation grids.
Three consumers share them:

* library callers (benchmarks, examples, tests):
  ``fig7_plan(count=20).run(farm)`` or ``builtin_plan(name, quick=...)``;
* the CLI: ``repro X`` is ``repro plan run X``, both
  ``builtin_plan(name, quick=...)``;
* the checked-in JSON artefacts under ``examples/plans/`` (each file is
  exactly ``builtin_plan(name).to_json()``; a test pins the bytes).

``params`` arguments are the literal task-kwarg value: ``None`` for the
calibrated defaults or a ``TestbedParams`` field dict.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.plan.plan import ExperimentPlan, PlanStage
from repro.scenarios.registry import (
    figure_scenarios,
    require_compare,
    table1_scenarios,
)
from repro.scenarios.testbed import TestbedParams

__all__ = [
    "jitter_params",
    "fig4_plan",
    "fig5_plan",
    "fig6_plan",
    "fig7_plan",
    "fig8_plan",
    "chaos_plan",
    "ctrlbft_plan",
    "advbench_plan",
    "casestudy_plan",
    "virtualized_plan",
    "table1_plan",
    "smoke_plan",
    "builtin_plan",
    "builtin_plan_names",
    "QUICK_SETTINGS",
]


def jitter_params(base: Optional[TestbedParams] = None) -> TestbedParams:
    """Parameters that expose the compare-cache cleanup mechanism.

    The paper explains Figure 8 by cache pressure: many small packets
    fill the compare's packet cache, each cleanup stalls the compare,
    and the stalls surface as jitter.  A small cache and a longer buffer
    timeout make the mechanism visible at the benchmark's packet rates.
    """
    base = base or TestbedParams()
    return replace(
        base,
        compare_cache_capacity=32,
        compare_buffer_timeout=20e-3,
    )


def _seed_range(seed: int, repetitions: int) -> List[int]:
    return [seed + rep for rep in range(repetitions)]


# ----------------------------------------------------------------------
# stage builders (shared between single-figure plans and Table I)
# ----------------------------------------------------------------------
def _tcp_stage(
    scenarios: Sequence[str],
    duration: float,
    repetitions: int,
    seed: int,
    params: Optional[Dict[str, Any]],
    name: str = "tcp",
) -> PlanStage:
    return PlanStage(
        name=name,
        task="fig4.tcp",
        scenarios=list(scenarios),
        args={"duration": duration},
        # alternate directions as the paper's 10+10 design does
        rep_args={"reverse": [False, True]},
        seeds=_seed_range(seed, repetitions),
        params=params,
        merge={
            "kind": "mean_record",
            "experiment": "Figure 4",
            "description": "TCP throughput",
            "metric": "tcp_mbps",
            "unit": "Mbit/s",
        },
    )


def _udp_max_stage(
    scenarios: Sequence[str],
    duration: float,
    iterations: int,
    seed: int,
    params: Optional[Dict[str, Any]],
    name: str = "udp",
) -> PlanStage:
    return PlanStage(
        name=name,
        task="fig5.udp_max",
        scenarios=list(scenarios),
        args={"duration": duration, "iterations": iterations},
        seeds=[seed],
        params=params,
        merge={
            "kind": "udp_max_record",
            "experiment": "Figure 5",
            "description": "max UDP throughput at loss < 0.5%",
            "metric": "udp_mbps",
            "unit": "Mbit/s",
        },
    )


def _rtt_stage(
    scenarios: Sequence[str],
    count: int,
    sequences: int,
    seed: int,
    params: Optional[Dict[str, Any]],
    name: str = "rtt",
) -> PlanStage:
    return PlanStage(
        name=name,
        task="fig7.rtt",
        scenarios=list(scenarios),
        args={"count": count},
        seeds=_seed_range(seed, sequences),
        params=params,
        merge={
            "kind": "mean_record",
            "experiment": "Figure 7",
            "description": "ping round-trip time",
            "metric": "rtt_ms",
            "unit": "ms",
        },
    )


# ----------------------------------------------------------------------
# the figure plans
# ----------------------------------------------------------------------
def fig4_plan(
    scenarios: Optional[Sequence[str]] = None,
    duration: float = 0.15,
    repetitions: int = 2,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    return ExperimentPlan(
        name="fig4",
        description="Figure 4: TCP bulk throughput per scenario, "
                    "alternating transfer direction per repetition.",
        stages=[_tcp_stage(
            scenarios if scenarios is not None else figure_scenarios(),
            duration, repetitions, seed, params,
        )],
    )


def fig5_plan(
    scenarios: Optional[Sequence[str]] = None,
    duration: float = 0.08,
    iterations: int = 8,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    return ExperimentPlan(
        name="fig5",
        description="Figure 5: the paper's 'adjust -b until a maximum is "
                    "reached' UDP search per scenario.",
        stages=[_udp_max_stage(
            scenarios if scenarios is not None else figure_scenarios(),
            duration, iterations, seed, params,
        )],
    )


def fig6_plan(
    offered_mbps: Sequence[float] = (60, 120, 180, 210, 230, 250, 270, 300, 350),
    duration: float = 0.08,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
    variant: str = "central3",
) -> ExperimentPlan:
    return ExperimentPlan(
        name="fig6",
        description="Figure 6: offered UDP rate vs goodput and loss "
                    "(Central3 loss-correlation sweep).",
        stages=[PlanStage(
            name="sweep",
            task="fig6.udp_point",
            scenarios=[variant],
            sweep={"rate_mbps": list(offered_mbps)},
            args={"duration": duration},
            seeds=[seed],
            params=params,
            merge={
                "kind": "points",
                "fields": ["offered_mbps", "goodput_mbps", "loss_rate"],
            },
        )],
    )


def fig7_plan(
    scenarios: Optional[Sequence[str]] = None,
    count: int = 50,
    sequences: int = 3,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    return ExperimentPlan(
        name="fig7",
        description="Figure 7: three sequences of echo cycles per "
                    "scenario (ping round-trip time).",
        stages=[_rtt_stage(
            scenarios if scenarios is not None else table1_scenarios(),
            count, sequences, seed, params,
        )],
    )


def fig8_plan(
    scenarios: Optional[Sequence[str]] = None,
    payload_sizes: Sequence[int] = (128, 256, 512, 1024, 1470),
    rate_mbps: float = 10.0,
    duration: float = 0.15,
    repetitions: int = 2,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    # The tuned parameter set travels in full so the specs keep the
    # content hashes (cache keys) the hand-wired fig8 loop produced.
    base = TestbedParams(**params) if params else None
    tuned = asdict(jitter_params(base))
    return ExperimentPlan(
        name="fig8",
        description="Figure 8: RFC 3550 jitter per (scenario, payload "
                    "size) at a fixed bitrate, compare-cache pressure "
                    "parameters.",
        stages=[PlanStage(
            name="jitter",
            task="fig8.jitter",
            scenarios=list(
                scenarios if scenarios is not None else table1_scenarios()
            ),
            sweep={"payload_size": list(payload_sizes)},
            args={"rate_mbps": rate_mbps, "duration": duration},
            seeds=_seed_range(seed, repetitions),
            params=tuned,
            merge={"kind": "size_series", "unit": "jitter ms"},
        )],
    )


def chaos_plan(
    schedules: Optional[List[Dict[str, Any]]] = None,
    duration: float = 0.05,
    rate_mbps: float = 20.0,
    seeds: Sequence[int] = (1, 2),
    params: Optional[Dict[str, Any]] = None,
    variant: str = "central3",
) -> ExperimentPlan:
    """The chaos battery as a plan, fault schedules embedded.

    ``schedules`` are FaultSchedule dicts (JSON form); defaults to the
    built-in battery.  One spec per (schedule, seed), schedule-major.
    """
    require_compare([variant])
    if schedules is None:
        from repro.chaos.schedule import builtin_battery

        schedules = [s.to_dict() for s in builtin_battery().values()]
    return ExperimentPlan(
        name="chaos",
        description="Chaos battery: survivability of one UDP flow under "
                    "embedded fault schedules, per (schedule, seed).",
        stages=[PlanStage(
            name="battery",
            task="chaos.run",
            scenarios=[variant],
            schedules=[dict(s) for s in schedules],
            args={"duration": duration, "rate_mbps": rate_mbps},
            seeds=list(seeds),
            params=params,
            merge={"kind": "chaos_records"},
        )],
    )


def ctrlbft_plan(
    variants: Sequence[str] = ("linespeed", "central3"),
    ctrl_ks: Sequence[int] = (1, 3),
    adversaries: Optional[Sequence[str]] = None,
    duration: float = 0.06,
    rate_mbps: float = 10.0,
    seeds: Sequence[int] = (1,),
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """Control-plane BFT sweep: data-plane k (via the variant) ×
    control-plane k × adversary.

    Each grid point is one ``ctrl.run``: a UDP flow under a replicated
    reactive control plane with an optional replica crash or lying
    compromise, recording blocked flow-mods, detection latency, the
    quarantine timeline and a data-plane delivery fingerprint (the
    bit-identity artefact: ``ctrl_k`` must not change it).  The adversary
    axis defaults to the catalogue's control-plane rows."""
    if adversaries is None:
        from repro.adversary.catalogue import CONTROL, row_names

        adversaries = row_names(CONTROL)
    return ExperimentPlan(
        name="ctrlbft",
        description="Replicated control plane: data-plane k x control-"
                    "plane k x adversary grid, quorum-voted flow-mods.",
        stages=[PlanStage(
            name="grid",
            task="ctrl.run",
            scenarios=list(variants),
            sweep={
                "adversary": list(adversaries),
                "ctrl_k": list(ctrl_ks),
            },
            args={"duration": duration, "rate_mbps": rate_mbps},
            seeds=list(seeds),
            params=params,
            merge={"kind": "ctrlbft_records"},
        )],
    )


def advbench_plan(
    variants: Sequence[str] = (
        "central3", "central5", "transport3", "virtual3", "fattree_shielded3",
    ),
    adversaries: Optional[Sequence[str]] = None,
    profiles: Sequence[str] = ("balanced", "vigilant"),
    duration: float = 0.03,
    rate_mbps: float = 20.0,
    seeds: Sequence[int] = (1, 2),
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """Detection-latency benchmark: adversary strategy × realisation ×
    compare profile.

    Each grid point is one ``adv.run``: a UDP flow through a combiner
    while an adversary runs on one or more branches, recording
    time-to-first-alarm, time-to-quarantine, packets leaked before
    quarantine, masked damage and the honest-branch false-quarantine
    rate.  Seeds fold into a paper-style table per (variant, adversary,
    profile).  The adversary axis defaults to the catalogue's data-plane
    rows (``repro.adversary.catalogue``)."""
    require_compare(variants)
    if adversaries is None:
        from repro.adversary.catalogue import DATA, row_names

        adversaries = row_names(DATA)
    return ExperimentPlan(
        name="advbench",
        description="Adversary strategies vs the combiner: detection "
                    "latency, leaked packets, masked damage and false "
                    "quarantines per adversary x k x compare profile.",
        stages=[PlanStage(
            name="surface",
            task="adv.run",
            scenarios=list(variants),
            sweep={
                "adversary": list(adversaries),
                "profile": list(profiles),
            },
            args={"duration": duration, "rate_mbps": rate_mbps},
            seeds=list(seeds),
            params=params,
            merge={"kind": "detection_table"},
        )],
    )


def casestudy_plan(
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """Section VI: the three scenario runs on the fat-tree pod slice."""
    from repro.analysis.tasks import CASESTUDY_RUNS

    return ExperimentPlan(
        name="casestudy",
        description="Section VI case study: baseline, routing attack and "
                    "NetCo-protected run of 10 echo cycles vm1 -> fw1.",
        stages=[PlanStage(
            name="runs",
            task="casestudy.run",
            sweep={"run": list(CASESTUDY_RUNS)},
            args={"echo_count": 10},
            seeds=[seed],
            params=params,
            merge={"kind": "casestudy_table"},
        )],
    )


def virtualized_plan(
    variants: Sequence[str] = ("virtual2", "virtual3"),
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """Section VII: one vendor's transit corrupts every payload from
    t = 0; two tunnels detect it, three prevent it."""
    from repro.chaos.schedule import BehaviorOn, FaultSchedule

    require_compare(variants)
    corrupt = FaultSchedule(
        [BehaviorOn(0.0, "r1", behavior="payload_corruption")],
        name="corrupt_vendor",
    )
    return ExperimentPlan(
        name="virtualized",
        description="Section VII virtualized combiner: a corrupting "
                    "transit vendor against k = 2 (detection) and k = 3 "
                    "(prevention) tunnels.",
        stages=[PlanStage(
            name="matrix",
            task="chaos.run",
            scenarios=list(variants),
            schedules=[corrupt.to_dict()],
            args={"duration": 0.01, "rate_mbps": 20.0},
            seeds=[seed],
            params=params,
            merge={"kind": "virtualized_records"},
        )],
    )


def table1_plan(
    duration_tcp: float = 0.15,
    duration_udp: float = 0.08,
    ping_count: int = 50,
    repetitions: int = 2,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """Table I as ONE plan: the TCP, UDP and RTT stages expand into a
    single farm batch (no idle shards between metrics), then combine
    into the ``values[metric][scenario]`` table."""
    scenarios = table1_scenarios()
    return ExperimentPlan(
        name="table1",
        description="Table I: average TCP/UDP/RTT per scenario, all "
                    "three metrics in one farm batch.",
        stages=[
            _tcp_stage(scenarios, duration_tcp, repetitions, seed, params),
            _udp_max_stage(scenarios, duration_udp, 8, seed, params),
            _rtt_stage(scenarios, ping_count, repetitions, seed, params),
        ],
        combine="metric_table",
    )


def smoke_plan(
    scenarios: Sequence[str] = ("linespeed", "central3"),
    count: int = 10,
    seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
) -> ExperimentPlan:
    """A seconds-scale plan for CI: two scenarios, one short RTT
    sequence each — enough to exercise expand/merge, caching and the
    serial == parallel contract without burning CI minutes."""
    return ExperimentPlan(
        name="smoke",
        description="CI smoke: tiny RTT grid proving plan expansion, "
                    "deterministic merge and serial == --jobs 2.",
        stages=[_rtt_stage(list(scenarios), count, 1, seed, params, name="smoke")],
    )


# ----------------------------------------------------------------------
# the registry of built-in plans + the CLI's --quick presets
# ----------------------------------------------------------------------
_BUILDERS = {
    "fig4": fig4_plan,
    "fig5": fig5_plan,
    "fig6": fig6_plan,
    "fig7": fig7_plan,
    "fig8": fig8_plan,
    "chaos": chaos_plan,
    "ctrlbft": ctrlbft_plan,
    "advbench": advbench_plan,
    "casestudy": casestudy_plan,
    "virtualized": virtualized_plan,
    "table1": table1_plan,
    "smoke": smoke_plan,
}

#: per-plan overrides applied by ``--quick`` (shorter durations / fewer
#: repetitions); the historical CLI presets, now in one place.
QUICK_SETTINGS: Dict[str, Dict[str, Any]] = {
    "fig4": {"duration": 0.06, "repetitions": 1},
    "fig5": {"duration": 0.04, "iterations": 6},
    "fig6": {"offered_mbps": (60, 180, 230, 270, 350), "duration": 0.04},
    "fig7": {"count": 20, "sequences": 1},
    "fig8": {"payload_sizes": (128, 512, 1470), "repetitions": 1},
    "chaos": {"duration": 0.04, "seeds": (1,)},
    "ctrlbft": {"variants": ("central3",), "duration": 0.04},
    "advbench": {"profiles": ("vigilant",), "duration": 0.024, "seeds": (1,)},
    "casestudy": {},
    "virtualized": {},
    "table1": {
        "duration_tcp": 0.06, "duration_udp": 0.04,
        "ping_count": 20, "repetitions": 1,
    },
    "smoke": {},
}

#: the full-size CLI settings that differ from the builder defaults
_FULL_SETTINGS: Dict[str, Dict[str, Any]] = {
    "chaos": {"duration": 0.06},
}


def builtin_plan_names() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def builtin_plan(name: str, quick: bool = False, **overrides: Any) -> ExperimentPlan:
    """Build a registered plan, optionally at the ``--quick`` presets.

    ``overrides`` win over the presets (the chaos CLI passes a
    ``--chaos`` schedule file and ``--variant`` through here).
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown built-in plan {name!r}; known: {list(builtin_plan_names())}"
        )
    settings = dict(QUICK_SETTINGS[name] if quick else _FULL_SETTINGS.get(name, {}))
    settings.update(overrides)
    return builder(**settings)
