"""Instrumented fig5-style runs: one command, one deterministic RunReport.

``repro obs summary`` rebuilds the Figure 5 UDP workload with the full
observability stack switched on — an enabled metrics registry active
while the testbed is constructed (so every component publishes its
counters and binds its histograms), a :class:`~repro.obs.spans.PacketTracer` attached to the
network, its trace bus retaining every record — runs one fixed-rate UDP
flow per scenario, and collects everything into a
:class:`~repro.obs.report.RunReport`.

Because the offered rates and durations are fixed (not searched) and all
randomness is seeded, the resulting report is byte-stable for a given
seed, which is what lets CI keep a checked-in baseline and diff against
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.report import RunReport
from repro.obs.spans import PacketTracer

#: scenario -> offered UDP rate (bit/s); fixed, not searched, so the
#: report is deterministic.  Rates sit near each variant's Figure 5
#: operating point: linespeed comfortably carries more than the
#: duplicating variants.
SCENARIO_RATES: Dict[str, float] = {
    "linespeed": 300e6,
    "central3": 200e6,
    "central5": 150e6,
    "dup3": 200e6,
}

QUICK_SCENARIOS: Tuple[str, ...] = ("linespeed", "central3")
FULL_SCENARIOS: Tuple[str, ...] = ("linespeed", "central3", "central5", "dup3")


@dataclass
class ScenarioRun:
    """One instrumented scenario: its registry, tracer and flow result."""

    variant: str
    rate_bps: float
    duration: float
    registry: MetricsRegistry
    tracer: PacketTracer
    result: object  # UdpFlowResult
    testbed: object


def run_instrumented_scenario(
    variant: str,
    rate_bps: Optional[float] = None,
    duration: float = 0.02,
    seed: int = 1,
    sample_rate: float = 1.0,
    train: int = 1,
) -> ScenarioRun:
    """Build one testbed variant with observability on and run UDP through it."""
    from repro.scenarios.testbed import TestbedParams, build_testbed
    from repro.traffic.iperf import run_udp_flow

    if rate_bps is None:
        rate_bps = SCENARIO_RATES.get(variant, 200e6)
    registry = MetricsRegistry(enabled=True)
    params = TestbedParams(batch_train=train) if train > 1 else None
    # Components publish their counters and bind their histograms when
    # they are constructed — transport sessions on first use — so the
    # registry stays active for the build and the run.
    with use_registry(registry):
        testbed = build_testbed(variant, params=params, seed=seed)
        testbed.network.trace.start_retaining()
        tracer = PacketTracer(testbed.network.trace, sample_rate=sample_rate)
        tracer.attach(testbed.network)
        result = run_udp_flow(
            testbed.path(),
            rate_bps=rate_bps,
            duration=duration,
            send_cost=testbed.params.udp_send_cost,
        )
        compare = testbed.compare_core
        if compare is not None:
            compare.flush()
    return ScenarioRun(
        variant=variant,
        rate_bps=rate_bps,
        duration=duration,
        registry=registry,
        tracer=tracer,
        result=result,
        testbed=testbed,
    )


def run_instrumented_ctrl_scenario(
    variant: str = "central3",
    ctrl_k: int = 3,
    adversary: str = "none",
    rate_bps: float = 10e6,
    duration: float = 0.01,
    seed: int = 1,
    sample_rate: float = 1.0,
) -> ScenarioRun:
    """A ctrlbft-style run with the tracer attached.

    Drives the ``ctrl.run`` farm task's traffic pattern (reverse primer
    so forward decisions become votable FlowMods, then one forward UDP
    flow: :func:`repro.analysis.tasks.drive_ctrl_flow`) on a replicated
    control plane, with a PacketTracer subscribed — so marked packets
    pick up ``ctrl.vote``/``ctrl.release`` spans from the voter alongside
    their data-plane hops.  Used by ``repro obs trace --ctrl``;
    deliberately shorter than the farm task (trajectory inspection wants
    a handful of flows, not a benchmark).
    """
    from repro.analysis.tasks import drive_ctrl_flow
    from repro.scenarios.ctrlplane import CtrlParams, build_ctrl_testbed

    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        tb = build_ctrl_testbed(
            variant, ctrl=CtrlParams(ctrl_k=ctrl_k), seed=seed
        )
        tb.network.trace.start_retaining()
        tracer = PacketTracer(tb.network.trace, sample_rate=sample_rate)
        tracer.attach(tb.network)
        result, _sequences, _injections = drive_ctrl_flow(
            tb, adversary, rate_bps, payload_size=512, duration=duration,
            drain=5e-3,
        )
    return ScenarioRun(
        variant=variant,
        rate_bps=rate_bps,
        duration=duration,
        registry=registry,
        tracer=tracer,
        result=result,
        testbed=tb,
    )


def build_run_report(
    name: str = "fig5-obs",
    quick: bool = False,
    duration: Optional[float] = None,
    seed: int = 1,
    sample_rate: float = 1.0,
    scenarios: Optional[Tuple[str, ...]] = None,
    train: int = 1,
) -> Tuple[RunReport, List[ScenarioRun]]:
    """Run the instrumented scenario set and assemble a RunReport."""
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else FULL_SCENARIOS
    if duration is None:
        duration = 0.01 if quick else 0.02
    runs = [
        run_instrumented_scenario(
            variant, duration=duration, seed=seed, sample_rate=sample_rate,
            train=train,
        )
        for variant in scenarios
    ]
    report = RunReport(
        name=name,
        meta={
            "quick": quick,
            "seed": seed,
            "duration": duration,
            "sample_rate": sample_rate,
            "scenarios": list(scenarios),
            "train": train,
        },
    )
    for run in runs:
        report.metrics.update(run.registry.samples({"scenario": run.variant}))
        report.spans[run.variant] = run.tracer.stats()
        result = run.result
        report.records.append(
            {
                "scenario": run.variant,
                "offered_mbps": round(run.rate_bps / 1e6, 3),
                "goodput_mbps": round(result.throughput_mbps, 3),
                "loss_rate": round(result.loss_rate, 6),
                "jitter_ms": round(result.jitter_s * 1e3, 6),
                "sent": result.sent,
                "received": result.received_unique,
                "duplicates": result.duplicates,
            }
        )
        run.tracer.detach()
    return report, runs


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _hist_quantile(sample: Dict, q: float) -> float:
    """Quantile upper bound from a flattened histogram sample dict."""
    count = sample.get("count", 0)
    if not count:
        return 0.0
    buckets = sample.get("buckets", {})
    bounds = sorted(
        (float("inf") if k == "+Inf" else float(k), n) for k, n in buckets.items()
    )
    target = q * count
    seen = 0
    for bound, n in bounds:
        seen += n
        if seen >= target:
            return bound
    return float("inf")


def _metric_rows(report: RunReport, prefix: str, scenario: str) -> List[Tuple[str, object]]:
    needle = f'scenario="{scenario}"'
    rows = []
    for key, value in sorted(report.metrics.items()):
        if key.startswith(prefix) and needle in key:
            rows.append((key, value))
    return rows


def render_summary(report: RunReport) -> str:
    """Human-readable per-scenario view: flow result, links, compare."""
    lines: List[str] = [f"run report: {report.name}"]
    meta = report.meta
    if meta:
        lines.append(
            "  seed={seed} duration={duration}s sample_rate={sample_rate}".format(
                seed=meta.get("seed"), duration=meta.get("duration"),
                sample_rate=meta.get("sample_rate"),
            )
        )
    for record in report.records:
        scenario = record["scenario"]
        lines.append(f"\n== {scenario} ==")
        lines.append(
            "  udp {offered_mbps:g} Mbit/s offered -> {goodput_mbps:g} Mbit/s goodput, "
            "loss {loss_pct:.2f}%, jitter {jitter_ms:.4f} ms "
            "({received}/{sent} datagrams)".format(
                loss_pct=100.0 * record["loss_rate"], **record
            )
        )
        link_rows = [
            (key, value)
            for key, value in _metric_rows(report, "link_", scenario)
            if key.startswith("link_tx_packets_total")
            or key.startswith("link_queue_drops_total")
        ]
        if link_rows:
            lines.append("  links:")
            for key, value in link_rows:
                lines.append(f"    {key} = {value:g}")
        compare_rows = _metric_rows(report, "compare_", scenario)
        if compare_rows:
            lines.append("  compare:")
            for key, value in compare_rows:
                if isinstance(value, dict):
                    p50 = _hist_quantile(value, 0.5)
                    p99 = _hist_quantile(value, 0.99)
                    lines.append(
                        f"    {key}: count={value['count']} p50<={p50:g} p99<={p99:g}"
                    )
                elif value:
                    lines.append(f"    {key} = {value:g}")
        batch_rows = _metric_rows(report, "batch", scenario)
        if batch_rows:
            lines.append("  batches:")
            for key, value in batch_rows:
                if isinstance(value, dict):
                    p50 = _hist_quantile(value, 0.5)
                    p99 = _hist_quantile(value, 0.99)
                    lines.append(
                        f"    {key}: count={value['count']} p50<={p50:g} p99<={p99:g}"
                    )
                else:
                    lines.append(f"    {key} = {value:g}")
        flow_rows = _metric_rows(report, "flowtable_", scenario)
        if flow_rows:
            lines.append("  flowtables:")
            for key, value in flow_rows:
                if value:
                    lines.append(f"    {key} = {value:g}")
        adversary_rows = _metric_rows(report, "adversary_", scenario)
        if adversary_rows:
            lines.append("  adversary:")
            for key, value in adversary_rows:
                lines.append(f"    {key} = {value:g}")
        span_stats = report.spans.get(scenario)
        if span_stats:
            lines.append(
                "  spans: marked={marked} sampled_out={sampled_out} "
                "traces={traces} events={events}".format(**span_stats)
            )
    return "\n".join(lines)
