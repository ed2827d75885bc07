"""Observability overhead: disabled vs 1%-sampled vs full tracing.

The obs stack's contract is that you only pay for what you switch on:

* **plain** — the tier-1 configuration: default (disabled) registry,
  no tracer.  Components bind ``None`` instruments and skip every
  metric call with one ``is not None`` test per packet.
* **armed-disabled** — a tracer is attached (its prefix listeners are
  live on the trace bus) but the sampling rate is 0 and the active
  registry is disabled: this measures the standing cost of the obs
  machinery when it observes nothing.
* **sampled 1%** — enabled registry + 1% packet-trace sampling, the
  recommended always-on production setting.
* **full** — enabled registry + every packet traced (the case-study /
  debugging setting; expensive by design).

The workload is one fixed central3 UDP flow (the fig5 operating point).
The control-plane decision path gets the same plain / armed-disabled
pair on one slice of ``des_ctrl_reactive_k3`` (flows expire every
100 us, so nearly every packet is a PacketIn, three replica decisions
and a vote): with the tracer armed, its prefix listeners make every
per-copy record site build its record.  Results go to
``BENCH_obs_overhead.json`` (override with ``BENCH_OBS_OUT``).  The
modes are timed in one process and compared as ratios to the plain run,
so host speed cancels; this is the only check of the disabled-mode
cost, because no ``BENCHMARK.json`` metric measures that ratio.

Run with::

    pytest benchmarks/test_obs_overhead.py -q
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict

from repro.analysis.tasks import DRAIN_TIME, drive_ctrl_flow
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import PacketTracer
from repro.scenarios.ctrlplane import CtrlParams, build_ctrl_testbed
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow

RESULTS: Dict[str, Dict[str, float]] = {}

RATE_BPS = 200e6
DURATION = 0.01
SEED = 1
#: the control-plane slice: ``CtrlReactive.KWARGS`` of ``bench/workloads.py``
#: over 30 ms of simulated time (long enough that a run is not all build)
CTRL_WORKLOAD = {"variant": "central3", "ctrl_k": 3, "adversary": "lying",
                 "rate_bps": 100e6, "payload_size": 512,
                 "flow_hard_timeout": 1e-4, "duration": 0.03, "seed": SEED}


def _central3_flow():
    """Build one central3 UDP flow; returns its network and its run."""
    testbed = build_testbed("central3", seed=SEED)

    def run() -> None:
        result = run_udp_flow(
            testbed.path(),
            rate_bps=RATE_BPS,
            duration=DURATION,
            send_cost=testbed.params.udp_send_cost,
        )
        testbed.compare_core.flush()
        assert result.received_unique > 0

    return testbed.network, run


def _ctrl_slice():
    """Build one control-plane slice; returns its network and its run."""
    w = CTRL_WORKLOAD
    ctrl = CtrlParams(ctrl_k=w["ctrl_k"], flow_hard_timeout=w["flow_hard_timeout"])
    testbed = build_ctrl_testbed(w["variant"], ctrl=ctrl, seed=w["seed"])

    def run() -> None:
        flow, _sequences, _injections = drive_ctrl_flow(
            testbed, w["adversary"], w["rate_bps"], w["payload_size"],
            w["duration"], DRAIN_TIME,
        )
        assert flow.received_unique > 0

    return testbed.network, run


def _run_workload(build=_central3_flow, registry=None, sample_rate=None) -> float:
    """Build and run one workload; returns wall-clock seconds."""
    t0 = time.perf_counter()
    if registry is not None:
        with use_registry(registry):
            network, run = build()
    else:
        network, run = build()
    if sample_rate is not None:
        tracer = PacketTracer(network.trace, sample_rate=sample_rate)
        tracer.attach(network)
    run()
    return time.perf_counter() - t0


def _best_of(n: int, **kwargs) -> float:
    return min(_run_workload(**kwargs) for _ in range(n))


def _mode(name: str, seconds: float, plain: float) -> None:
    RESULTS[name] = {
        "seconds": round(seconds, 4),
        "ratio_vs_plain": round(seconds / plain, 4),
    }


def test_overhead_modes():
    plain = _best_of(3)
    armed = _best_of(3, registry=MetricsRegistry(enabled=False), sample_rate=0.0)
    sampled = _best_of(2, registry=MetricsRegistry(enabled=True), sample_rate=0.01)
    full = _best_of(2, registry=MetricsRegistry(enabled=True), sample_rate=1.0)

    _mode("plain", plain, plain)
    _mode("armed_disabled", armed, plain)
    _mode("sampled_1pct", sampled, plain)
    _mode("full_trace", full, plain)

    # Loose bounds: this is not tier-1 and CI machines are noisy, but an
    # order-of-magnitude break should still fail loudly.  Nothing
    # enforces a tighter criterion.
    assert armed / plain < 1.30, (
        f"disabled obs costs {armed / plain:.2f}x the plain run"
    )
    assert sampled / plain < 1.60, (
        f"1% sampling costs {sampled / plain:.2f}x the plain run"
    )
    assert full / plain < 5.0, (
        f"full tracing costs {full / plain:.2f}x the plain run"
    )


def test_control_plane_overhead():
    """The decision path, plain against armed-disabled, as paired ratios:
    the two runs of a pair follow each other, and the median pair stands,
    so a drift of the host's speed lands on both sides of every ratio."""
    plain, armed = [], []
    for _ in range(7):
        plain.append(_run_workload(_ctrl_slice))
        armed.append(
            _run_workload(
                _ctrl_slice, registry=MetricsRegistry(enabled=False), sample_rate=0.0
            )
        )
    ratio = statistics.median(a / p for a, p in zip(armed, plain))
    RESULTS["ctrl_plain"] = {"seconds": round(min(plain), 4), "ratio_vs_plain": 1.0}
    RESULTS["ctrl_armed_disabled"] = {
        "seconds": round(min(armed), 4),
        "ratio_vs_plain": round(ratio, 4),
    }
    # the same loose bound as the data-plane flow's
    assert ratio < 1.30, (
        f"disabled obs costs {ratio:.2f}x the plain control-plane slice"
    )


def test_dump_results():
    """Write the JSON artifact (runs after the timing test)."""
    assert RESULTS, "timing test did not run"
    out = os.environ.get("BENCH_OBS_OUT", "BENCH_obs_overhead.json")
    payload = {
        "schema": "obs-overhead-bench-v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {"variant": "central3", "rate_bps": RATE_BPS,
                     "duration": DURATION, "seed": SEED},
        "ctrl_workload": CTRL_WORKLOAD,
        "results": RESULTS,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
