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
Results go to ``BENCH_obs_overhead.json`` (override with
``BENCH_OBS_OUT``).  The modes are timed in one process and compared as
ratios to the plain run, so host speed cancels; this is the only check
of the disabled-mode cost, because no ``BENCHMARK.json`` metric measures
that ratio.

Run with::

    pytest benchmarks/test_obs_overhead.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import PacketTracer
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow

RESULTS: Dict[str, Dict[str, float]] = {}

RATE_BPS = 200e6
DURATION = 0.01
SEED = 1


def _run_workload(registry=None, sample_rate=None) -> float:
    """One central3 UDP flow; returns wall-clock seconds."""
    t0 = time.perf_counter()
    if registry is not None:
        with use_registry(registry):
            testbed = build_testbed("central3", seed=SEED)
    else:
        testbed = build_testbed("central3", seed=SEED)
    if sample_rate is not None:
        tracer = PacketTracer(testbed.network.trace, sample_rate=sample_rate)
        tracer.attach(testbed.network)
    result = run_udp_flow(
        testbed.path(),
        rate_bps=RATE_BPS,
        duration=DURATION,
        send_cost=testbed.params.udp_send_cost,
    )
    testbed.compare_core.flush()
    elapsed = time.perf_counter() - t0
    assert result.received_unique > 0
    return elapsed


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
        "results": RESULTS,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
