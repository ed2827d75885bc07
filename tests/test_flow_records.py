"""Every record a supervised CBR flow produces, pinned by digest.

``chaos.run``, ``adv.run``, ``ctrl.run``, the live demo's DES twin and
the two instrumented ``obs.summary`` scenarios all drive one UDP flow
under a fault schedule and a quarantine loop, and derive their record
from what the sender, the receiver and the transition log hold
afterwards.  ``benchmarks/flow_records_baseline.json`` holds the sha256
of the canonical JSON of each record of a 45-run grid, written at the
commit before those five copies of the flow were folded into one
driver.  A digest that moves is a change of simulated behaviour:
regenerate only for an intended one, and say so in the commit message::

    PYTHONPATH=src python -m tests.test_flow_records
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from functools import partial
from typing import Any, Callable, Dict

from repro.chaos.schedule import builtin_battery
from repro.farm.spec import resolve_runner
from repro.live.schedule import LiveSchedule
from repro.live.twin import des_twin_run
from repro.obs.summary import run_instrumented_ctrl_scenario, run_instrumented_scenario
from tests.test_transport_layer import load_twin_baseline

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "flow_records_baseline.json"
)


def _twin(run: dict) -> dict:
    return des_twin_run(
        LiveSchedule.from_dict(run["verdict"]["extras"]["schedule"]),
        packets=run["packets"], interval=run["interval"], seed=run["seed"],
    ).to_dict()


#: Samples the metrics snapshot gained after the pins were written: the
#: drop counters of sites that used to leave only a trace record, and the
#: compare's count of copies refused for a branch it does not own.  Both
#: instrumented runs drop nothing there, so each must read 0; every other
#: sample stays under the pinned digest, so none of the samples the pins
#: were written with can move.
ADDED_ZERO_SAMPLES = [
    *(f'switch_dropped_bad_port_total{{switch="nc_{name}"}}'
      for name in ("sA", "sB", "r0", "r1", "r2")),
    'compare_host_dropped_unregistered_port_total{host="nc_h3"}',
    'compare_host_dropped_untagged_total{host="nc_h3"}',
    'compare_spoof_drops_total{compare="nc_compare"}',
]


#: Samples the pins were written with that are no longer exported: a
#: combiner endpoint has had no flow table since it stopped being an
#: OpenFlow switch, and no spoofed-marker counter since source marking
#: went.  Each read 0 in both instrumented runs; they are put back as 0,
#: so the pinned digests still cover every sample that remains.
REMOVED_ZERO_SAMPLES = [
    *(f'flowtable_{name}{{switch="nc_{side}"}}'
      for name in ("entries", "lookups_total", "index_hits_total",
                   "scan_steps_total", "misses_total")
      for side in ("sA", "sB")),
    *(f'endpoint_spoof_drops_total{{endpoint="nc_{side}"}}'
      for side in ("sA", "sB")),
]


def _instrumented(run: Callable[..., Any], **kwargs: Any) -> dict:
    scenario = run(**kwargs)
    samples = scenario.registry.samples()
    added = {key: samples.pop(key, None) for key in ADDED_ZERO_SAMPLES}
    assert added == dict.fromkeys(ADDED_ZERO_SAMPLES, 0.0), added
    assert not samples.keys() & set(REMOVED_ZERO_SAMPLES)
    samples.update(dict.fromkeys(REMOVED_ZERO_SAMPLES, 0.0))
    return {
        "flow": asdict(scenario.result),
        "metrics": samples,
        "spans": scenario.tracer.stats(),
    }


#: the advbench and ctrlbft rows the pins were written with, spelled out
#: so that rows joining the sweeps do not join the grid
ADV_ROWS = (
    "sampled_p001",
    "sampled_p01",
    "sampled_p1",
    "probation_evader",
    "sweep_timed",
    "path_inconsistency",
    "colluding_minority",
    "colluding_quorum",
)
CTRL_ROWS = ("none", "crash", "lying")


def grid() -> Dict[str, Callable[[], Any]]:
    """The pinned runs, by name (the sizes of each command's ``--quick``)."""
    chaos = resolve_runner("chaos.run")
    adv = partial(
        resolve_runner("adv.run"), seed=1, profile="vigilant", duration=0.024
    )
    ctrl = partial(resolve_runner("ctrl.run"), seed=1, duration=0.04)
    runs: Dict[str, Callable[[], Any]] = {}
    for name, schedule in builtin_battery().items():
        for seed in (1, 2):
            runs[f"chaos/{name}/{seed}"] = partial(
                chaos, schedule=schedule.to_dict(), seed=seed, duration=0.04
            )
    for variant in ("central3", "central5"):
        for adversary in ADV_ROWS:
            runs[f"adv/{variant}/{adversary}"] = partial(
                adv, variant=variant, adversary=adversary
            )
    # the honest control: the strategy activates after the flow has ended
    runs["adv/central3/honest"] = partial(
        adv, variant="central3", adversary="sampled_p1", activate_at=1.0
    )
    for ctrl_k in (1, 3):
        for adversary in CTRL_ROWS:
            runs[f"ctrl/central3/k{ctrl_k}/{adversary}"] = partial(
                ctrl, variant="central3", ctrl_k=ctrl_k, adversary=adversary
            )
    runs["ctrl/linespeed/k3/lying"] = partial(
        ctrl, variant="linespeed", ctrl_k=3, adversary="lying"
    )
    # the runs (not the verdicts) of live_twin_baseline.json: crash,
    # crash/restart and two faults on seeds 0, 1, 5
    for name, run in load_twin_baseline().items():
        runs[f"twin/{name}"] = partial(_twin, run)
    runs["obs/central3"] = partial(
        _instrumented, run_instrumented_scenario, variant="central3", duration=0.01
    )
    runs["obs/ctrl_lying"] = partial(
        _instrumented, run_instrumented_ctrl_scenario, adversary="lying"
    )
    return runs


def digest(record: Any) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_grid() -> Dict[str, str]:
    return {name: digest(run()) for name, run in grid().items()}


def load_baseline() -> Dict[str, str]:
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def test_every_grid_record_matches_its_pinned_digest():
    pinned = load_baseline()
    assert len(pinned) == 45
    current = run_grid()
    assert sorted(current) == sorted(pinned)
    moved = [name for name in pinned if current[name] != pinned[name]]
    assert not moved, f"{len(moved)} of {len(pinned)} records changed: {moved}"


if __name__ == "__main__":
    with open(BASELINE_PATH, "w", encoding="utf-8") as out:
        json.dump(
            {
                "note": "sha256 of the canonical JSON (sorted keys, compact "
                        "separators) of each record tests/test_flow_records.py "
                        "runs; written at commit 10d4151, before chaos.run, "
                        "adv.run, ctrl.run and the DES twin shared one flow "
                        "driver.",
                "records": run_grid(),
            },
            out, indent=1, sort_keys=True,
        )
        out.write("\n")
    print(f"wrote {os.path.normpath(BASELINE_PATH)}")
