"""Farm determinism benchmark: sharded Figure 7 vs the serial run.

Times the sharded execution path (2 worker processes) and pins the
subsystem's core guarantee: the parallel merge is bit-identical to the
serial record, because results are keyed by spec content hash rather
than completion order.
"""

from conftest import emit

from repro.analysis import render_record
from repro.farm import FarmExecutor
from repro.plan.builtin import fig7_plan

SCENARIOS = ("linespeed", "dup3", "central3")
PLAN = fig7_plan(scenarios=SCENARIOS, count=20, sequences=2, seed=1)


def test_farm_parallel_fig7_matches_serial(benchmark):
    parallel = benchmark.pedantic(
        lambda: PLAN.run(FarmExecutor(jobs=2)),
        rounds=1,
        iterations=1,
    )
    serial = PLAN.run()
    emit(render_record(parallel))

    assert parallel.to_dict() == serial.to_dict()
    farm = FarmExecutor(jobs=2)
    rerun = PLAN.run(farm)
    assert rerun.to_dict() == serial.to_dict()
    assert farm.progress.failed == 0
    assert farm.progress.done == farm.progress.queued
