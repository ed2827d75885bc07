"""Figure 7 — ping round-trip time for the five data-plane scenarios.

"Each bar represents the average of three sequences of 50 consecutive
ICMP request response cycles."  Paper averages (ms): linespeed 0.181,
dup3 0.189, dup5 0.26, central3 0.319, central5 0.415.
"""

from conftest import emit

from repro.analysis.report import render_record
from repro.plan.builtin import fig7_plan


def test_fig7_ping_rtt():
    record = fig7_plan(count=50, sequences=3).run()
    emit(render_record(record))
    values = {row.scenario: row.value for row in record.rows}

    # the paper's exact ordering
    assert (
        values["linespeed"]
        < values["dup3"]
        < values["dup5"]
        < values["central3"]
        < values["central5"]
    )
    # the combiner detour costs roughly half of the baseline RTT again
    assert 1.2 < values["central3"] / values["linespeed"] < 3.0
    # sub-millisecond RTTs throughout, as on the paper's testbed
    assert values["central5"] < 1.0
