"""Figure 8 — jitter for varying UDP packet sizes.

"We learn from Figure 8 that bigger packets lead to lower jitter. ...
A flow of many small packets fills up the packet cache of the compare
more quickly than a flow of fewer, but larger packets. Once the packet
cache is full, a clean up procedure starts, and ... the more frequently
the cache is cleaned up, the higher the jitter becomes."

The benchmark reproduces exactly that mechanism: at small packet sizes
the combiner scenarios' compare cache cycles through cleanups and the
stalls surface as RFC 3550 jitter; at large sizes the cache never fills.
"""

from conftest import emit

from repro.analysis.report import render_series
from repro.plan.builtin import fig8_plan

SCENARIOS = ("linespeed", "dup3", "dup5", "central3", "central5")
SIZES = (128, 256, 512, 1024, 1470)


def test_fig8_jitter_vs_packet_size():
    series = fig8_plan(
        scenarios=SCENARIOS, payload_sizes=SIZES, repetitions=2
    ).run()
    for scenario in SCENARIOS:
        emit(
            render_series(
                f"Figure 8: jitter vs payload size - {scenario}",
                "payload bytes",
                "jitter ms",
                [(size, round(j, 5)) for size, j in series[scenario]],
            )
        )

    by = {s: dict(series[s]) for s in SCENARIOS}
    # bigger packets -> lower jitter in the combiner scenarios
    for scenario in ("central3", "central5"):
        assert by[scenario][128] > by[scenario][1470] * 3
        assert by[scenario][128] > by[scenario][512]
    # the compare-cache mechanism makes CentralK jitter dominate at
    # small sizes
    assert by["central3"][128] > by["linespeed"][128] * 3
    assert by["central5"][128] > by["dup5"][128]
    # at MTU-size packets all scenarios are quiet
    for scenario in SCENARIOS:
        assert by[scenario][1470] < 0.05
