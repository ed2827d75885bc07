"""Figure 6 — correlation of throughput and loss rate in Central3.

An offered-rate sweep over the Central3 scenario: below capacity the
goodput tracks the offered rate at ~zero loss; past capacity the loss
rate climbs while goodput saturates.
"""

from conftest import emit

from repro.analysis.report import render_series
from repro.plan.builtin import fig6_plan

OFFERED = (60, 120, 180, 210, 230, 250, 270, 300, 350)


def test_fig6_throughput_vs_loss():
    points = fig6_plan(offered_mbps=OFFERED).run()
    emit(
        render_series(
            "Figure 6: Central3 offered rate vs (goodput, loss)",
            "offered Mbit/s",
            "goodput Mbit/s",
            [(o, g) for o, g, _l in points],
        )
    )
    emit(
        render_series(
            "Figure 6 (loss series)",
            "offered Mbit/s",
            "loss rate",
            [(o, round(l, 4)) for o, _g, l in points],
        )
    )

    offered = [p[0] for p in points]
    goodput = [p[1] for p in points]
    loss = [p[2] for p in points]

    # below capacity: goodput ~= offered and loss ~= 0
    assert goodput[0] > offered[0] * 0.95
    assert loss[0] < 0.005
    # above capacity: loss grows with offered rate...
    assert loss[-1] > 0.02
    assert loss[-1] >= loss[-2] >= loss[-3] * 0.5
    # ...while goodput saturates (stops tracking the offered rate)
    assert goodput[-1] < offered[-1] * 0.9
    saturation = max(goodput)
    assert goodput[-1] > saturation * 0.7  # no congestion collapse
