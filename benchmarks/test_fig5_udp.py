"""Figure 5 — maximum UDP throughput with loss below 0.5%.

Reproduces the paper's methodology exactly: "setting the iperf -u flag
and adjusting the -b flag value until a maximum is reached", with the
0.5% loss criterion, per scenario.
"""

from conftest import emit

from repro.analysis.report import render_record
from repro.plan.builtin import builtin_plan


def test_fig5_max_udp_throughput():
    record = builtin_plan("fig5").run()
    emit(render_record(record))
    values = {row.scenario: row.value for row in record.rows}

    # every reported point satisfies the loss criterion
    for row in record.rows:
        assert row.detail["loss_rate"] <= 0.005

    # UDP degrades with k, but far more gently than TCP (the Section V-B
    # observation comparing Figures 4 and 5)
    assert values["linespeed"] >= values["central3"] > values["central5"]
    assert values["dup3"] > values["dup5"]
    assert values["central3"] / values["linespeed"] > 0.6
    assert values["pox3"] < values["central3"] / 3
