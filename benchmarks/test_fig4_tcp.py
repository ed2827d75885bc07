"""Figure 4 — TCP throughput for all six scenarios, including POX3.

The paper's qualitative claims: throughput decreases with the number of
untrusted routers; combining (CentralK) beats plain duplication (DupK);
the POX controller compare is far slower than the C compare.
"""

from conftest import emit

from repro.analysis.report import render_record
from repro.plan.builtin import builtin_plan


def test_fig4_tcp_throughput():
    record = builtin_plan("fig4").run()
    emit(render_record(record))
    values = {row.scenario: row.value for row in record.rows}

    assert values["linespeed"] > values["central3"] > values["central5"]
    assert values["linespeed"] > values["dup3"] > values["dup5"]
    assert values["central3"] > values["dup3"]
    assert values["central5"] > values["dup5"]
    # POX3 pays the control channel + interpreted compare on every packet
    assert values["pox3"] < values["central3"] / 3
    # rough factor check against the paper: linespeed ~3x central3
    assert 2.0 < values["linespeed"] / values["central3"] < 6.0
