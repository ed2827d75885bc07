"""Table I — average TCP bandwidth, UDP bandwidth and RTT for the five
scenarios Linespeed, Dup3, Dup5, Central3, Central5.

Paper values (Mbit/s, Mbit/s, ms):

    linespeed 474 / 278 / 0.181     dup3 122 / 266 / 0.189
    dup5       72 / 149 / 0.26      central3 145 / 245 / 0.319
    central5   78 / 156 / 0.415
"""

from conftest import emit

from repro.analysis.records import paper_table1_values
from repro.analysis.report import render_table1
from repro.plan.builtin import builtin_plan


def test_table1():
    values = builtin_plan("table1").run()
    emit(render_table1(values, paper=paper_table1_values()))

    tcp, udp, rtt = values["tcp_mbps"], values["udp_mbps"], values["rtt_ms"]
    # security costs bandwidth (Section V-B's "first general observation")
    assert tcp["linespeed"] > tcp["central3"] > tcp["central5"]
    assert tcp["linespeed"] > tcp["dup3"] > tcp["dup5"]
    assert udp["linespeed"] >= udp["central3"] > udp["central5"]
    # combining beats plain duplication for TCP
    assert tcp["central3"] > tcp["dup3"]
    assert tcp["central5"] > tcp["dup5"]
    # RTT grows monotonically with security level
    assert (
        rtt["linespeed"] < rtt["dup3"] < rtt["dup5"]
        < rtt["central3"] < rtt["central5"]
    )
