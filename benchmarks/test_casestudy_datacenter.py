"""Section VI — the datacenter routing attack case study.

Reproduces the paper's three scenario runs and their exact counts:

* baseline: 10 requests sent, 10 at fw1, 10 responses at vm1, no strays;
* attack: "After 10 requests sent, we witness 20 requests arriving at
  fw1 and 0 responses arriving at vm1";
* NetCo-protected: all 10 cycles complete, the mirrored copies reach the
  compare but never leave it, and responses win with 2-of-3 votes.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.plan.builtin import builtin_plan


def run_all():
    """The three ``casestudy.run`` records of the `repro casestudy` plan."""
    return builtin_plan("casestudy").run()


def test_casestudy():
    baseline, attack, protected = run_all()

    rows = []
    for result in (baseline, attack, protected):
        rows.append(
            [
                result["scenario"],
                str(result["requests_sent"]),
                str(result["requests_at_fw1"]),
                str(result["responses_at_vm1"]),
                str(result["screening"]["strays"]),
                ",".join(result["screening"]["stray_nodes"]) or "-",
            ]
        )
    emit(
        "Section VI case study (10 ICMP echo cycles vm1 -> fw1)\n"
        + format_table(
            ["scenario", "sent", "req@fw1", "resp@vm1", "strays", "stray nodes"],
            rows,
        )
    )

    # paper scenario 1: 10 perfect cycles, no strays on two screening
    # methods
    assert baseline["requests_at_fw1"] == 10
    assert baseline["responses_at_vm1"] == 10
    assert baseline["screening"]["strays"] == 0

    # paper scenario 2: 20 requests at fw1, 0 responses at vm1
    assert attack["requests_at_fw1"] == 20
    assert attack["responses_at_vm1"] == 0
    assert attack["screening"]["stray_nodes"] == ["core1"]

    # paper scenario 3: NetCo masks the attack completely
    assert protected["requests_at_fw1"] == 10
    assert protected["responses_at_vm1"] == 10
    assert protected["screening"]["strays"] == 0
    assert protected["compare_expired_unreleased"] >= 10  # mirrored copies died
    assert protected["single_source_alarms"] >= 10
    assert protected["compare_released"] == 20  # 10 requests + 10 responses
