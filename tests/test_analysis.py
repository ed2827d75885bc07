"""Tests for experiment records, reporting and (smoke) figure plans."""

import pytest

from repro.analysis.report import (
    format_table,
    render_record,
    render_series,
    render_table1,
)
from repro.analysis.records import (
    PAPER_TABLE1,
    ExperimentRecord,
    MeasurementRow,
    paper_table1_values,
    paper_value,
)
from repro.plan.builtin import fig4_plan, fig6_plan, jitter_params


class TestRecords:
    def test_add_and_query(self):
        record = ExperimentRecord("Figure X", "demo")
        record.add("linespeed", "tcp_mbps", 480.0, "Mbit/s", paper_value=474.0)
        record.add("central3", "tcp_mbps", 140.0, "Mbit/s", paper_value=145.0)
        assert record.value_of("linespeed", "tcp_mbps") == 480.0
        assert record.value_of("nope", "tcp_mbps") is None
        assert len(record.by_metric("tcp_mbps")) == 2

    def test_ordering(self):
        record = ExperimentRecord("x", "y")
        record.add("a", "m", 1.0, "u")
        record.add("b", "m", 3.0, "u")
        record.add("c", "m", 2.0, "u")
        assert record.ordering("m") == ["b", "c", "a"]
        assert record.ordering("m", descending=False) == ["a", "c", "b"]

    def test_ratio_to_paper(self):
        row = MeasurementRow("s", "m", 100.0, "u", paper_value=200.0)
        assert row.ratio_to_paper == 0.5
        assert MeasurementRow("s", "m", 1.0, "u").ratio_to_paper is None

    def test_paper_values_complete(self):
        scenarios = ("linespeed", "dup3", "dup5", "central3", "central5")
        metrics = ("tcp_mbps", "udp_mbps", "rtt_ms")
        for scenario in scenarios:
            for metric in metrics:
                assert paper_value(scenario, metric) is not None
        assert paper_value("pox3", "tcp_mbps") is None
        assert len(PAPER_TABLE1) == 15


class TestRendering:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[2:])) == 1

    def test_render_record_includes_paper_column(self):
        record = ExperimentRecord("Figure 4", "TCP throughput")
        record.add("linespeed", "tcp_mbps", 480.0, "Mbit/s", paper_value=474.0)
        text = render_record(record)
        assert "Figure 4" in text and "474" in text and "1.01x" in text

    def test_render_table1_layout(self):
        values = {
            "tcp_mbps": {"linespeed": 480.0, "central3": 140.0},
            "udp_mbps": {"linespeed": 280.0},
            "rtt_ms": {"linespeed": 0.17},
        }
        text = render_table1(values, paper=paper_table1_values())
        assert "TABLE I" in text
        assert "Linespeed" in text and "Central5" in text
        assert "(474)" in text

    def test_render_series(self):
        text = render_series("Figure 6", "offered", "loss", [(60, 0.0), (300, 0.12)])
        assert "Figure 6" in text and "300" in text


class TestRunnersSmoke:
    def test_jitter_params_tighten_cache(self):
        params = jitter_params()
        assert params.compare_cache_capacity < 100
        assert params.compare_buffer_timeout > 5e-3

    def test_fig6_sweep_smoke(self):
        points = fig6_plan(offered_mbps=(60, 300), duration=0.02).run()
        assert len(points) == 2
        (low_rate, low_good, low_loss), (hi_rate, hi_good, hi_loss) = points
        assert low_loss < hi_loss  # overload produces loss
        assert hi_good < hi_rate  # goodput saturates below offered

    def test_fig4_runner_smoke(self):
        record = fig4_plan(
            scenarios=("linespeed", "central3"), duration=0.03, repetitions=1
        ).run()
        values = {r.scenario: r.value for r in record.rows}
        assert values["linespeed"] > values["central3"]
