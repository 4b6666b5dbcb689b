"""Analysis helpers: table formatting and aggregation."""

import pytest

from repro.analysis.aggregate import matrix_from_results, mean_over_traces
from repro.analysis.formatting import format_matrix, format_table, percent
from repro.sim.results import SimulationResult


def result(trace, buffer, work, latency=1.0):
    return SimulationResult(
        trace_name=trace,
        buffer_name=buffer,
        workload_name="SC",
        simulated_time=100.0,
        trace_duration=90.0,
        latency=latency,
        on_time=50.0,
        active_time=10.0,
        enable_count=1,
        brownout_count=1,
        work_units=work,
    )


class TestFormatting:
    def test_format_table_aligns_columns(self):
        text = format_table(
            [{"buffer": "REACT", "work": 10.0}, {"buffer": "770 uF", "work": 5.0}],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "buffer" in lines[1] and "work" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_missing_and_special_values(self):
        text = format_table([{"a": None, "b": float("nan"), "c": float("inf")}])
        assert "-" in text and "inf" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_matrix(self):
        text = format_matrix(
            {"RF Cart": {"REACT": 1.0, "770 uF": 0.5}}, row_label="trace"
        )
        assert "RF Cart" in text and "REACT" in text

    def test_percent(self):
        assert percent(0.256) == "+25.6%"
        assert percent(-0.1, digits=0) == "-10%"


class TestAggregation:
    def test_matrix_from_results_work_units(self):
        matrix = matrix_from_results(
            [result("RF Cart", "REACT", 10.0), result("RF Cart", "770 uF", 5.0)]
        )
        assert matrix["RF Cart"]["REACT"] == 10.0

    def test_matrix_from_results_latency_handles_never_started(self):
        matrix = matrix_from_results(
            [result("RF Cart", "17 mF", 0.0, latency=None)], value="latency"
        )
        assert matrix["RF Cart"]["17 mF"] == float("inf")

    def test_mean_over_traces_ignores_infinite(self):
        matrix = {
            "A": {"REACT": 1.0, "17 mF": float("inf")},
            "B": {"REACT": 3.0, "17 mF": 4.0},
        }
        means = mean_over_traces(matrix)
        assert means["REACT"] == pytest.approx(2.0)
        assert means["17 mF"] == pytest.approx(4.0)
