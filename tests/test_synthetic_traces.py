"""Synthetic trace generators: calibration against Table 3 and determinism."""

import pytest

from repro.exceptions import TraceError
from repro.harvester.synthetic import (
    TABLE3_ORDER,
    TABLE3_SPECS,
    SyntheticTraceSpec,
    generate_table3_trace,
    generate_table3_traces,
    rf_trace,
    solar_night_trace,
    solar_trace,
)


class TestTable3Calibration:
    @pytest.mark.parametrize("name", TABLE3_ORDER)
    def test_duration_matches_table3(self, name):
        trace = generate_table3_trace(name)
        assert trace.duration == pytest.approx(TABLE3_SPECS[name].duration, rel=0.01)

    @pytest.mark.parametrize("name", TABLE3_ORDER)
    def test_mean_power_matches_table3_exactly(self, name):
        trace = generate_table3_trace(name)
        assert trace.mean_power == pytest.approx(
            TABLE3_SPECS[name].mean_power, rel=1e-6
        )

    @pytest.mark.parametrize("name", TABLE3_ORDER)
    def test_cv_matches_table3_within_tolerance(self, name):
        trace = generate_table3_trace(name)
        target = TABLE3_SPECS[name].coefficient_of_variation
        assert trace.coefficient_of_variation == pytest.approx(target, rel=0.25)

    @pytest.mark.parametrize("name", TABLE3_ORDER)
    def test_all_samples_nonnegative(self, name):
        trace = generate_table3_trace(name)
        assert float(trace.powers.min()) >= 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(TraceError):
            generate_table3_trace("RF Moon Base")


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = generate_table3_trace("RF Cart", seed=3)
        second = generate_table3_trace("RF Cart", seed=3)
        assert (first.powers == second.powers).all()

    def test_different_seed_different_trace(self):
        first = generate_table3_trace("RF Cart", seed=3)
        second = generate_table3_trace("RF Cart", seed=4)
        assert not (first.powers == second.powers).all()

    def test_generate_all_returns_table_order(self):
        traces = generate_table3_traces()
        assert list(traces) == list(TABLE3_ORDER)

    def test_generate_subset(self):
        traces = generate_table3_traces(names=["RF Cart"])
        assert list(traces) == ["RF Cart"]


class TestCustomGenerators:
    def test_rf_trace_hits_requested_mean(self):
        trace = rf_trace(duration=200.0, mean_power=2e-3, coefficient_of_variation=1.0)
        assert trace.mean_power == pytest.approx(2e-3, rel=1e-6)
        assert trace.duration == pytest.approx(200.0)

    def test_solar_trace_is_spiky(self):
        trace = solar_trace(
            duration=1800.0, mean_power=5e-3, coefficient_of_variation=2.0
        )
        stats = trace.statistics()
        assert stats.spike_energy_fraction > 0.3

    def test_solar_night_trace_is_weak(self):
        trace = solar_night_trace(duration=600.0)
        assert trace.mean_power < 0.1e-3

    def test_spec_validation(self):
        with pytest.raises(TraceError):
            SyntheticTraceSpec(
                name="bad", kind="rf", duration=0.0, mean_power=1e-3,
                coefficient_of_variation=1.0, burst_rate=0.1, burst_duration=5.0,
                base_fraction=0.5,
            )
        with pytest.raises(TraceError):
            SyntheticTraceSpec(
                name="bad", kind="rf", duration=10.0, mean_power=1e-3,
                coefficient_of_variation=1.0, burst_rate=0.1, burst_duration=5.0,
                base_fraction=1.5,
            )
