"""PowerTrace container: statistics, queries, and transforms."""

import pytest

from repro.exceptions import TraceError
from repro.harvester.trace import PowerTrace


def make_trace(samples=(1e-3, 2e-3, 3e-3, 4e-3), period=1.0) -> PowerTrace:
    return PowerTrace(samples, sample_period=period, name="test")


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            PowerTrace([], 1.0)

    def test_rejects_negative_samples(self):
        with pytest.raises(TraceError):
            PowerTrace([1e-3, -1e-3], 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(TraceError):
            PowerTrace([1e-3, float("nan")], 1.0)

    def test_rejects_bad_period(self):
        with pytest.raises(TraceError):
            PowerTrace([1e-3], 0.0)

    def test_powers_view_is_read_only(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            trace.powers[0] = 5.0


class TestStatistics:
    def test_duration_and_mean(self):
        trace = make_trace()
        assert trace.duration == pytest.approx(4.0)
        assert trace.mean_power == pytest.approx(2.5e-3)
        assert trace.peak_power == pytest.approx(4e-3)

    def test_total_energy(self):
        trace = make_trace(period=2.0)
        assert trace.total_energy == pytest.approx(sum([1e-3, 2e-3, 3e-3, 4e-3]) * 2.0)

    def test_coefficient_of_variation_of_constant_trace_is_zero(self):
        trace = PowerTrace([2e-3] * 10, 1.0)
        assert trace.coefficient_of_variation == pytest.approx(0.0)

    def test_statistics_spike_fraction(self):
        powers = [1e-3] * 9 + [20e-3]
        trace = PowerTrace(powers, 1.0)
        stats = trace.statistics(spike_threshold=10e-3, low_power_threshold=3e-3)
        assert stats.spike_energy_fraction == pytest.approx(20e-3 / (9e-3 + 20e-3))
        assert stats.time_below_fraction == pytest.approx(0.9)


class TestQueries:
    def test_power_at_uses_zero_order_hold(self):
        trace = make_trace()
        assert trace.power_at(0.5) == pytest.approx(1e-3)
        assert trace.power_at(3.99) == pytest.approx(4e-3)

    def test_power_after_end_is_zero(self):
        assert make_trace().power_at(100.0) == 0.0

    def test_power_at_negative_time_rejected(self):
        with pytest.raises(TraceError):
            make_trace().power_at(-1.0)

    def test_iteration_yields_time_power_pairs(self):
        pairs = list(make_trace())
        assert pairs[0] == (0.0, 1e-3)
        assert len(pairs) == 4


class TestTransforms:
    def test_scaled(self):
        doubled = make_trace().scaled(2.0)
        assert doubled.mean_power == pytest.approx(5e-3)

    def test_scaled_rejects_negative(self):
        with pytest.raises(TraceError):
            make_trace().scaled(-1.0)

    def test_clipped(self):
        clipped = make_trace().clipped(2e-3)
        assert clipped.peak_power == pytest.approx(2e-3)

    def test_truncated(self):
        short = make_trace().truncated(2.0)
        assert short.duration == pytest.approx(2.0)

    def test_resampled_preserves_duration(self):
        resampled = make_trace().resampled(0.5)
        assert resampled.duration == pytest.approx(4.0)
        assert resampled.power_at(0.6) == pytest.approx(1e-3)
