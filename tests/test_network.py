"""Capacitor-network math: series and parallel combination rules."""

import pytest

from repro.capacitors.network import parallel_capacitance, series_capacitance


class TestCombinationRules:
    def test_series_of_equal_caps(self):
        assert series_capacitance([1e-3] * 4) == pytest.approx(0.25e-3)

    def test_parallel_of_equal_caps(self):
        assert parallel_capacitance([1e-3] * 4) == pytest.approx(4e-3)

    def test_series_is_smaller_than_smallest(self):
        values = [1e-3, 2e-3, 5e-3]
        assert series_capacitance(values) < min(values)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            series_capacitance([])
        with pytest.raises(ValueError):
            parallel_capacitance([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            series_capacitance([1e-3, 0.0])
        with pytest.raises(ValueError):
            parallel_capacitance([-1e-3])
