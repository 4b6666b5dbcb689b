"""Unit-conversion and capacitor-math helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_prefix_conversions_round_trip():
    assert units.microfarads(770.0) == pytest.approx(770e-6)
    assert units.millifarads(10.0) == pytest.approx(10e-3)
    assert units.milliamps(1.5) == pytest.approx(1.5e-3)
    assert units.microamps(28.0) == pytest.approx(28e-6)


def test_capacitor_energy_matches_closed_form():
    assert units.capacitor_energy(1e-3, 3.0) == pytest.approx(0.5 * 1e-3 * 9.0)


def test_capacitor_energy_zero_voltage_is_zero():
    assert units.capacitor_energy(1e-3, 0.0) == 0.0


def test_usable_energy_between_voltage_levels():
    value = units.usable_energy(770e-6, 3.3, 1.8)
    assert value == pytest.approx(0.5 * 770e-6 * (3.3**2 - 1.8**2))


def test_usable_energy_rejects_inverted_window():
    with pytest.raises(ValueError):
        units.usable_energy(1e-3, 1.8, 3.3)


@given(
    capacitance=st.floats(1e-6, 1.0),
    voltage=st.floats(0.0, 10.0),
)
def test_energy_is_nonnegative_and_monotone_in_voltage(capacitance, voltage):
    energy = units.capacitor_energy(capacitance, voltage)
    assert energy >= 0.0
    assert units.capacitor_energy(capacitance, voltage + 1.0) >= energy


@given(
    capacitance=st.floats(1e-6, 1.0),
    v_low=st.floats(0.0, 5.0),
    extra=st.floats(0.0, 5.0),
)
def test_usable_energy_decomposes_total_energy(capacitance, v_low, extra):
    v_high = v_low + extra
    usable = units.usable_energy(capacitance, v_high, v_low)
    total_difference = units.capacitor_energy(
        capacitance, v_high
    ) - units.capacitor_energy(capacitance, v_low)
    assert usable == pytest.approx(total_difference, rel=1e-9, abs=1e-12)
