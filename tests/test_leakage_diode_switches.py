"""Leakage models, diode models, and reconfiguration switches."""

import pytest
from hypothesis import given, strategies as st

from repro.capacitors.diode import IdealDiode
from repro.capacitors.leakage import (
    ConstantCurrentLeakage,
    NoLeakage,
    VoltageProportionalLeakage,
)
from repro.capacitors.switches import BreakBeforeMakeSwitch, DpdtSwitch, SwitchState
from repro.exceptions import ConfigurationError


class TestLeakageModels:
    def test_no_leakage_draws_nothing(self):
        assert NoLeakage().current(5.0) == 0.0
        assert NoLeakage().charge_lost(5.0, 100.0) == 0.0

    def test_constant_leakage_draws_fixed_current(self):
        model = ConstantCurrentLeakage(2e-6)
        assert model.current(3.0) == pytest.approx(2e-6)
        assert model.charge_lost(3.0, 10.0) == pytest.approx(2e-5)

    def test_constant_leakage_stops_at_zero_voltage(self):
        assert ConstantCurrentLeakage(2e-6).current(0.0) == 0.0

    def test_constant_leakage_rejects_negative_current(self):
        with pytest.raises(ConfigurationError):
            ConstantCurrentLeakage(-1e-6)

    def test_proportional_leakage_scales_with_voltage(self):
        model = VoltageProportionalLeakage(rated_current=28e-6, rated_voltage=6.3)
        assert model.current(6.3) == pytest.approx(28e-6)
        assert model.current(3.15) == pytest.approx(14e-6)
        assert model.current(0.0) == 0.0

    def test_proportional_leakage_validation(self):
        with pytest.raises(ConfigurationError):
            VoltageProportionalLeakage(rated_current=-1e-6, rated_voltage=6.3)
        with pytest.raises(ConfigurationError):
            VoltageProportionalLeakage(rated_current=1e-6, rated_voltage=0.0)

    @given(voltage=st.floats(0.0, 10.0))
    def test_proportional_leakage_nonnegative(self, voltage):
        model = VoltageProportionalLeakage(rated_current=28e-6, rated_voltage=6.3)
        assert model.current(voltage) >= 0.0


class TestDiodes:
    def test_ideal_diode_drop_is_resistive(self):
        diode = IdealDiode(on_resistance=0.08)
        assert diode.forward_drop(1e-3) == pytest.approx(8e-5)
        assert diode.forward_drop(0.0) == 0.0

    def test_ideal_diode_loses_far_less_than_schottky(self):
        # A Schottky diode drops a fixed ~0.34 V at any forward current.
        current = 1e-3
        assert IdealDiode().power_loss(current) < 0.05 * 0.34 * current

    def test_conduction_direction(self):
        diode = IdealDiode(on_resistance=300.0)  # 0.3 V drop at 1 mA
        assert diode.conducts(3.0, 2.0)
        assert not diode.conducts(2.0, 3.0)
        assert not diode.conducts(2.0, 1.9)  # below the forward drop

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IdealDiode(on_resistance=-1.0)
        with pytest.raises(ConfigurationError):
            IdealDiode(quiescent_current=-1.0)


class TestSwitches:
    def test_break_before_make_counts_actuations(self):
        switch = BreakBeforeMakeSwitch()
        assert switch.state is SwitchState.OPEN
        switch.set_state(SwitchState.POSITION_A)
        switch.set_state(SwitchState.POSITION_B)
        assert switch.actuation_count == 2
        assert switch.energy_spent == pytest.approx(2 * switch.actuation_energy)

    def test_same_state_is_free(self):
        switch = BreakBeforeMakeSwitch(state=SwitchState.POSITION_A)
        assert switch.set_state(SwitchState.POSITION_A) == 0.0
        assert switch.actuation_count == 0

    def test_transition_between_positions_reports_break_time(self):
        switch = BreakBeforeMakeSwitch(break_time=1e-4, state=SwitchState.POSITION_A)
        assert switch.set_state(SwitchState.POSITION_B) == pytest.approx(1e-4)

    def test_closing_from_open_reports_break_time(self):
        switch = BreakBeforeMakeSwitch(break_time=1e-4)
        assert switch.set_state(SwitchState.POSITION_A) == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakBeforeMakeSwitch(break_time=-1.0)
        with pytest.raises(ConfigurationError):
            BreakBeforeMakeSwitch(actuation_energy=-1.0)

    def test_dpdt_ganged_poles(self):
        switch = DpdtSwitch()
        open_time = switch.set_state(SwitchState.POSITION_A)
        assert open_time >= 0.0
        assert switch.state is SwitchState.POSITION_A
        assert switch.actuation_count == 1
        assert switch.energy_spent == pytest.approx(switch.actuation_energy)
