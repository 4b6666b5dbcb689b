"""Single-capacitor model: charging, discharging, clipping, and the ledger."""

import pytest
from hypothesis import given, strategies as st

from repro.capacitors.capacitor import Capacitor
from repro.capacitors.leakage import ConstantCurrentLeakage
from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy


def make_cap(capacitance=1e-3, rated=3.6, initial=0.0, leakage=None) -> Capacitor:
    kwargs = {}
    if leakage is not None:
        kwargs["leakage"] = leakage
    return Capacitor(
        capacitance=capacitance, rated_voltage=rated, initial_voltage=initial, **kwargs
    )


class TestConstruction:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ConfigurationError):
            make_cap(capacitance=0.0)

    def test_rejects_nonpositive_rated_voltage(self):
        with pytest.raises(ConfigurationError):
            make_cap(rated=0.0)

    def test_rejects_initial_voltage_above_rating(self):
        with pytest.raises(ConfigurationError):
            make_cap(initial=4.0, rated=3.6)

    def test_initial_voltage_sets_charge(self):
        cap = make_cap(initial=2.0)
        assert cap.voltage == pytest.approx(2.0)
        assert cap.charge == pytest.approx(2e-3)


class TestEnergyCharging:
    def test_charge_with_energy_stores_exactly(self):
        cap = make_cap()
        stored = cap.charge_with_energy(1e-3)
        assert stored == pytest.approx(1e-3)
        assert cap.energy == pytest.approx(1e-3)

    def test_charge_clips_at_rated_voltage(self):
        cap = make_cap()
        stored = cap.charge_with_energy(1.0)  # far beyond capacity
        assert cap.voltage == pytest.approx(3.6)
        assert stored == pytest.approx(cap.max_energy)
        assert cap.ledger.clipped == pytest.approx(1.0 - cap.max_energy)

    def test_charge_with_zero_energy_is_noop(self):
        cap = make_cap(initial=1.0)
        assert cap.charge_with_energy(0.0) == 0.0
        assert cap.voltage == pytest.approx(1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            make_cap().charge_with_energy(-1.0)


class TestDischarge:
    def test_discharge_current_removes_charge(self):
        cap = make_cap(initial=3.0)
        delivered = cap.discharge_current(current=1e-3, dt=1.0)
        assert cap.voltage == pytest.approx(2.0)
        assert delivered == pytest.approx(
            capacitor_energy(1e-3, 3.0) - capacitor_energy(1e-3, 2.0)
        )

    def test_discharge_respects_voltage_floor(self):
        cap = make_cap(initial=2.0)
        cap.discharge_current(current=1.0, dt=10.0, v_floor=1.8)
        assert cap.voltage == pytest.approx(1.8)

    def test_negative_discharge_rejected(self):
        with pytest.raises(ValueError):
            make_cap(initial=1.0).discharge_current(-1e-3, 1.0)


class TestLeakage:
    def test_leakage_reduces_charge_and_updates_ledger(self):
        cap = make_cap(initial=3.0, leakage=ConstantCurrentLeakage(1e-6))
        leaked = cap.apply_leakage(dt=10.0)
        assert cap.voltage < 3.0
        assert leaked > 0.0
        assert cap.ledger.leaked == pytest.approx(leaked)

    def test_no_leakage_when_empty(self):
        cap = make_cap(leakage=ConstantCurrentLeakage(1e-6))
        assert cap.apply_leakage(dt=10.0) == 0.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            make_cap().apply_leakage(-1.0)


class TestLedgerAndReset:
    def test_reset_clears_state_and_ledger(self):
        cap = make_cap(initial=3.0)
        cap.discharge_current(1e-3, 1.0)
        cap.reset()
        assert cap.voltage == 0.0
        assert cap.ledger.delivered == 0.0


@given(
    initial=st.floats(0.0, 3.6),
    energy_in=st.floats(0.0, 0.1),
    current=st.floats(0.0, 0.1),
    dt=st.floats(0.0, 10.0),
)
def test_energy_accounting_balances(initial, energy_in, current, dt):
    """absorbed - delivered == change in stored energy (no leakage configured)."""
    cap = make_cap(initial=initial)
    start = cap.energy
    cap.charge_with_energy(energy_in)
    cap.discharge_current(current, dt)
    absorbed = cap.ledger.absorbed
    delivered = cap.ledger.delivered
    assert cap.energy == pytest.approx(
        start + absorbed - delivered, rel=1e-9, abs=1e-12
    )
    assert 0.0 <= cap.voltage <= cap.rated_voltage + 1e-9
