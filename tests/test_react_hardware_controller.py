"""REACT hardware fabric, software controller, and the buffer adapter."""

import copy
import pickle

import pytest

from repro.buffers.react_adapter import ReactBuffer
from repro.core.bank import BankState
from repro.core.config import BankSpec, ReactConfig, table1_config
from repro.core.controller import ControllerAction, ReactController
from repro.core.hardware import ReactHardware
from repro.platform.monitor import BufferSignal
from repro.units import microfarads


def small_config(**overrides) -> ReactConfig:
    """A two-bank fabric that keeps hardware tests quick and legible."""
    parameters = dict(
        last_level_capacitance=microfarads(770.0),
        banks=(
            BankSpec(unit_capacitance=microfarads(220.0), count=3, label="bankA"),
            BankSpec(unit_capacitance=microfarads(880.0), count=3, label="bankB"),
        ),
    )
    parameters.update(overrides)
    return ReactConfig(**parameters)


class TestReactHardware:
    def test_cold_start_only_charges_last_level_buffer(self):
        hardware = ReactHardware(small_config())
        hardware.harvest(1e-3)
        assert hardware.output_voltage > 0.0
        assert all(bank.cell_voltage == 0.0 for bank in hardware.banks)
        assert hardware.equivalent_capacitance == pytest.approx(770e-6)

    def test_harvest_goes_to_lowest_voltage_connected_element(self):
        hardware = ReactHardware(small_config())
        hardware.last_level.set_voltage(3.5)
        hardware.banks[0].connect_series()
        stored = hardware.harvest(1e-4)
        assert stored > 0.0
        assert hardware.banks[0].cell_voltage > 0.0
        assert hardware.last_level.voltage == pytest.approx(3.5)

    def test_harvest_clips_when_everything_full(self):
        config = small_config()
        hardware = ReactHardware(config)
        hardware.last_level.set_voltage(config.max_voltage)
        clipped_before = hardware.energy_clipped
        hardware.harvest(1e-3)
        assert hardware.energy_clipped == pytest.approx(clipped_before + 1e-3)

    def test_replenish_moves_energy_from_bank_to_last_level(self):
        hardware = ReactHardware(small_config())
        hardware.last_level.set_voltage(2.0)
        bank = hardware.banks[1]
        bank.connect_series()
        bank.set_cell_voltage(1.2)  # output 3.6 V > last-level 2.0 V
        moved = hardware.replenish()
        assert moved > 0.0
        assert hardware.last_level.voltage > 2.0
        assert hardware.transfer_loss > 0.0

    def test_replenish_never_exceeds_max_voltage(self):
        config = small_config()
        hardware = ReactHardware(config)
        hardware.last_level.set_voltage(3.5)
        bank = hardware.banks[1]
        bank.connect_series()
        bank.set_cell_voltage(3.5)  # output 10.5 V
        hardware.replenish()
        assert hardware.last_level.voltage <= config.max_voltage + 1e-9

    def test_signal_thresholds(self):
        config = small_config()
        hardware = ReactHardware(config)
        hardware.last_level.set_voltage(3.55)
        assert hardware.signal() is BufferSignal.NEAR_FULL
        hardware.last_level.set_voltage(1.85)
        assert hardware.signal() is BufferSignal.NEAR_EMPTY
        hardware.last_level.set_voltage(2.5)
        assert hardware.signal() is BufferSignal.OK

    def test_capacitance_level_counts_steps(self):
        hardware = ReactHardware(small_config())
        assert hardware.capacitance_level == 0
        hardware.banks[0].connect_series()
        assert hardware.capacitance_level == 1
        hardware.banks[0].to_parallel()
        hardware.banks[1].connect_series()
        assert hardware.capacitance_level == 3

    def test_usable_energy_counts_connected_banks_only(self):
        config = small_config()
        hardware = ReactHardware(config)
        hardware.last_level.set_voltage(3.0)
        base = hardware.usable_energy()
        hardware.banks[0].connect_series()
        hardware.banks[0].set_cell_voltage(1.0)
        assert hardware.usable_energy() > base

    def test_leakage_applies_to_every_capacitor(self):
        hardware = ReactHardware(small_config())
        hardware.last_level.set_voltage(3.0)
        hardware.banks[0].connect_series()
        hardware.banks[0].set_cell_voltage(1.0)
        leaked = hardware.apply_leakage(100.0)
        assert leaked > 0.0

    def test_reset(self):
        hardware = ReactHardware(small_config())
        hardware.harvest(1e-3)
        hardware.banks[0].connect_series()
        hardware.reset()
        assert hardware.stored_energy == 0.0
        assert hardware.capacitance_level == 0


class TestReactController:
    def make(self, **config_overrides):
        config = small_config(**config_overrides)
        hardware = ReactHardware(config)
        return hardware, ReactController(hardware, config)

    def test_poll_respects_poll_period(self):
        hardware, controller = self.make()
        hardware.last_level.set_voltage(2.5)
        assert controller.poll(0.0) is ControllerAction.NONE
        assert controller.poll(0.01) is ControllerAction.NONE
        assert controller.poll_count == 1  # second call was before the next period

    def test_step_up_on_near_full(self):
        hardware, controller = self.make()
        hardware.last_level.set_voltage(3.55)
        action = controller.poll(0.0)
        assert action is ControllerAction.STEP_UP
        assert hardware.banks[0].state is BankState.SERIES

    def test_expansion_rate_limited(self):
        hardware, controller = self.make()
        hardware.last_level.set_voltage(3.55)
        controller.poll(0.0)
        action = controller.poll(controller.config.poll_period)
        assert action is ControllerAction.NONE  # within the expansion hold time
        later = controller.expansion_min_interval + controller.config.poll_period
        assert controller.poll(later) is ControllerAction.STEP_UP

    def test_step_down_reclaims_until_signal_clears(self):
        hardware, controller = self.make()
        # Both banks parallel and charged; the last-level buffer is nearly empty.
        for bank in hardware.banks:
            bank.connect_series()
            bank.to_parallel()
            bank.set_cell_voltage(1.9)
        hardware.last_level.set_voltage(1.85)
        action = controller.poll(0.0)
        assert action is ControllerAction.STEP_DOWN
        assert controller.step_down_count >= 1
        assert hardware.last_level.voltage > 1.85

    def test_ordering_bank_by_bank(self):
        hardware, controller = self.make()
        assert controller.step_up() and hardware.banks[0].state is BankState.SERIES
        assert controller.step_up() and hardware.banks[0].state is BankState.PARALLEL
        assert controller.step_up() and hardware.banks[1].state is BankState.SERIES
        assert controller.step_up() and hardware.banks[1].state is BankState.PARALLEL
        assert not controller.step_up()

    def test_longevity_interface(self):
        hardware, controller = self.make()
        controller.set_minimum_energy(1e-3)
        assert not controller.longevity_satisfied()
        hardware.last_level.set_voltage(3.3)
        hardware.banks[0].connect_series()
        hardware.banks[0].set_cell_voltage(1.2)
        hardware.banks[0].to_parallel()
        if not controller.longevity_satisfied():
            hardware.banks[1].connect_series()
            hardware.banks[1].set_cell_voltage(1.2)
            hardware.banks[1].to_parallel()
        assert controller.longevity_satisfied()
        controller.set_minimum_energy(1.0)
        assert not controller.longevity_satisfied()
        controller.clear_minimum_energy()
        assert controller.longevity_satisfied()

    def test_negative_minimum_energy_rejected(self):
        _, controller = self.make()
        with pytest.raises(ValueError):
            controller.set_minimum_energy(-1.0)

    def test_overhead_models(self):
        hardware, controller = self.make()
        assert controller.hardware_overhead_power() == pytest.approx(
            controller.config.instrumentation_power
        )
        hardware.banks[0].connect_series()
        assert (
            controller.hardware_overhead_power()
            > controller.config.instrumentation_power
        )
        assert controller.software_overhead_current(1.5e-3) > 0.0

    def test_reset(self):
        hardware, controller = self.make()
        hardware.last_level.set_voltage(3.55)
        controller.poll(0.0)
        controller.reset()
        assert controller.poll_count == 0
        assert controller.step_up_count == 0


class TestReactBufferAdapter:
    def test_interface_round_trip(self):
        buffer = ReactBuffer(config=small_config())
        stored = buffer.harvest(2e-3, dt=1.0)
        assert stored > 0.0
        delivered = buffer.draw(current=1e-3, dt=0.5)
        assert delivered > 0.0
        buffer.housekeeping(time=0.0, dt=0.1, system_on=True)
        assert buffer.ledger.offered == pytest.approx(2e-3)

    def test_default_uses_table1(self):
        buffer = ReactBuffer()
        assert buffer.config.maximum_capacitance == pytest.approx(
            table1_config().maximum_capacitance
        )

    def test_supports_longevity(self):
        buffer = ReactBuffer(config=small_config())
        buffer.request_longevity(1e-3)
        assert not buffer.longevity_satisfied()
        buffer.clear_longevity()
        assert buffer.longevity_satisfied()

    def test_overhead_current_grows_with_connected_banks(self):
        buffer = ReactBuffer(config=small_config())
        buffer.hardware.last_level.set_voltage(3.0)
        idle = buffer.overhead_current(system_on=False)
        buffer.hardware.banks[0].connect_series()
        assert buffer.overhead_current(system_on=False) > idle
        assert buffer.overhead_current(system_on=True) > buffer.overhead_current(False)

    def test_capacitance_level_exposed_in_snapshot(self):
        buffer = ReactBuffer(config=small_config())
        snapshot = buffer.snapshot()
        assert snapshot["capacitance_level"] == 0.0
        assert snapshot["connected_banks"] == 0.0

    def test_can_reach_voltage_uses_bank_outputs(self):
        buffer = ReactBuffer(config=small_config())
        assert not buffer.can_reach_voltage(3.3)
        bank = buffer.hardware.banks[0]
        bank.connect_series()
        bank.set_cell_voltage(1.2)  # output 3.6 V
        assert buffer.can_reach_voltage(3.3)

    def test_copies_report_usable_energy(self):
        buffer = ReactBuffer(config=small_config())
        bank = buffer.hardware.banks[0]
        bank.connect_series()
        bank.set_cell_voltage(1.0)
        expected = buffer.usable_energy()
        assert expected > 0.0
        assert copy.deepcopy(buffer).usable_energy() == expected
        assert pickle.loads(pickle.dumps(buffer)).usable_energy() == expected

    def test_ledger_tracks_housekeeping_losses(self):
        buffer = ReactBuffer(config=small_config())
        buffer.harvest(2e-3, dt=1.0)
        buffer.housekeeping(time=0.0, dt=100.0, system_on=False)
        assert buffer.ledger.leaked > 0.0

    def test_reset(self):
        buffer = ReactBuffer(config=small_config())
        buffer.harvest(2e-3, dt=1.0)
        buffer.reset()
        assert buffer.stored_energy == 0.0
        assert buffer.capacitance_level == 0
        assert buffer.ledger.offered == 0.0
