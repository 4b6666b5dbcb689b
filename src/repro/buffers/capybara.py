"""Capybara-style multiplexed static storage (Colin et al., ASPLOS'18).

Capybara provisions a small "base" capacitor for responsive, low-power
operation and one or more larger task capacitors that are pre-charged for
specific high-energy atomic operations.  The design increases capacity
without hurting reactivity, but energy parked on a task capacitor is not
fungible: it cannot serve other work and slowly leaks away if the task
never runs (§2.3 of the REACT paper).

This implementation is provided as a related-work extension (it is not one
of the paper's evaluated baselines) so users can explore the
fungibility-versus-provisioning tradeoff the paper argues motivates REACT.
"""

from __future__ import annotations

import math

from typing import Dict

from repro.buffers.base import EnergyBuffer
from repro.buffers.static import DEFAULT_LEAKAGE_PER_FARAD
from repro.capacitors.capacitor import Capacitor
from repro.capacitors.leakage import VoltageProportionalLeakage
from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy, microfarads, millifarads


class CapybaraBuffer(EnergyBuffer):
    """A base capacitor plus a task capacitor charged opportunistically.

    The base capacitor supplies the platform; surplus harvested energy
    (anything that would overflow the base capacitor) is diverted to the
    task capacitor.  Software may "bank" on the task capacitor by issuing a
    longevity request; the request is satisfied once the task capacitor is
    charged, at which point its energy is dumped onto the base capacitor
    (through a switch, with the usual capacitor-to-capacitor transfer loss).
    """

    supports_longevity = True

    def __init__(
        self,
        base_capacitance: float = microfarads(770.0),
        task_capacitance: float = millifarads(10.0),
        max_voltage: float = 3.6,
        brownout_voltage: float = 1.8,
        name: str = "Capybara",
    ) -> None:
        super().__init__()
        if max_voltage <= brownout_voltage:
            raise ConfigurationError("max voltage must exceed brown-out voltage")
        self.brownout_voltage = brownout_voltage
        self.max_voltage = max_voltage
        self.base = Capacitor(
            capacitance=base_capacitance,
            rated_voltage=max_voltage,
            leakage=VoltageProportionalLeakage(
                rated_current=DEFAULT_LEAKAGE_PER_FARAD * base_capacitance,
                rated_voltage=6.3,
            ),
            name="capybara-base",
        )
        self.task = Capacitor(
            capacitance=task_capacitance,
            rated_voltage=max_voltage,
            leakage=VoltageProportionalLeakage(
                rated_current=DEFAULT_LEAKAGE_PER_FARAD * task_capacitance,
                rated_voltage=6.3,
            ),
            name="capybara-task",
        )
        self.name = name
        self._task_dump_count = 0

    # -- telemetry ----------------------------------------------------------------------

    @property
    def output_voltage(self) -> float:
        return self.base.voltage

    @property
    def stored_energy(self) -> float:
        return self.base.energy + self.task.energy

    @property
    def capacitance(self) -> float:
        return self.base.capacitance

    def usable_energy(self) -> float:
        floor = capacitor_energy(self.base.capacitance, self.brownout_voltage)
        base_usable = max(0.0, self.base.energy - floor)
        return base_usable + self.task.energy

    def snapshot(self) -> Dict[str, float]:
        snapshot = super().snapshot()
        snapshot["task_voltage"] = self.task.voltage
        return snapshot

    # -- off-phase fast forwarding ------------------------------------------------------

    def post_harvest_voltage_bound(self, energy: float) -> float:
        """Exact bound: harvest charges the base capacitor first.

        Surplus only spills to the task capacitor once the base capacitor
        is at its rated voltage, so the all-onto-base case (which is what
        the base-class default computes, since ``capacitance`` reports the
        base capacitor) is the true post-harvest output voltage up to the
        overvoltage clamp.  Capybara otherwise relies on the conservative
        generic fast path: the task-capacitor dump in housekeeping depends
        only on state that is frozen while the platform is off, so the
        step-replaying fallback reproduces it exactly.
        """
        if energy <= 0.0:
            return self.base.voltage
        new_energy = min(self.base.energy + energy, self.base.max_energy)
        return math.sqrt(2.0 * new_energy / self.base.capacitance)

    # -- energy flow -----------------------------------------------------------------------

    def harvest(self, energy: float, dt: float) -> float:
        self.ledger.offered += energy
        stored = self.base.charge_with_energy(energy)
        spill = energy - stored
        if spill > 0.0:
            stored += self.task.charge_with_energy(spill)
        clipped = energy - stored
        self.ledger.stored += stored
        self.ledger.clipped += clipped
        return stored

    def draw(self, current: float, dt: float) -> float:
        delivered = self.base.discharge_current(current, dt)
        self.ledger.delivered += delivered
        return delivered

    def housekeeping(self, time: float, dt: float, system_on: bool) -> None:
        self.ledger.leaked += self.base.apply_leakage(dt)
        self.ledger.leaked += self.task.apply_leakage(dt)
        # When a longevity request is pending and the task capacitor can
        # satisfy it, dump the banked energy onto the base capacitor.
        if (
            self.longevity_request > 0.0
            and self.task.energy >= self.longevity_request
            and self.base.voltage < self.task.voltage
        ):
            self._dump_task_capacitor()

    def _dump_task_capacitor(self) -> None:
        """Connect the charged task capacitor across the base capacitor."""
        total_charge = self.base.charge + self.task.charge
        total_capacitance = self.base.capacitance + self.task.capacitance
        final_voltage = min(total_charge / total_capacitance, self.max_voltage)
        before = self.base.energy + self.task.energy
        self.base.set_voltage(final_voltage)
        self.task.set_voltage(final_voltage)
        after = self.base.energy + self.task.energy
        self.ledger.switching_loss += max(0.0, before - after)
        self._task_dump_count += 1

    # -- longevity -------------------------------------------------------------------------------

    def longevity_satisfied(self) -> bool:
        return self.usable_energy() >= self.longevity_request

    # -- lifecycle --------------------------------------------------------------------------------

    def reset(self) -> None:
        self.base.reset()
        self.task.reset()
        self._task_dump_count = 0
        self._reset_base()
