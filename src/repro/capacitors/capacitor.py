"""Single-capacitor charge/energy model.

A :class:`Capacitor` tracks its stored charge and exposes charge, discharge,
and leakage operations with explicit energy accounting.  Every joule that
enters or leaves the component is attributed to one of:

* ``energy_absorbed`` — harvested energy actually stored,
* ``energy_delivered`` — energy handed to the load,
* ``energy_clipped`` — harvested energy discarded because the capacitor was
  at its rated voltage (the "burned off as heat" loss the paper describes
  for small static buffers),
* ``energy_leaked`` — energy lost to self-discharge.

These counters are what the end-to-end efficiency experiments (Table 2,
Figure 7) aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.capacitors.leakage import LeakageModel, NoLeakage
from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy


@dataclass
class EnergyLedger:
    """Cumulative energy accounting for a storage element."""

    absorbed: float = 0.0
    delivered: float = 0.0
    clipped: float = 0.0
    leaked: float = 0.0

    def as_dict(self) -> dict:
        return {
            "absorbed": self.absorbed,
            "delivered": self.delivered,
            "clipped": self.clipped,
            "leaked": self.leaked,
        }


@dataclass
class Capacitor:
    """An ideal capacitor with a rated voltage and a leakage model.

    Parameters
    ----------
    capacitance:
        Capacitance in farads.
    rated_voltage:
        Maximum voltage the part tolerates.  Charging beyond this level is
        clipped and the excess energy is recorded in the ledger.
    leakage:
        A :class:`~repro.capacitors.leakage.LeakageModel`; defaults to ideal.
    initial_voltage:
        Voltage at construction time, defaults to a fully discharged part.
    """

    capacitance: float
    rated_voltage: float = 6.3
    leakage: LeakageModel = field(default_factory=NoLeakage)
    initial_voltage: float = 0.0
    name: str = "cap"

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0:
            raise ConfigurationError(
                f"capacitance must be positive, got {self.capacitance}"
            )
        if self.rated_voltage <= 0.0:
            raise ConfigurationError(
                f"rated voltage must be positive, got {self.rated_voltage}"
            )
        if not 0.0 <= self.initial_voltage <= self.rated_voltage:
            raise ConfigurationError(
                "initial voltage must lie within [0, rated voltage], got "
                f"{self.initial_voltage}"
            )
        self._charge = self.capacitance * self.initial_voltage
        self.ledger = EnergyLedger()

    # -- state ------------------------------------------------------------

    @property
    def charge(self) -> float:
        """Stored charge in coulombs."""
        return self._charge

    @property
    def voltage(self) -> float:
        """Terminal voltage in volts."""
        return self._charge / self.capacitance

    @property
    def energy(self) -> float:
        """Stored energy in joules."""
        return capacitor_energy(self.capacitance, self.voltage)

    @property
    def max_energy(self) -> float:
        """Energy at the rated voltage."""
        return capacitor_energy(self.capacitance, self.rated_voltage)

    # -- charge manipulation ------------------------------------------------

    def set_voltage(self, voltage: float) -> None:
        """Force the terminal voltage (used for test setup, not simulation)."""
        if not 0.0 <= voltage <= self.rated_voltage:
            raise ConfigurationError(
                f"voltage {voltage} outside [0, {self.rated_voltage}]"
            )
        self._charge = self.capacitance * voltage

    def charge_with_energy(self, energy: float) -> float:
        """Absorb ``energy`` joules from the harvester.

        Returns the energy actually stored; the rest is clipped (recorded as
        overvoltage waste).  Energy-domain charging models a regulated
        harvester front-end that delivers power rather than raw current.
        """
        if energy < 0.0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        if energy == 0.0:
            return 0.0
        # Inlined self.energy / self.max_energy (hot path: once per
        # simulation step for every capacitor behind the harvester).
        capacitance = self.capacitance
        voltage = self._charge / capacitance
        present = 0.5 * capacitance * voltage * voltage
        rated = self.rated_voltage
        max_energy = 0.5 * capacitance * rated * rated
        new_energy = present + energy
        if new_energy > max_energy:
            new_energy = max_energy
        stored = new_energy - present
        clipped = energy - stored
        # math.sqrt rather than ``** 0.5``: both are one libm call, but sqrt
        # is correctly rounded while pow is not always, and the batched
        # (numpy) kernels must reproduce this trajectory bit-for-bit.
        self._charge = capacitance * math.sqrt(2.0 * new_energy / capacitance)
        self.ledger.absorbed += stored
        self.ledger.clipped += clipped
        return stored

    def discharge_current(
        self, current: float, dt: float, v_floor: float = 0.0
    ) -> float:
        """Supply a constant-current load for ``dt`` seconds.

        The discharge stops at ``v_floor`` (e.g. the brown-out voltage when
        the capacitor directly supplies an unregulated MCU).  Returns the
        energy delivered to the load.
        """
        if current < 0.0:
            raise ValueError(f"current must be non-negative, got {current}")
        # Inlined self.energy lookups (hot path: once per simulation step).
        capacitance = self.capacitance
        floor_charge = capacitance * max(v_floor, 0.0)
        voltage = self._charge / capacitance
        before_energy = 0.5 * capacitance * voltage * voltage
        new_charge = max(self._charge - current * dt, floor_charge)
        self._charge = new_charge
        voltage = new_charge / capacitance
        delivered = before_energy - 0.5 * capacitance * voltage * voltage
        self.ledger.delivered += delivered
        return delivered

    def apply_leakage(self, dt: float) -> float:
        """Apply self-discharge over ``dt`` seconds; returns energy lost."""
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        # Inlined self.voltage / self.energy (hot path: once per step).
        capacitance = self.capacitance
        charge = self._charge
        voltage = charge / capacitance
        lost_charge = min(self.leakage.charge_lost(voltage, dt), charge)
        before_energy = 0.5 * capacitance * voltage * voltage
        charge -= lost_charge
        self._charge = charge
        voltage = charge / capacitance
        leaked = before_energy - 0.5 * capacitance * voltage * voltage
        self.ledger.leaked += leaked
        return leaked

    def reset(self, voltage: float = 0.0) -> None:
        """Reset stored charge and the energy ledger (new experiment run)."""
        self.set_voltage(voltage)
        self.ledger = EnergyLedger()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"{type(self).__name__}(name={self.name!r}, C={self.capacitance:.6g} F, "
            f"V={self.voltage:.3f} V)"
        )
