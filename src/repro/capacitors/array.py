"""Vectorized lockstep state for many independent single capacitors.

A :class:`CapacitorArray` is the capacitor layer's contribution to the
multi-system batch engine (:mod:`repro.sim.batch`): it holds the charge of N
independent :class:`~repro.capacitors.capacitor.Capacitor` instances in one
numpy array and advances all of them with a single elementwise operation per
simulation step.

Equivalence contract
--------------------

Every method reproduces the scalar :class:`Capacitor` update **operation for
operation** — the same expressions, in the same order, evaluated in IEEE-754
double precision — so a lane's charge trajectory is bit-identical to running
its capacitor through the scalar engine.  (This is also why the scalar hot
paths use :func:`math.sqrt` rather than ``** 0.5``: ``numpy.sqrt`` and
``math.sqrt`` are both correctly rounded, while ``pow(x, 0.5)`` is not
always.)  Leakage is restricted to models :func:`stack_proportional_leakage`
can vectorize; capacitors with any other model are rejected at construction
so callers fall back to the scalar engine for those lanes.

The per-capacitor :class:`~repro.capacitors.capacitor.EnergyLedger` totals
are accumulated as arrays and written back to the owning objects by
:meth:`writeback`, at which point the scalar and batched representations of
the lane are indistinguishable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.capacitors.capacitor import Capacitor
from repro.capacitors.leakage import stack_proportional_leakage


class CapacitorArray:
    """N independent single capacitors advanced in lockstep.

    Build instances with :meth:`from_capacitors`, which returns None when any
    capacitor's leakage model cannot be vectorized exactly.
    """

    def __init__(
        self,
        capacitors: Sequence[Capacitor],
        leak_rated_current: np.ndarray,
        leak_rated_voltage: np.ndarray,
    ) -> None:
        self.capacitors = list(capacitors)
        self.capacitance = np.array([cap.capacitance for cap in capacitors])
        self.rated_voltage = np.array([cap.rated_voltage for cap in capacitors])
        # Same expression the scalar path evaluates on every harvest call;
        # hoisting it is exact because the operands never change.
        self.max_energy = (
            0.5 * self.capacitance * self.rated_voltage * self.rated_voltage
        )
        self.charge = np.array([cap._charge for cap in capacitors])
        self.leak_rated_current = leak_rated_current
        self.leak_rated_voltage = leak_rated_voltage
        n = len(self.capacitors)
        self.absorbed = np.zeros(n)
        self.delivered = np.zeros(n)
        self.clipped = np.zeros(n)
        self.leaked = np.zeros(n)

    @classmethod
    def from_capacitors(
        cls, capacitors: Sequence[Capacitor]
    ) -> Optional["CapacitorArray"]:
        """Vectorized view over ``capacitors``, or None if one is unbatchable."""
        stacked = stack_proportional_leakage([cap.leakage for cap in capacitors])
        if stacked is None:
            return None
        return cls(capacitors, *stacked)

    def __len__(self) -> int:
        return len(self.capacitors)

    @property
    def voltage(self) -> np.ndarray:
        """Terminal voltages in volts (freshly computed from charge)."""
        return self.charge / self.capacitance

    def energy(self, voltage: np.ndarray) -> np.ndarray:
        """Stored energies for precomputed ``voltage`` (``1/2 C V^2``)."""
        return 0.5 * self.capacitance * voltage * voltage

    # -- lockstep updates ----------------------------------------------------

    def charge_with_energy(self, energy: np.ndarray) -> None:
        """Absorb per-lane harvested energy (joules), clipping at rating.

        Mirrors :meth:`Capacitor.charge_with_energy`, including its early
        return for zero offered energy: lanes whose ``energy`` is zero keep
        their charge bit-unchanged rather than passing through the
        energy→charge round trip.
        """
        active = energy > 0.0
        if not active.any():
            return
        capacitance = self.capacitance
        voltage = self.charge / capacitance
        present = 0.5 * capacitance * voltage * voltage
        new_energy = np.minimum(present + energy, self.max_energy)
        stored = np.where(active, new_energy - present, 0.0)
        self.absorbed += stored
        self.clipped += np.where(active, energy - stored, 0.0)
        self.charge = np.where(
            active, capacitance * np.sqrt(2.0 * new_energy / capacitance), self.charge
        )

    def discharge_current(self, current: np.ndarray, dt: np.ndarray) -> None:
        """Supply per-lane constant-current loads for per-lane ``dt`` seconds.

        Mirrors :meth:`Capacitor.discharge_current` with its default zero
        voltage floor (the power gate, not the capacitor, is what cuts the
        load off in the simulated systems).
        """
        capacitance = self.capacitance
        voltage = self.charge / capacitance
        before = 0.5 * capacitance * voltage * voltage
        new_charge = np.maximum(self.charge - current * dt, 0.0)
        self.charge = new_charge
        voltage = new_charge / capacitance
        self.delivered += before - 0.5 * capacitance * voltage * voltage

    def apply_leakage(self, dt: np.ndarray) -> np.ndarray:
        """Apply per-lane self-discharge; returns the energy each lane lost.

        Mirrors :meth:`Capacitor.apply_leakage` over the vectorized leakage
        form established by :func:`stack_proportional_leakage`.
        """
        capacitance = self.capacitance
        charge = self.charge
        voltage = charge / capacitance
        lost_charge = np.where(
            voltage > 0.0,
            self.leak_rated_current * (voltage / self.leak_rated_voltage) * dt,
            0.0,
        )
        lost_charge = np.minimum(lost_charge, charge)
        before = 0.5 * capacitance * voltage * voltage
        charge = charge - lost_charge
        self.charge = charge
        voltage = charge / capacitance
        leaked = before - 0.5 * capacitance * voltage * voltage
        self.leaked += leaked
        return leaked

    # -- lane management -----------------------------------------------------

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired lanes; ``keep`` is a boolean mask over current lanes."""
        self.capacitors = [cap for cap, k in zip(self.capacitors, keep) if k]
        self.capacitance = self.capacitance[keep]
        self.rated_voltage = self.rated_voltage[keep]
        self.max_energy = self.max_energy[keep]
        self.charge = self.charge[keep]
        self.leak_rated_current = self.leak_rated_current[keep]
        self.leak_rated_voltage = self.leak_rated_voltage[keep]
        self.absorbed = self.absorbed[keep]
        self.delivered = self.delivered[keep]
        self.clipped = self.clipped[keep]
        self.leaked = self.leaked[keep]

    def sync_charges(self, indices: Sequence[int]) -> None:
        """Push the charge of every lane in ``indices`` into its capacitor.

        Called before handing the owning buffers to Python code (workload
        steps observe buffer voltage/energy through the scalar objects).
        One ``tolist`` materialization amortizes the numpy scalar-indexing
        cost across all powered lanes of a batch step.
        """
        charges = self.charge.tolist()
        capacitors = self.capacitors
        for index in indices:
            capacitors[index]._charge = charges[index]

    def writeback(self, index: int) -> None:
        """Write lane ``index``'s full state (charge + ledger) back."""
        cap = self.capacitors[index]
        cap._charge = float(self.charge[index])
        cap.ledger.absorbed += float(self.absorbed[index])
        cap.ledger.delivered += float(self.delivered[index])
        cap.ledger.clipped += float(self.clipped[index])
        cap.ledger.leaked += float(self.leaked[index])
