"""Capacitor leakage models.

The paper's evaluation hinges partly on leakage: large buffers lose more
harvested energy to leakage while the system sits below its enable voltage
("cold-start" energy), and partially-charged secondary buffers in
multiplexed designs leak energy that never powers work.  Datasheet leakage
figures are given at the rated voltage, so the default model scales the
leakage current proportionally with the present voltage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


class LeakageModel(ABC):
    """Strategy interface: leakage current drawn at a given cell voltage."""

    @abstractmethod
    def current(self, voltage: float) -> float:
        """Leakage current in amperes at ``voltage`` volts."""

    def charge_lost(self, voltage: float, dt: float) -> float:
        """Charge in coulombs lost over a timestep of ``dt`` seconds."""
        return self.current(voltage) * dt


@dataclass(frozen=True)
class NoLeakage(LeakageModel):
    """An ideal, lossless capacitor.  Useful for analytic unit tests."""

    def current(self, voltage: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantCurrentLeakage(LeakageModel):
    """A fixed leakage current whenever any charge is stored."""

    leakage_current: float

    def __post_init__(self) -> None:
        if self.leakage_current < 0.0:
            raise ConfigurationError(
                f"leakage current must be non-negative, got {self.leakage_current}"
            )

    def current(self, voltage: float) -> float:
        if voltage <= 0.0:
            return 0.0
        return self.leakage_current


@dataclass(frozen=True)
class VoltageProportionalLeakage(LeakageModel):
    """Leakage current proportional to voltage (a parallel leakage resistance).

    Datasheets quote leakage at the rated voltage; this model linearly scales
    that figure with the operating voltage, which is the standard first-order
    model for ceramic and electrolytic capacitors.
    """

    rated_current: float
    rated_voltage: float

    def __post_init__(self) -> None:
        if self.rated_current < 0.0:
            raise ConfigurationError(
                f"rated leakage current must be non-negative, got {self.rated_current}"
            )
        if self.rated_voltage <= 0.0:
            raise ConfigurationError(
                f"rated voltage must be positive, got {self.rated_voltage}"
            )

    def current(self, voltage: float) -> float:
        if voltage <= 0.0:
            return 0.0
        return self.rated_current * (voltage / self.rated_voltage)


def stack_proportional_leakage(
    models: Sequence[LeakageModel],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Stack per-lane leakage models into vectorizable parameter arrays.

    The batched simulation kernel advances many independent capacitors in
    lockstep, so each lane's leakage must reduce to the same closed form:
    ``charge_lost = rated_current * (voltage / rated_voltage) * dt`` for
    positive voltages.  :class:`VoltageProportionalLeakage` is exactly that,
    and :class:`NoLeakage` is the ``rated_current = 0`` degenerate case
    (``0.0 * (v / 1.0) * dt`` is exactly ``0.0``, matching the scalar model
    bit-for-bit).  Any other model type — including user subclasses, whose
    ``current`` may be arbitrary Python — returns None, which makes the
    owning buffer report :meth:`~repro.buffers.base.EnergyBuffer.can_batch`
    False so its lane falls back to the scalar engine.

    Returns ``(rated_currents, rated_voltages)`` float arrays, or None.
    """
    rated_currents = np.empty(len(models))
    rated_voltages = np.empty(len(models))
    for index, model in enumerate(models):
        parameters = proportional_leakage(model)
        if parameters is None:
            return None
        rated_currents[index], rated_voltages[index] = parameters
    return rated_currents, rated_voltages


def proportional_leakage(model: LeakageModel) -> Optional[Tuple[float, float]]:
    """``model``'s ``(rated_current, rated_voltage)``, or None.

    The scalar form of :func:`stack_proportional_leakage`: None when the
    model has no closed proportional form.
    """
    if type(model) is VoltageProportionalLeakage:
        return model.rated_current, model.rated_voltage
    if type(model) is NoLeakage:
        return 0.0, 1.0
    return None
