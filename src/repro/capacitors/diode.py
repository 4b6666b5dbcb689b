"""Diode models used for bank isolation.

REACT isolates its capacitor banks with *ideal diode* circuits (an LM66100-
style comparator plus pass transistor) rather than PN or Schottky diodes,
because at the sub-milliamp currents typical of batteryless systems the
forward drop of a passive diode wastes a meaningful fraction of harvested
power.  :class:`IdealDiode` models that circuit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


class Diode(ABC):
    """One-way conduction element with a (possibly zero) power loss."""

    @abstractmethod
    def forward_drop(self, current: float) -> float:
        """Forward voltage drop in volts at ``current`` amperes."""

    def conducts(self, v_anode: float, v_cathode: float) -> bool:
        """True when the diode conducts for the given terminal voltages.

        The threshold is evaluated at a representative 1 mA forward current,
        the operating point the paper uses to compare diode losses.
        """
        return v_anode > v_cathode + self.forward_drop(1e-3)

    def power_loss(self, current: float) -> float:
        """Power dissipated in the diode at ``current`` amperes."""
        if current <= 0.0:
            return 0.0
        return self.forward_drop(current) * current


@dataclass(frozen=True)
class IdealDiode(Diode):
    """Active ideal-diode circuit (comparator + pass FET).

    Modeled as a small on-resistance plus the quiescent current of the
    comparator.  With the LM66100-style circuit the paper uses, the loss at
    1 mA is roughly 0.02 % of a Schottky diode's.
    """

    on_resistance: float = 0.079
    quiescent_current: float = 0.25e-6

    def __post_init__(self) -> None:
        if self.on_resistance < 0.0:
            raise ConfigurationError(
                f"on-resistance must be non-negative, got {self.on_resistance}"
            )
        if self.quiescent_current < 0.0:
            raise ConfigurationError(
                f"quiescent current must be non-negative, got {self.quiescent_current}"
            )

    def forward_drop(self, current: float) -> float:
        if current <= 0.0:
            return 0.0
        return current * self.on_resistance

    def power_loss(self, current: float) -> float:
        conduction = super().power_loss(current)
        # The comparator draws its quiescent current from a ~3 V rail.
        return conduction + self.quiescent_current * 3.0
