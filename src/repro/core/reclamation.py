"""Charge-reclamation energy accounting (§3.3.4).

When net power turns negative, REACT reconfigures charged parallel banks
into series, boosting their output voltage so the system can keep
extracting energy after the cell voltage has fallen below the usable
threshold.  Reconfiguration conserves stored energy (no charge moves
between cells); the benefit is purely that the *stranded* energy left when
the output finally reaches the low threshold shrinks by a factor of ``N²``
compared to simply disconnecting the parallel bank.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy


def stranded_energy_without_reclamation(
    cell_count: int, unit_capacitance: float, low_voltage: float
) -> float:
    """Energy stuck on a parallel bank drained only to ``low_voltage``.

    Without reclamation the bank can be used only while its output (equal
    to the cell voltage) stays above the threshold, so each of the ``N``
    cells strands ``1/2 C V_low²``.
    """
    _validate(cell_count, unit_capacitance, low_voltage)
    return cell_count * capacitor_energy(unit_capacitance, low_voltage)


def stranded_energy_with_reclamation(
    cell_count: int, unit_capacitance: float, low_voltage: float
) -> float:
    """Energy stuck on a bank drained to ``low_voltage`` in series mode.

    Draining the series-configured bank output to ``V_low`` leaves every
    cell at ``V_low / N``, stranding ``1/2 C V_low² / N`` in total — a
    factor ``N²`` less than the parallel case.
    """
    _validate(cell_count, unit_capacitance, low_voltage)
    return cell_count * capacitor_energy(unit_capacitance, low_voltage / cell_count)


def reclamation_gain_factor(cell_count: int) -> float:
    """Ratio of stranded energy without vs. with reclamation (``N²``)."""
    if cell_count < 1:
        raise ConfigurationError(f"cell count must be at least 1, got {cell_count}")
    return float(cell_count * cell_count)


def _validate(cell_count: int, unit_capacitance: float, low_voltage: float) -> None:
    if cell_count < 1:
        raise ConfigurationError(f"cell count must be at least 1, got {cell_count}")
    if unit_capacitance <= 0.0:
        raise ConfigurationError(
            f"unit capacitance must be positive, got {unit_capacitance}"
        )
    if low_voltage < 0.0:
        raise ConfigurationError(f"low voltage must be non-negative, got {low_voltage}")
