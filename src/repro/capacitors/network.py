"""Capacitor-network math: series and parallel combination rules."""

from __future__ import annotations

from typing import Iterable


def series_capacitance(capacitances: Iterable[float]) -> float:
    """Equivalent capacitance of capacitors in series."""
    inverse = 0.0
    count = 0
    for value in capacitances:
        if value <= 0.0:
            raise ValueError(f"capacitance must be positive, got {value}")
        inverse += 1.0 / value
        count += 1
    if count == 0:
        raise ValueError("at least one capacitor is required")
    return 1.0 / inverse


def parallel_capacitance(capacitances: Iterable[float]) -> float:
    """Equivalent capacitance of capacitors in parallel."""
    total = 0.0
    count = 0
    for value in capacitances:
        if value <= 0.0:
            raise ValueError(f"capacitance must be positive, got {value}")
        total += value
        count += 1
    if count == 0:
        raise ValueError("at least one capacitor is required")
    return total
