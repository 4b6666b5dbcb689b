"""Unit helpers and physical constants used across the library.

All internal quantities use SI base units: volts, amperes, farads, joules,
watts, seconds.  The helpers below exist so that configuration code can be
written in the units the paper uses (microfarads, millifarads, milliamps,
microamps) without sprinkling powers of ten through the codebase.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Multiplicative prefixes
# ---------------------------------------------------------------------------

MILLI = 1e-3
MICRO = 1e-6


def microfarads(value: float) -> float:
    """Convert a value expressed in microfarads to farads."""
    return value * MICRO


def millifarads(value: float) -> float:
    """Convert a value expressed in millifarads to farads."""
    return value * MILLI


def milliamps(value: float) -> float:
    """Convert a value expressed in milliamps to amperes."""
    return value * MILLI


def microamps(value: float) -> float:
    """Convert a value expressed in microamps to amperes."""
    return value * MICRO


def next_grid_time(time: float, period: float) -> float:
    """The next exact multiple of ``period`` strictly after ``time``.

    The snap-to-grid rule shared by every fixed-rate schedule in the
    simulator (recorder decimation, the Morphy controller's 10 Hz poll):
    anchoring the next event on the period grid rather than ``time +
    period`` keeps the schedule from drifting with the simulation step
    size.  Guards the floating-point edge where ``time`` sits exactly on a
    grid point whose quotient floored low (e.g. ``4.3 / 0.1 == 42.999…``),
    which would otherwise return ``time`` itself and fire the schedule
    twice in one period.

    :meth:`repro.buffers.morphy_batch.MorphyBatchKernel.housekeeping`
    mirrors this expression elementwise over lane arrays; any change here
    must be reflected there (the Morphy batch/scalar bit-equality tests
    pin the pairing).
    """
    next_time = (math.floor(time / period) + 1.0) * period
    if next_time <= time:
        next_time += period
    return next_time


def capacitor_energy(capacitance: float, voltage: float) -> float:
    """Energy stored on an ideal capacitor: ``E = 1/2 C V^2``."""
    return 0.5 * capacitance * voltage * voltage


def usable_energy(capacitance: float, v_high: float, v_low: float) -> float:
    """Energy extractable from a capacitor between two voltage levels.

    This is the quantity batteryless designers size buffers by: the energy
    available while the supply stays within the operating window
    ``[v_low, v_high]``.
    """
    if v_high < v_low:
        raise ValueError(f"v_high ({v_high}) must be >= v_low ({v_low})")
    return 0.5 * capacitance * (v_high * v_high - v_low * v_low)
