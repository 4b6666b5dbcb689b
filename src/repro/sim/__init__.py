"""Discrete-time simulation engine for batteryless systems.

The engine composes a harvesting frontend, an energy buffer, a power gate,
an MCU, and a workload into a :class:`BatterylessSystem`, then steps the
energy balance forward in time: harvested energy flows into the buffer, the
gate decides whether the platform runs, the workload places a load on the
buffer, and every joule is accounted for in the result ledgers.
"""

from repro.sim.system import BatterylessSystem
from repro.sim.engine import Simulator
from repro.sim.batch import BatchSimulator
from repro.sim.recorder import Recorder, TimelinePoint
from repro.sim.results import SimulationResult
from repro.sim.metrics import (
    aggregate_results,
    figure_of_merit,
    normalize_to_reference,
)

__all__ = [
    "BatterylessSystem",
    "Simulator",
    "BatchSimulator",
    "Recorder",
    "TimelinePoint",
    "SimulationResult",
    "figure_of_merit",
    "normalize_to_reference",
    "aggregate_results",
]
