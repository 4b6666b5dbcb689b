"""Energy-harvesting frontend: power traces, harvester models, and replay.

The paper evaluates REACT by replaying recorded RF and solar power traces
through an Ekho-style programmable power frontend.  This package provides
the equivalent software substrate:

* :mod:`repro.harvester.trace` — the :class:`PowerTrace` container and its
  statistics (duration, mean power, coefficient of variation, spikiness),
* :mod:`repro.harvester.synthetic` — seeded generators that produce the five
  evaluation traces calibrated to Table 3 of the paper,
* :mod:`repro.harvester.solar` — a physical model of the solar panel and
  its irradiance,
* :mod:`repro.harvester.regulator` — load/level-dependent conversion
  efficiency of the harvester power stage,
* :mod:`repro.harvester.frontend` — the replay frontend the simulator polls.
"""

from repro.harvester.trace import PowerTrace, TraceStatistics
from repro.harvester.synthetic import (
    SyntheticTraceSpec,
    TABLE3_SPECS,
    generate_table3_trace,
    generate_table3_traces,
    rf_trace,
    solar_trace,
)
from repro.harvester.solar import SolarPanel, diurnal_irradiance
from repro.harvester.regulator import BoostRegulator, IdealRegulator, Regulator
from repro.harvester.frontend import HarvestingFrontend

__all__ = [
    "PowerTrace",
    "TraceStatistics",
    "SyntheticTraceSpec",
    "TABLE3_SPECS",
    "generate_table3_trace",
    "generate_table3_traces",
    "rf_trace",
    "solar_trace",
    "SolarPanel",
    "diurnal_irradiance",
    "Regulator",
    "IdealRegulator",
    "BoostRegulator",
    "HarvestingFrontend",
]
