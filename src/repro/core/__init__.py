"""REACT core: reconfigurable, energy-adaptive capacitor banks.

This package implements the paper's contribution:

* :mod:`repro.core.config` — bank-fabric configuration (Table 1 defaults,
  voltage thresholds, polling rate, overhead figures),
* :mod:`repro.core.bank` — a single isolated capacitor bank and its
  disconnected/series/parallel state machine,
* :mod:`repro.core.hardware` — the bank fabric: last-level buffer, isolation
  diodes, voltage instrumentation, and the energy-flow rules between them,
* :mod:`repro.core.controller` — the minimal software component: polling,
  the per-bank state machine stepping, and software-directed longevity,
* :mod:`repro.core.sizing` — the bank-size constraint math (Equations 1–2),
* :mod:`repro.core.reclamation` — charge-reclamation energy accounting
  (§3.3.4).
"""

from repro.core.config import BankSpec, ReactConfig, table1_config
from repro.core.bank import BankState, CapacitorBank
from repro.core.hardware import ReactHardware
from repro.core.controller import ControllerAction, ReactController
from repro.core.sizing import (
    max_unit_capacitance,
    voltage_after_series_switch,
    validate_bank_sizing,
)
from repro.core.reclamation import (
    reclamation_gain_factor,
    stranded_energy_with_reclamation,
    stranded_energy_without_reclamation,
)

__all__ = [
    "ReactConfig",
    "BankSpec",
    "table1_config",
    "CapacitorBank",
    "BankState",
    "ReactHardware",
    "ReactController",
    "ControllerAction",
    "voltage_after_series_switch",
    "max_unit_capacitance",
    "validate_bank_sizing",
    "reclamation_gain_factor",
    "stranded_energy_with_reclamation",
    "stranded_energy_without_reclamation",
]
