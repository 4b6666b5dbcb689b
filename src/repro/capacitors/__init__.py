"""Electrical substrate: capacitors, leakage, diodes, switches, and networks.

This package models the analog components a REACT-style buffer is built
from: the :class:`Capacitor` with its energy ledger and leakage models,
the ideal-diode isolation circuit, the reconfiguration switches, and the
series/parallel combination rules.  Every buffer (static, Morphy, REACT)
is composed from these primitives, so their energy accounting is shared
and directly comparable.
"""

from repro.capacitors.capacitor import Capacitor
from repro.capacitors.leakage import (
    ConstantCurrentLeakage,
    LeakageModel,
    NoLeakage,
    VoltageProportionalLeakage,
)
from repro.capacitors.diode import Diode, IdealDiode
from repro.capacitors.switches import BreakBeforeMakeSwitch, DpdtSwitch, SwitchState
from repro.capacitors.network import parallel_capacitance, series_capacitance

__all__ = [
    "Capacitor",
    "LeakageModel",
    "NoLeakage",
    "ConstantCurrentLeakage",
    "VoltageProportionalLeakage",
    "Diode",
    "IdealDiode",
    "SwitchState",
    "BreakBeforeMakeSwitch",
    "DpdtSwitch",
    "series_capacitance",
    "parallel_capacitance",
]
