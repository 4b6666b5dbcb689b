"""Exception hierarchy for the REACT reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with physically or logically invalid values."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class TraceError(ReproError):
    """A power trace could not be loaded, generated, or validated."""


class BankStateError(ReproError):
    """An illegal capacitor-bank state transition was requested."""


class WorkloadError(ReproError):
    """A workload was driven through an invalid sequence of operations."""

