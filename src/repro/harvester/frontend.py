"""Replayable harvesting frontend (the simulator's power source).

:class:`HarvestingFrontend` is the software equivalent of the paper's
Ekho-inspired record-and-replay power controller: it replays a
:class:`~repro.harvester.trace.PowerTrace` through a
:class:`~repro.harvester.regulator.Regulator` and reports, per timestep, how
much energy is offered to the energy buffer.  It also keeps a ledger of the
raw harvested energy so efficiency metrics can relate "energy that existed in
the environment" to "energy that reached application code".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.harvester.regulator import IdealRegulator, Regulator
from repro.harvester.trace import PowerTrace


@dataclass
class HarvestingFrontend:
    """Replays a power trace through a conversion-efficiency model.

    Parameters
    ----------
    trace:
        The harvested-power timeline to replay.
    regulator:
        Conversion-efficiency model between the transducer and the buffer.
        Defaults to an ideal (lossless) stage so that experiments measuring
        only buffer behaviour are not confounded by converter losses.
    """

    trace: PowerTrace
    regulator: Regulator = field(default_factory=IdealRegulator)

    def __post_init__(self) -> None:
        if self.trace is None:
            raise ConfigurationError("a harvesting frontend requires a power trace")
        self.raw_energy_offered = 0.0
        self.energy_delivered = 0.0

    @property
    def duration(self) -> float:
        """Length of the replayed trace in seconds."""
        return self.trace.duration

    def reset(self) -> None:
        """Clear the energy ledger for a fresh simulation run."""
        self.raw_energy_offered = 0.0
        self.energy_delivered = 0.0

    def raw_power(self, time: float) -> float:
        """Harvested power before conversion losses, in watts."""
        return self.trace.power_at(time)

    def delivered_power(self, time: float, buffer_voltage: float) -> float:
        """Power delivered to the buffer at ``time`` for a given buffer voltage."""
        raw = self.raw_power(time)
        return self.regulator.delivered_power(raw, buffer_voltage)

    def segment_end(self, time: float) -> float:
        """End of the constant-raw-power segment containing ``time``.

        Delegates to the trace's zero-order-hold sample grid; the segment
        planner sizes a fast-forwarded interval against this boundary so
        that every step in it starts in one sample and reads one raw power.
        """
        return self.trace.segment_end(time)

    def sample_index(self, time: float) -> int:
        """Index of the trace sample whose power :meth:`step` reads at ``time``."""
        return self.trace.sample_index(time)

    def credit(self, raw_energy: float, delivered_energy: float) -> None:
        """Account a fast-forwarded interval in the energy ledger.

        The off-phase fast path integrates whole constant-power intervals
        outside :meth:`step`; this applies the same cumulative bookkeeping
        those steps would have produced.
        """
        if raw_energy < 0.0 or delivered_energy < 0.0:
            raise ValueError("fast-forwarded energies must be non-negative")
        self.raw_energy_offered += raw_energy
        self.energy_delivered += delivered_energy

    def step(self, time: float, dt: float, buffer_voltage: float) -> float:
        """Energy (joules) offered to the buffer over ``[time, time + dt)``.

        Updates the frontend's cumulative ledger as a side effect.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        raw = self.raw_power(time)
        delivered = self.regulator.delivered_power(raw, buffer_voltage)
        self.raw_energy_offered += raw * dt
        self.energy_delivered += delivered * dt
        return delivered * dt
