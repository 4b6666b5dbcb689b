"""Radio Transmission (RT) benchmark: atomic, energy-hungry uplink bursts.

RT drains a backlog of buffered sensor data by sending it to a base
station.  Transmissions are atomic — a brown-out mid-packet wastes the
energy already spent — and energy-intensive, making RT the paper's
longevity-bound benchmark.  Transmissions are delay-tolerant, so
longevity-aware buffers (REACT, Morphy) first reserve enough energy to
guarantee completion (§3.4.1) while static buffers simply attempt the send
and risk a doomed-to-fail transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.platform.peripherals import Radio
from repro.workloads.base import (
    PowerDemand,
    QuiescenceHint,
    StepContext,
    Workload,
    WorkloadMetrics,
    phase_end,
)
from repro.workloads.kernels.crc import crc16_ccitt


@dataclass
class RadioTransmit(Workload):
    """Send buffered data over the radio as energy allows.

    Parameters
    ----------
    radio:
        Radio power model; its ``transmit_energy`` is what longevity-aware
        software reserves against.
    data_period:
        Seconds between sensor readings being appended to the transmit
        backlog.  Data accumulates whether or not the platform is powered
        (the readings come from a remanence-backed buffer), so a system that
        spends time dark catches up when energy returns.
    packaging_time:
        Active-mode seconds spent framing a packet before keying the radio.
    energy_margin:
        Multiplier on the transmit energy when requesting a longevity
        guarantee, to cover MCU overhead during the burst.
    use_longevity_guarantee:
        When True (the default) and the buffer supports it, wait in deep
        sleep until the buffer holds enough reserved energy before starting
        a transmission.  Static buffers ignore this and transmit eagerly.
    """

    radio: Radio = field(default_factory=Radio)
    data_period: float = 2.5
    packaging_time: float = 0.05
    energy_margin: float = 1.8
    use_longevity_guarantee: bool = True
    execute_kernel: bool = False
    name: str = field(default="RT", init=False)

    def __post_init__(self) -> None:
        if self.data_period <= 0.0:
            raise ConfigurationError("data period must be positive")
        if self.packaging_time < 0.0:
            raise ConfigurationError("packaging time must be non-negative")
        if self.energy_margin < 1.0:
            raise ConfigurationError("energy margin must be at least 1.0")
        self._phase: Optional[str] = None
        self._phase_remaining = 0.0
        self._sequence_number = 0
        self._waiting_for_energy = False
        self._backlog = 0
        self._last_time = 0.0
        self._metrics = WorkloadMetrics()

    # -- Workload interface --------------------------------------------------------

    def step(self, ctx: StepContext) -> PowerDemand:
        self._accumulate_data(ctx.time + ctx.dt)
        if not ctx.system_on:
            return PowerDemand.off()

        if self._phase is None:
            if self._backlog <= 0:
                # Nothing to send yet: wait for the next sensor reading.
                return PowerDemand.deep_sleeping()
            return self._try_start_transmission(ctx)

        self._phase_remaining -= ctx.dt
        if self._phase == "package":
            if self._phase_remaining <= 0.0:
                self._phase = "transmit"
                self._phase_remaining = self.radio.transmit_time
            return PowerDemand.active()

        # transmit phase
        if self._phase_remaining <= 0.0:
            self._complete_transmission()
            self._phase = None
            return PowerDemand.active()
        return PowerDemand.active(peripheral_current=self.radio.transmit_current)

    def quiescent_until(self, ctx: StepContext) -> Optional[QuiescenceHint]:
        """Quiescent while waiting for data, for a longevity reserve, or in flight.

        Two deep-sleep stretches dominate RT's on-time: an empty backlog
        (demand fixed until the next sensor reading lands on the
        ``data_period`` grid) and a pending longevity request (demand
        fixed until the buffer's reserve condition is met — a wake voltage
        when the buffer can express one, otherwise the engine guards on
        the pending request's usable energy).  An in-flight package or
        transmit phase holds its demand until the step that completes its
        countdown, which must execute normally; its end time is the
        expiry.
        """
        if self._phase is not None:
            if self._phase_remaining - ctx.dt <= 0.0:
                return None  # the next step completes the phase
            if self._phase == "package":
                demand = PowerDemand.active()
            else:
                demand = PowerDemand.active(
                    peripheral_current=self.radio.transmit_current
                )
            return QuiescenceHint(
                no_demand_change_before_time=phase_end(
                    ctx.time, ctx.dt, self._phase_remaining
                ),
                demand=demand,
            )
        if self._backlog <= 0:
            return QuiescenceHint(
                no_demand_change_before_time=self._last_time + self.data_period,
                demand=PowerDemand.deep_sleeping(),
            )
        if self._waiting_for_energy:
            return QuiescenceHint(
                no_demand_change_before_time=math.inf,
                wake_on_voltage=ctx.buffer.longevity_wake_voltage(),
                demand=PowerDemand.deep_sleeping(),
            )
        return None

    def skip_quiescent(self, ctx: StepContext, steps: int, step_dt: float) -> None:
        # The quiescent step path only advances the data-accumulation
        # clock; re-evaluating the longevity condition (which ``step``
        # would also do, read-only) is deliberately skipped so a reserve
        # that fills on the window's final housekeeping cannot start a
        # transmission one step earlier than stepped execution would.  An
        # in-flight phase replays its countdown, one subtraction per step.
        self._accumulate_data(ctx.time + ctx.dt)
        if self._phase is not None:
            for _ in range(steps):
                self._phase_remaining -= step_dt

    def on_power_loss(self, time: float) -> None:
        if self._phase is not None:
            self._metrics.failed_operations += 1
        self._phase = None
        self._phase_remaining = 0.0
        self._waiting_for_energy = False

    def metrics(self) -> WorkloadMetrics:
        self._metrics.extra["transmissions"] = self._metrics.work_units
        return self._metrics

    def reset(self) -> None:
        self._phase = None
        self._phase_remaining = 0.0
        self._sequence_number = 0
        self._waiting_for_energy = False
        self._backlog = 0
        self._last_time = 0.0
        self._metrics = WorkloadMetrics()
        self.radio.reset()

    # -- internals -------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Readings waiting to be transmitted."""
        return self._backlog

    def _accumulate_data(self, now: float) -> None:
        """Append newly produced sensor readings to the transmit backlog."""
        while self._last_time + self.data_period <= now:
            self._last_time += self.data_period
            self._backlog += 1

    @property
    def reserve_energy(self) -> float:
        """Energy requested from the buffer before starting a transmission."""
        return self.radio.transmit_energy * self.energy_margin

    def _try_start_transmission(self, ctx: StepContext) -> PowerDemand:
        buffer = ctx.buffer
        if self.use_longevity_guarantee and buffer.supports_longevity:
            if not self._waiting_for_energy:
                buffer.request_longevity(self.reserve_energy)
                self._waiting_for_energy = True
            if not buffer.longevity_satisfied():
                # Wait in deep sleep for the buffer to accumulate the reserve.
                return PowerDemand.deep_sleeping()
            buffer.clear_longevity()
            self._waiting_for_energy = False
        self._phase = "package"
        self._phase_remaining = self.packaging_time
        return PowerDemand.active()

    def _complete_transmission(self) -> None:
        if self.execute_kernel:
            payload = self._sequence_number.to_bytes(4, "big") * 4
            crc16_ccitt(payload)
        self._sequence_number += 1
        self._backlog = max(0, self._backlog - 1)
        self._metrics.work_units += 1.0
