"""REACT's software controller (§3.4).

The controller is deliberately tiny: it polls the two-comparator voltage
instrumentation at a fixed rate (10 Hz in the paper) and maintains a state
machine per capacitor bank.  On a buffer-full signal it expands capacitance
one step — connecting the next bank in series, then reconfiguring it to
parallel — and on a buffer-empty signal it steps the fabric the opposite
way, reclaiming charge by switching parallel banks to series before
disconnecting them.

It also exposes the software-directed longevity interface (§3.4.1):
application code can request a minimum buffered-energy level and sleep
until the fabric has accumulated it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.core.bank import CapacitorBank
from repro.core.config import ReactConfig
from repro.core.hardware import ReactHardware
from repro.platform.monitor import BufferSignal


class ControllerAction(Enum):
    """What the controller did on a given poll."""

    NONE = "none"
    STEP_UP = "step_up"
    STEP_DOWN = "step_down"


@dataclass
class PollRecord:
    """One controller poll, kept for the characterization experiment (§5.1)."""

    time: float
    signal: BufferSignal
    action: ControllerAction
    capacitance_level: int


class ReactController:
    """Polling state machine that drives bank reconfiguration."""

    def __init__(
        self,
        hardware: ReactHardware,
        config: Optional[ReactConfig] = None,
        expansion_min_interval: float = 0.3,
    ) -> None:
        self.hardware = hardware
        self.config = config or hardware.config
        self.expansion_min_interval = expansion_min_interval
        self._next_poll_time = 0.0
        self._last_expansion_time = -float("inf")
        self.poll_count = 0
        self.step_up_count = 0
        self.step_down_count = 0
        self.history: List[PollRecord] = []
        self.record_history = False
        self._minimum_energy = 0.0

    # -- polling --------------------------------------------------------------------

    def poll_due(self, time: float) -> bool:
        """True when the polling timer has elapsed."""
        return time >= self._next_poll_time

    def poll(self, time: float) -> ControllerAction:
        """Run one controller poll at simulation time ``time``.

        The caller (the buffer adapter) only invokes this while the MCU is
        powered, because the controller is software running on the target.
        """
        if not self.poll_due(time):
            return ControllerAction.NONE
        self._next_poll_time = time + self.config.poll_period
        self.poll_count += 1
        signal = self.hardware.signal()
        action = ControllerAction.NONE
        if signal is BufferSignal.NEAR_FULL:
            # Expansion is rate-limited: the buffer must *keep* charging after
            # a step before the controller adds more capacitance, otherwise a
            # brief surplus under a light load would ratchet the fabric to its
            # maximum size and reintroduce the slow-cold-start problem of a
            # large static buffer (§3.3.3's "small steps").
            if time - self._last_expansion_time >= self.expansion_min_interval:
                if self.step_up():
                    action = ControllerAction.STEP_UP
                    self._last_expansion_time = time
        elif signal is BufferSignal.NEAR_EMPTY:
            # Reclamation is not rate-limited: once net power is negative the
            # controller keeps stepping banks down (parallel -> series ->
            # disconnected) until the boosted banks lift the last-level buffer
            # back above the low threshold or nothing is left to reclaim.
            # This is the §3.3.4 charge-reclamation path and it must keep
            # pace with high-current atomic operations.
            steps = 0
            while signal is BufferSignal.NEAR_EMPTY and self.step_down():
                action = ControllerAction.STEP_DOWN
                steps += 1
                self.hardware.replenish()
                signal = self.hardware.signal()
                if steps >= 2 * len(self.hardware.banks):
                    break
        if self.record_history:
            self.history.append(
                PollRecord(
                    time=time,
                    signal=signal,
                    action=action,
                    capacitance_level=self.hardware.capacitance_level,
                )
            )
        return action

    # -- bank stepping -----------------------------------------------------------------

    def step_up(self) -> bool:
        """Expand capacitance by one step; returns False when already maximal."""
        bank = self._next_bank_to_expand()
        if bank is None:
            return False
        bank.step_up()
        self.step_up_count += 1
        return True

    def step_down(self) -> bool:
        """Shrink capacitance by one step (reclamation); returns False at minimum."""
        bank = self._next_bank_to_retreat()
        if bank is None:
            return False
        bank.step_down()
        self.step_down_count += 1
        return True

    def _next_bank_to_expand(self) -> Optional[CapacitorBank]:
        """Banks are expanded in connection order: series first, then parallel."""
        for bank in self.hardware.banks:
            if bank.can_step_up:
                return bank
        return None

    def _next_bank_to_retreat(self) -> Optional[CapacitorBank]:
        """Banks retreat in reverse connection order (§3.4)."""
        for bank in reversed(self.hardware.banks):
            if bank.can_step_down:
                return bank
        return None

    # -- software-directed longevity (§3.4.1) ----------------------------------------------

    def set_minimum_energy(self, energy: float) -> None:
        """Request that the fabric accumulate ``energy`` joules of usable charge."""
        if energy < 0.0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        self._minimum_energy = energy

    def clear_minimum_energy(self) -> None:
        """Drop the pending longevity request."""
        self._minimum_energy = 0.0

    def longevity_satisfied(self) -> bool:
        """True when the fabric's usable energy meets the pending request."""
        return self.hardware.usable_energy() >= self._minimum_energy

    # -- overhead model --------------------------------------------------------------------

    def software_overhead_current(self, active_current: float) -> float:
        """Average extra MCU current due to polling while the system runs."""
        return self.config.software_overhead_fraction(active_current) * active_current

    def hardware_overhead_power(self) -> float:
        """Quiescent power of instrumentation plus per-connected-bank circuitry."""
        connected = len(self.hardware.connected_banks)
        return (
            self.config.instrumentation_power
            + connected * self.config.per_bank_overhead_power
        )

    # -- lifecycle -----------------------------------------------------------------------------

    def reset(self) -> None:
        """Restore the controller to its power-on state."""
        self._next_poll_time = 0.0
        self._last_expansion_time = -float("inf")
        self.poll_count = 0
        self.step_up_count = 0
        self.step_down_count = 0
        self.history = []
        self._minimum_energy = 0.0
