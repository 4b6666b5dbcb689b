"""Microcontroller power model.

The testbed MCU is an MSP430FR5994 power-gated directly from the energy
buffer (no regulator), so its load on the buffer is well approximated by a
mode-dependent current draw.  The model tracks time spent in each mode and
total charge drawn, which feeds the overhead characterization experiment
(§5.1) and the end-to-end efficiency metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

from repro.exceptions import ConfigurationError
from repro.units import microamps, milliamps


class PowerMode(Enum):
    """Operating mode of the microcontroller.

    ``SLEEP`` is the platform's *idle* state between bursts of work: the
    wake timer, supervision, and benchmark peripherals remain biased, so it
    draws two orders of magnitude more than ``DEEP_SLEEP``, the
    wait-for-energy state longevity-aware software parks in while the
    buffer charges (§3.4.1).
    """

    OFF = "off"
    DEEP_SLEEP = "deep_sleep"
    SLEEP = "sleep"
    ACTIVE = "active"


@dataclass
class Microcontroller:
    """A power-gated microcontroller with mode-dependent current draw.

    Parameters
    ----------
    active_current:
        Supply current while executing code (amperes).
    sleep_current:
        Supply current in the low-power (LPM3-style) sleep mode with a wake
        timer running.
    off_current:
        Residual current when the power gate has disconnected the MCU
        (essentially the gate's own leakage).
    """

    name: str = "mcu"
    active_current: float = milliamps(1.5)
    sleep_current: float = microamps(2.0)
    deep_sleep_current: float = microamps(2.0)
    off_current: float = 0.0
    mode: PowerMode = PowerMode.OFF
    time_in_mode: Dict[PowerMode, float] = field(default_factory=dict)
    charge_drawn: float = field(default=0.0, init=False)
    wakeup_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        for label, value in (
            ("active", self.active_current),
            ("sleep", self.sleep_current),
            ("deep sleep", self.deep_sleep_current),
            ("off", self.off_current),
        ):
            if value < 0.0:
                raise ConfigurationError(f"{label} current must be non-negative")
        if self.sleep_current > self.active_current:
            raise ConfigurationError("sleep current cannot exceed active current")
        if self.deep_sleep_current > self.sleep_current:
            raise ConfigurationError("deep-sleep current cannot exceed sleep current")
        if not self.time_in_mode:
            self.time_in_mode = {mode: 0.0 for mode in PowerMode}

    # -- mode management ------------------------------------------------------

    def set_mode(self, mode: PowerMode) -> None:
        """Change operating mode (counts OFF→non-OFF transitions as wakeups)."""
        if mode is self.mode:
            return
        if self.mode is PowerMode.OFF and mode is not PowerMode.OFF:
            self.wakeup_count += 1
        self.mode = mode

    def power_off(self) -> None:
        """The power gate disconnected the MCU (brown-out or cold start)."""
        self.mode = PowerMode.OFF

    # -- electrical ------------------------------------------------------------

    def current(self, mode: PowerMode | None = None) -> float:
        """Supply current in amperes for ``mode`` (defaults to current mode)."""
        mode = mode or self.mode
        if mode is PowerMode.ACTIVE:
            return self.active_current
        if mode is PowerMode.SLEEP:
            return self.sleep_current
        if mode is PowerMode.DEEP_SLEEP:
            return self.deep_sleep_current
        return self.off_current

    def step(self, dt: float) -> float:
        """Advance time by ``dt`` seconds in the present mode.

        Returns the current drawn this step (amperes) and updates the
        per-mode time and cumulative charge accounting.
        """
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        current = self.current()
        self.time_in_mode[self.mode] = self.time_in_mode.get(self.mode, 0.0) + dt
        self.charge_drawn += current * dt
        return current

    # -- reporting ---------------------------------------------------------------

    @property
    def on_time(self) -> float:
        """Total seconds spent powered (active + sleep + deep sleep)."""
        return (
            self.time_in_mode.get(PowerMode.ACTIVE, 0.0)
            + self.time_in_mode.get(PowerMode.SLEEP, 0.0)
            + self.time_in_mode.get(PowerMode.DEEP_SLEEP, 0.0)
        )

    @property
    def active_time(self) -> float:
        """Total seconds spent in active mode."""
        return self.time_in_mode.get(PowerMode.ACTIVE, 0.0)

    def reset(self) -> None:
        """Clear mode history for a new simulation run."""
        self.mode = PowerMode.OFF
        self.time_in_mode = {mode: 0.0 for mode in PowerMode}
        self.charge_drawn = 0.0
        self.wakeup_count = 0


def MSP430FR5994(
    active_current: float = milliamps(1.5),
    sleep_current: float = microamps(150.0),
    deep_sleep_current: float = microamps(4.0),
) -> Microcontroller:
    """Factory for the testbed MCU with deployment-flavoured defaults.

    The active current default (1.5 mA) matches the representative
    deployment the paper uses for its Figure 1 analysis.  The sleep current
    is the *platform* idle draw, not the bare LPM3 figure from the MSP430
    datasheet: it folds in the wake timer, voltage supervision, and the
    biased benchmark peripherals that remain powered between bursts of
    work, which is what makes harvested power a deficit during the
    low-power stretches of the evaluation traces (and therefore produces
    the intermittent on/off cycling the paper's Figure 6 shows).  Pass a
    smaller value to model a more aggressively duty-cycled platform.
    """
    return Microcontroller(
        name="MSP430FR5994",
        active_current=active_current,
        sleep_current=sleep_current,
        deep_sleep_current=deep_sleep_current,
        off_current=0.0,
    )
