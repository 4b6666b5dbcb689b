"""REACT configuration: bank fabric layout, thresholds, and overheads.

The defaults reproduce the paper's prototype (Table 1 plus the §4/§5.1
operating points): a 770 µF last-level buffer, five reconfigurable banks
spanning 770 µF–18.03 mF total, a 3.3 V enable / 1.8 V brown-out window,
3.5 V / 2.0 V instrumentation thresholds, 10 Hz software polling, and
roughly 14 µW of hardware overhead per connected bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import ConfigurationError
from repro.units import microfarads


@dataclass(frozen=True)
class BankSpec:
    """Physical description of one reconfigurable capacitor bank."""

    unit_capacitance: float
    count: int
    supercapacitor: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.unit_capacitance <= 0.0:
            raise ConfigurationError(
                f"unit capacitance must be positive, got {self.unit_capacitance}"
            )
        if self.count < 1:
            raise ConfigurationError(
                f"bank needs at least one capacitor, got {self.count}"
            )

    @property
    def parallel_capacitance(self) -> float:
        """Equivalent capacitance in the full-parallel configuration."""
        return self.unit_capacitance * self.count

    @property
    def series_capacitance(self) -> float:
        """Equivalent capacitance in the full-series configuration."""
        return self.unit_capacitance / self.count

    @property
    def total_capacitance(self) -> float:
        """Sum of the physical capacitances (what fits on the board)."""
        return self.unit_capacitance * self.count


@dataclass(frozen=True)
class ReactConfig:
    """Complete configuration of a REACT buffer instance."""

    last_level_capacitance: float = microfarads(770.0)
    banks: Tuple[BankSpec, ...] = ()
    enable_voltage: float = 3.3
    brownout_voltage: float = 1.8
    high_threshold: float = 3.5
    low_threshold: float = 1.9
    max_voltage: float = 3.6
    poll_rate_hz: float = 10.0
    poll_active_time: float = 0.6e-3
    per_bank_overhead_power: float = 8e-6
    instrumentation_power: float = 2e-6
    ceramic_leakage_per_farad: float = 3e-3
    supercap_leakage_current: float = 0.15e-6

    def __post_init__(self) -> None:
        if self.last_level_capacitance <= 0.0:
            raise ConfigurationError("last-level capacitance must be positive")
        if not self.brownout_voltage < self.enable_voltage:
            raise ConfigurationError("enable voltage must exceed brown-out voltage")
        if not self.low_threshold < self.high_threshold:
            raise ConfigurationError("high threshold must exceed low threshold")
        if not self.high_threshold <= self.max_voltage:
            raise ConfigurationError("high threshold must not exceed the max voltage")
        if not self.brownout_voltage <= self.low_threshold:
            raise ConfigurationError(
                "low threshold should sit at or above the brown-out voltage"
            )
        if self.poll_rate_hz <= 0.0:
            raise ConfigurationError("poll rate must be positive")
        if self.poll_active_time < 0.0:
            raise ConfigurationError("poll active time must be non-negative")

    # -- derived quantities -----------------------------------------------------------

    @property
    def poll_period(self) -> float:
        """Seconds between controller polls of the voltage instrumentation."""
        return 1.0 / self.poll_rate_hz

    @property
    def minimum_capacitance(self) -> float:
        """Capacitance at cold start (only the last-level buffer connected)."""
        return self.last_level_capacitance

    @property
    def maximum_capacitance(self) -> float:
        """Capacitance with every bank connected in parallel."""
        return self.last_level_capacitance + sum(
            bank.parallel_capacitance for bank in self.banks
        )

    @property
    def capacitance_levels(self) -> List[float]:
        """Equivalent capacitance after each controller step-up, in order.

        Level 0 is the bare last-level buffer; each bank then contributes
        its series capacitance followed by its parallel capacitance, in
        connection order (§3.4).
        """
        levels = [self.last_level_capacitance]
        running = self.last_level_capacitance
        for bank in self.banks:
            levels.append(running + bank.series_capacitance)
            running += bank.parallel_capacitance
            levels.append(running)
        return levels

    def software_overhead_fraction(self, active_current: float) -> float:
        """Fraction of active-mode throughput spent polling (§5.1: ~1.8 %)."""
        if active_current <= 0.0:
            return 0.0
        return self.poll_rate_hz * self.poll_active_time

    def describe_banks(self) -> List[dict]:
        """Table-1-style rows describing the bank fabric."""
        rows = [
            {
                "bank": 0,
                "capacitor_size_uF": round(self.last_level_capacitance * 1e6, 1),
                "capacitor_count": 1,
                "role": "last-level buffer",
            }
        ]
        for index, bank in enumerate(self.banks, start=1):
            rows.append(
                {
                    "bank": index,
                    "capacitor_size_uF": round(bank.unit_capacitance * 1e6, 1),
                    "capacitor_count": bank.count,
                    "role": (
                        "supercapacitor bank" if bank.supercapacitor else "ceramic bank"
                    ),
                }
            )
        return rows


#: Bank fabric from Table 1 of the paper (bank 0 is the last-level buffer).
TABLE1_BANKS: Tuple[BankSpec, ...] = (
    BankSpec(unit_capacitance=microfarads(220.0), count=3, label="bank1"),
    BankSpec(unit_capacitance=microfarads(440.0), count=3, label="bank2"),
    BankSpec(unit_capacitance=microfarads(880.0), count=3, label="bank3"),
    BankSpec(unit_capacitance=microfarads(880.0), count=3, label="bank4"),
    BankSpec(
        unit_capacitance=microfarads(5000.0),
        count=2,
        supercapacitor=True,
        label="bank5",
    ),
)


def table1_config(**overrides) -> ReactConfig:
    """The paper's prototype configuration (770 µF – 18.03 mF).

    Keyword overrides are forwarded to :class:`ReactConfig`, so callers can
    tweak thresholds or polling without re-declaring the bank fabric.
    """
    parameters = {"banks": TABLE1_BANKS}
    parameters.update(overrides)
    return ReactConfig(**parameters)
