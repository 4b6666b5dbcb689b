"""Photovoltaic harvester model.

The paper's running example (Figure 1, §2.1) uses a 5 cm², 22 %-efficient
solar cell; the hardware evaluation emulates the same panel behind a
bq25570-style management chip.  This module converts irradiance timelines
into electrical power so users can drive the simulator from irradiance data
instead of pre-converted power traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.harvester.trace import PowerTrace

#: Standard "one sun" irradiance in W/m^2.
FULL_SUN_IRRADIANCE = 1000.0


@dataclass(frozen=True)
class SolarPanel:
    """A small photovoltaic panel characterized by area and efficiency.

    Parameters
    ----------
    area_cm2:
        Active cell area in square centimetres (paper: 5 cm²).
    efficiency:
        Conversion efficiency at standard conditions (paper: 0.22).
    fill_factor:
        Derating applied for operating off the maximum-power point; the
        bq25570's fractional-open-circuit MPPT typically captures ~80–90 %
        of the true MPP.
    """

    area_cm2: float = 5.0
    efficiency: float = 0.22
    fill_factor: float = 0.85

    def __post_init__(self) -> None:
        if self.area_cm2 <= 0.0:
            raise ConfigurationError(
                f"panel area must be positive, got {self.area_cm2}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must lie in (0, 1], got {self.efficiency}"
            )
        if not 0.0 < self.fill_factor <= 1.0:
            raise ConfigurationError(
                f"fill factor must lie in (0, 1], got {self.fill_factor}"
            )

    @property
    def area_m2(self) -> float:
        """Active area in square metres."""
        return self.area_cm2 * 1e-4

    def power_from_irradiance(self, irradiance: float) -> float:
        """Electrical output power (W) for an irradiance in W/m²."""
        if irradiance < 0.0:
            raise ValueError(f"irradiance must be non-negative, got {irradiance}")
        return irradiance * self.area_m2 * self.efficiency * self.fill_factor

    def trace_from_irradiance(
        self, irradiance: np.ndarray, sample_period: float = 1.0, name: str = "solar"
    ) -> PowerTrace:
        """Convert an irradiance timeline (W/m²) into a power trace."""
        irradiance = np.asarray(irradiance, dtype=float)
        powers = np.array([self.power_from_irradiance(value) for value in irradiance])
        return PowerTrace(powers, sample_period, name)


def diurnal_irradiance(
    duration: float,
    sample_period: float = 60.0,
    peak_irradiance: float = 600.0,
    sunrise: float = 6.0 * 3600.0,
    sunset: float = 18.0 * 3600.0,
    cloud_fraction: float = 0.3,
    seed: int = 0,
) -> np.ndarray:
    """A simple day-cycle irradiance model with random cloud attenuation.

    The deterministic component is a half-sine between sunrise and sunset;
    clouds multiply it by a slowly varying attenuation factor.  This is a
    deliberately coarse model — the evaluation traces come from
    :mod:`repro.harvester.synthetic` — but it lets example applications run
    a multi-day deployment scenario.
    """
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, duration, sample_period)
    day_seconds = 24.0 * 3600.0
    time_of_day = np.mod(times, day_seconds)
    day_length = sunset - sunrise
    solar_angle = np.clip((time_of_day - sunrise) / day_length, 0.0, 1.0)
    clear_sky = peak_irradiance * np.sin(np.pi * solar_angle)
    clear_sky[(time_of_day < sunrise) | (time_of_day > sunset)] = 0.0
    # Slowly varying cloud attenuation between (1 - cloud_fraction) and 1.
    # The smoothing window is capped at the timeline length — and the cap
    # must win over the 3-sample floor: np.convolve's "same" mode returns
    # max(len(input), len(kernel)) samples, so any kernel longer than a
    # short timeline would change the output shape.
    cloud_noise = rng.random(times.size)
    window = min(max(3, int(1800.0 / sample_period)), times.size)
    kernel = np.ones(window) / window
    smoothed = np.convolve(cloud_noise, kernel, mode="same")
    attenuation = 1.0 - cloud_fraction * smoothed
    return np.clip(clear_sky * attenuation, 0.0, None)
