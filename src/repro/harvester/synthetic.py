"""Synthetic power-trace generators calibrated to the paper's Table 3.

The paper replays three RF traces recorded in an office environment and two
solar traces from the EnHANTs mobile-irradiance dataset.  Those recordings
characterize each trace by its duration, average power, and coefficient of
variation (CV), and describe the qualitative structure: most of the energy
arrives in short high-power spikes while most of the *time* is spent at low
power.

We cannot redistribute the recordings, so this module generates seeded
synthetic traces with the same duration, the same mean power (matched
exactly), a CV matched to within a small tolerance, and a bursty spike
structure.  The buffering policies under study respond exactly to these
properties — how often the buffer sees a surplus vs. a deficit and how large
the swings are — so the substitution preserves the experiments' behaviour.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.exceptions import TraceError
from repro.harvester.trace import PowerTrace


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Target statistics and structure for one synthetic trace.

    ``burst_rate`` is the expected number of power spikes per second and
    ``burst_duration`` their typical length; together with ``base_fraction``
    (the share of mean power delivered by the quiet baseline) they control
    how bursty the trace is, which the calibration step then tunes to the
    target CV.
    """

    name: str
    kind: str
    duration: float
    mean_power: float
    coefficient_of_variation: float
    burst_rate: float
    burst_duration: float
    base_fraction: float
    sample_period: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise TraceError(f"duration must be positive, got {self.duration}")
        if self.mean_power <= 0.0:
            raise TraceError(f"mean power must be positive, got {self.mean_power}")
        if self.coefficient_of_variation < 0.0:
            raise TraceError("coefficient of variation must be non-negative")
        if not 0.0 <= self.base_fraction <= 1.0:
            raise TraceError("base fraction must lie in [0, 1]")


#: Target statistics straight from Table 3 of the paper.
TABLE3_SPECS: Dict[str, SyntheticTraceSpec] = {
    "RF Cart": SyntheticTraceSpec(
        name="RF Cart",
        kind="rf",
        duration=313.0,
        mean_power=2.12e-3,
        coefficient_of_variation=1.03,
        burst_rate=0.08,
        burst_duration=6.0,
        base_fraction=0.45,
    ),
    "RF Obstruction": SyntheticTraceSpec(
        name="RF Obstruction",
        kind="rf",
        duration=313.0,
        mean_power=0.227e-3,
        coefficient_of_variation=0.61,
        burst_rate=0.05,
        burst_duration=8.0,
        base_fraction=0.65,
    ),
    "RF Mobile": SyntheticTraceSpec(
        name="RF Mobile",
        kind="rf",
        duration=318.0,
        mean_power=0.5e-3,
        coefficient_of_variation=1.66,
        burst_rate=0.05,
        burst_duration=4.0,
        base_fraction=0.25,
    ),
    "Solar Campus": SyntheticTraceSpec(
        name="Solar Campus",
        kind="solar",
        duration=3609.0,
        mean_power=5.18e-3,
        coefficient_of_variation=2.07,
        burst_rate=0.01,
        burst_duration=45.0,
        base_fraction=0.12,
    ),
    "Solar Commute": SyntheticTraceSpec(
        name="Solar Commute",
        kind="solar",
        duration=6030.0,
        mean_power=0.148e-3,
        coefficient_of_variation=3.33,
        burst_rate=0.004,
        burst_duration=30.0,
        base_fraction=0.05,
    ),
}

#: Canonical order the paper's tables use.
TABLE3_ORDER = (
    "RF Cart",
    "RF Obstruction",
    "RF Mobile",
    "Solar Campus",
    "Solar Commute",
)


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Moving-average smoothing that keeps the array length unchanged."""
    if window <= 1:
        return values
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="same")


def _raw_bursty_shape(
    spec: SyntheticTraceSpec, rng: np.random.Generator
) -> np.ndarray:
    """Generate an uncalibrated non-negative trace with the spec's structure."""
    count = max(2, int(round(spec.duration / spec.sample_period)))
    # Quiet baseline: slowly wandering level around 1.0 (arbitrary units).
    wander = _smooth(rng.standard_normal(count), window=max(3, count // 40))
    wander_std = wander.std() or 1.0
    base = 1.0 + 0.25 * wander / wander_std
    base = np.clip(base, 0.05, None)

    # Spikes: Poisson arrivals of bursts whose amplitude is lognormal.  The
    # heavy-tailed amplitudes reproduce the structure the paper highlights
    # (§2.1.2): most of the harvested energy arrives in short, tall spikes
    # while most of the *time* is spent at low power.
    spikes = np.zeros(count)
    expected_bursts = spec.burst_rate * spec.duration
    n_bursts = rng.poisson(max(expected_bursts, 1.0))
    burst_samples = max(1, int(round(spec.burst_duration / spec.sample_period)))
    for _ in range(n_bursts):
        start = rng.integers(0, count)
        length = max(1, int(rng.exponential(burst_samples)))
        amplitude = rng.lognormal(mean=2.2, sigma=1.0)
        end = min(count, start + length)
        # Rounded (half-sine) burst profile: power ramps in and out.
        profile = np.sin(np.linspace(0.0, np.pi, end - start))
        spikes[start:end] += amplitude * profile
    return base, spikes


def _calibrate(
    base: np.ndarray,
    spikes: np.ndarray,
    spec: SyntheticTraceSpec,
) -> np.ndarray:
    """Mix baseline and spikes to match the spec's mean power and CV.

    The mixing weight between the quiet baseline and the spike train is the
    single knob that moves the CV; we solve for it with bisection and then
    scale the whole trace so the mean matches exactly (scaling leaves the CV
    unchanged).
    """
    base_mean = base.mean() or 1.0
    spike_mean = spikes.mean()
    if spike_mean <= 0.0:
        # Degenerate: no spikes landed (tiny traces); fall back to baseline only.
        shape = base / base_mean
        return shape * spec.mean_power

    def cv_for(weight: float) -> float:
        mixture = (1.0 - weight) * base / base_mean + weight * spikes / spike_mean
        mean = mixture.mean()
        return float(mixture.std() / mean) if mean > 0 else 0.0

    low, high = 0.0, 1.0
    target = spec.coefficient_of_variation
    if cv_for(high) < target:
        weight = high  # spikes alone cannot reach the target; use max burstiness
    elif cv_for(low) > target:
        weight = low
    else:
        for _ in range(60):
            mid = 0.5 * (low + high)
            if cv_for(mid) < target:
                low = mid
            else:
                high = mid
        weight = 0.5 * (low + high)

    mixture = (1.0 - weight) * base / base_mean + weight * spikes / spike_mean
    mixture = np.clip(mixture, 0.0, None)
    scale = spec.mean_power / mixture.mean()
    return mixture * scale


def generate_trace(spec: SyntheticTraceSpec, seed: int = 0) -> PowerTrace:
    """Generate a synthetic trace matching ``spec``.

    The same ``(spec, seed)`` pair always produces the same trace, which is
    what makes the experiment harness repeatable (the role Ekho's
    record-and-replay frontend plays in the paper).
    """
    # A stable (process-independent) seed: Python's built-in hash() is salted
    # per interpreter run, which would silently make every process generate a
    # different trace.
    name_digest = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng((name_digest + 1_000_003 * seed) % (2**32))
    base, spikes = _raw_bursty_shape(spec, rng)
    powers = _calibrate(base, spikes, spec)
    return PowerTrace(powers, spec.sample_period, name=spec.name)


def generate_table3_trace(name: str, seed: int = 0) -> PowerTrace:
    """Generate one of the five evaluation traces by its Table 3 name."""
    if name not in TABLE3_SPECS:
        raise TraceError(
            f"unknown trace {name!r}; expected one of {sorted(TABLE3_SPECS)}"
        )
    return generate_trace(TABLE3_SPECS[name], seed)


def generate_table3_traces(
    seed: int = 0, names: Optional[Iterable[str]] = None
) -> Dict[str, PowerTrace]:
    """Generate all five evaluation traces (or a named subset), in table order."""
    selected = list(names) if names is not None else list(TABLE3_ORDER)
    traces: Dict[str, PowerTrace] = {}
    for name in selected:
        traces[name] = generate_table3_trace(name, seed)
    return traces


def rf_trace(
    duration: float = 313.0,
    mean_power: float = 1e-3,
    coefficient_of_variation: float = 1.0,
    seed: int = 0,
    name: str = "RF Synthetic",
) -> PowerTrace:
    """Generate an office-RF style trace with custom statistics."""
    spec = SyntheticTraceSpec(
        name=name,
        kind="rf",
        duration=duration,
        mean_power=mean_power,
        coefficient_of_variation=coefficient_of_variation,
        burst_rate=0.06,
        burst_duration=6.0,
        base_fraction=0.4,
    )
    return generate_trace(spec, seed)


def solar_trace(
    duration: float = 3600.0,
    mean_power: float = 5e-3,
    coefficient_of_variation: float = 2.0,
    seed: int = 0,
    name: str = "Solar Synthetic",
) -> PowerTrace:
    """Generate a mobile-solar style trace with custom statistics.

    The defaults approximate the pedestrian EnHANTs trace used for Figure 1:
    long stretches of low power with most energy concentrated in short
    high-irradiance windows.
    """
    spec = SyntheticTraceSpec(
        name=name,
        kind="solar",
        duration=duration,
        mean_power=mean_power,
        coefficient_of_variation=coefficient_of_variation,
        burst_rate=0.01,
        burst_duration=45.0,
        base_fraction=0.12,
    )
    return generate_trace(spec, seed)


def solar_night_trace(
    duration: float = 3600.0, mean_power: float = 0.04e-3, seed: int = 0
) -> PowerTrace:
    """A very low-power trace approximating a solar panel at night (§2.1.2)."""
    spec = SyntheticTraceSpec(
        name="Solar Night",
        kind="solar",
        duration=duration,
        mean_power=mean_power,
        coefficient_of_variation=0.4,
        burst_rate=0.002,
        burst_duration=20.0,
        base_fraction=0.9,
    )
    return generate_trace(spec, seed)
