"""Digital filtering kernel for the Sense-and-Compute benchmark.

The SC benchmark wakes every five seconds, samples a low-power microphone,
and digitally filters the samples.  A small finite-impulse-response (FIR)
low-pass filter is the canonical embedded filtering kernel, so that is what
the workload executes when kernel execution is enabled.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.exceptions import WorkloadError


def design_lowpass(num_taps: int, cutoff: float) -> List[float]:
    """Windowed-sinc low-pass filter design (Hamming window).

    ``cutoff`` is the normalized cutoff frequency in (0, 0.5), i.e. a
    fraction of the sampling rate.
    """
    if num_taps <= 0:
        raise WorkloadError(f"number of taps must be positive, got {num_taps}")
    if not 0.0 < cutoff < 0.5:
        raise WorkloadError(f"cutoff must lie in (0, 0.5), got {cutoff}")
    taps: List[float] = []
    middle = (num_taps - 1) / 2.0
    for index in range(num_taps):
        offset = index - middle
        if offset == 0.0:
            sinc = 2.0 * cutoff
        else:
            sinc = math.sin(2.0 * math.pi * cutoff * offset) / (math.pi * offset)
        window = 0.54 - 0.46 * math.cos(2.0 * math.pi * index / (num_taps - 1))
        taps.append(sinc * window)
    gain = sum(taps)
    return [tap / gain for tap in taps]


class FirFilter:
    """A streaming FIR filter with internal delay line."""

    def __init__(self, taps: Sequence[float]) -> None:
        if not taps:
            raise WorkloadError("an FIR filter needs at least one tap")
        self._taps = list(taps)
        self._delay_line = [0.0] * len(self._taps)

    @property
    def taps(self) -> List[float]:
        """Filter coefficients (copy)."""
        return list(self._taps)

    def reset(self) -> None:
        """Clear the delay line."""
        self._delay_line = [0.0] * len(self._taps)

    def process_sample(self, sample: float) -> float:
        """Push one sample through the filter and return the filtered output."""
        self._delay_line.insert(0, float(sample))
        self._delay_line.pop()
        return sum(tap * value for tap, value in zip(self._taps, self._delay_line))

    def process(self, samples: Sequence[float]) -> List[float]:
        """Filter a block of samples, preserving state across calls."""
        return [self.process_sample(sample) for sample in samples]

    def rms(self, samples: Sequence[float]) -> float:
        """Filter a block and return the RMS of the filtered output.

        This mirrors what a sound-level sensing node actually reports: a
        single scalar loudness estimate per wake-up.
        """
        filtered = self.process(samples)
        if not filtered:
            return 0.0
        return math.sqrt(sum(value * value for value in filtered) / len(filtered))
