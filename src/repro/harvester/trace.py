"""Power-trace container and statistics.

A :class:`PowerTrace` is a uniformly sampled timeline of harvested power
(watts).  Traces are the experimental input of every evaluation in the
paper; their first-order statistics (Table 3: duration, average power,
coefficient of variation) and their spike structure (§2.1.2) are what the
synthetic generators are calibrated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TraceError


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a power trace (the quantities in Table 3)."""

    duration: float
    mean_power: float
    std_power: float
    coefficient_of_variation: float
    peak_power: float
    total_energy: float
    spike_energy_fraction: float
    time_below_fraction: float


class PowerTrace:
    """A uniformly sampled harvested-power timeline.

    Parameters
    ----------
    powers:
        Sequence of harvested power samples in watts, all non-negative.
    sample_period:
        Spacing between samples in seconds.
    name:
        Human-readable identifier ("RF Cart", "Solar Campus", ...).
    """

    def __init__(
        self,
        powers: Union[Sequence[float], np.ndarray],
        sample_period: float = 1.0,
        name: str = "trace",
    ) -> None:
        array = np.asarray(powers, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise TraceError("a power trace needs a non-empty 1-D sample array")
        if sample_period <= 0.0:
            raise TraceError(f"sample period must be positive, got {sample_period}")
        if np.any(~np.isfinite(array)):
            raise TraceError("power trace contains non-finite samples")
        if np.any(array < 0.0):
            raise TraceError("power trace contains negative samples")
        self._powers = array
        # Python-float mirror for the per-step power_at() lookup: indexing a
        # numpy array returns a numpy scalar whose construction costs more
        # than the whole zero-order-hold lookup should.
        self._powers_list = array.tolist()
        self.sample_period = float(sample_period)
        self.name = name

    # -- basic accessors ----------------------------------------------------

    @property
    def powers(self) -> np.ndarray:
        """The raw power samples in watts (read-only view)."""
        view = self._powers.view()
        view.flags.writeable = False
        return view

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps in seconds."""
        return np.arange(self._powers.size) * self.sample_period

    @property
    def duration(self) -> float:
        """Total trace length in seconds."""
        return self._powers.size * self.sample_period

    @property
    def mean_power(self) -> float:
        """Average harvested power in watts."""
        return float(self._powers.mean())

    @property
    def peak_power(self) -> float:
        """Maximum harvested power in watts."""
        return float(self._powers.max())

    @property
    def total_energy(self) -> float:
        """Total harvested energy over the trace in joules."""
        return float(self._powers.sum() * self.sample_period)

    @property
    def coefficient_of_variation(self) -> float:
        """Standard deviation divided by mean (Table 3's CV column)."""
        mean = self.mean_power
        if mean == 0.0:
            return 0.0
        return float(self._powers.std() / mean)

    def __len__(self) -> int:
        return self._powers.size

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        for index, power in enumerate(self._powers):
            yield index * self.sample_period, float(power)

    # -- queries -------------------------------------------------------------

    def power_at(self, time: float) -> float:
        """Harvested power at absolute time ``time`` (zero-order hold).

        Times beyond the end of the trace return 0.0, matching the paper's
        methodology of letting the system drain its buffer after the trace
        completes.
        """
        if time < 0.0:
            raise TraceError(f"time must be non-negative, got {time}")
        index = self.sample_index(time)
        powers = self._powers_list
        if index >= len(powers):
            return 0.0
        return powers[index]

    def sample_index(self, time: float) -> int:
        """Index of the zero-order-hold sample that holds at ``time``.

        The one expression every scalar lookup shares: :meth:`power_at`
        reads this sample, :meth:`segment_end` ends it, and the segment
        planner tests step start times with it, so a fast-forwarded step
        reads exactly the sample the stepped engine would.  Indices at or
        past ``len(trace)`` lie beyond the end of the trace.
        """
        return int(time / self.sample_period)

    def powers_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power_at`: zero-order-hold lookup per lane.

        The batched simulator's lanes drift apart in simulated time (their
        adaptive steps differ), so each lockstep step samples the trace at
        many distinct timestamps at once.  Indexing matches the scalar
        lookup exactly — ``int(time / sample_period)`` truncation, zero
        power beyond the end of the trace.
        """
        if times.size and times.min() < 0.0:
            raise TraceError("times must be non-negative")
        indices = (times / self.sample_period).astype(np.int64)
        size = self._powers.size
        return np.where(
            indices < size, self._powers[np.minimum(indices, size - 1)], 0.0
        )

    def zero_order_hold_table(self) -> Tuple[np.ndarray, int]:
        """``(padded_powers, sentinel_index)`` for inline vectorized lookup.

        The batch engine's hot loop samples the trace once per lockstep
        step; ``padded_powers[np.minimum((times / sample_period).astype(int64),
        sentinel_index)]`` reproduces :meth:`power_at` exactly — truncating
        index, zero power past the end (the sentinel sample) — without
        per-call bounds handling.  :meth:`powers_at` is the reference
        implementation the equivalence tests pin this table against.
        """
        return np.append(self._powers, 0.0), self._powers.size

    def segment_end(self, time: float) -> float:
        """End of the zero-order-hold segment containing ``time``.

        Within the trace this is the next sample boundary (the power is
        constant until then); past the end of the trace the power is zero
        forever, so the segment extends to infinity.  The segment planner
        uses it to skip the sample test for steps that start well before
        the boundary.
        """
        if time < 0.0:
            raise TraceError(f"time must be non-negative, got {time}")
        index = self.sample_index(time)
        if index >= self._powers.size:
            return float("inf")
        return (index + 1) * self.sample_period

    def statistics(
        self,
        spike_threshold: float = 10e-3,
        low_power_threshold: float = 3e-3,
    ) -> TraceStatistics:
        """Compute the Table 3 / §2.1.2 summary statistics.

        ``spike_energy_fraction`` is the fraction of the total energy
        collected while power exceeds ``spike_threshold``;
        ``time_below_fraction`` is the fraction of time spent below
        ``low_power_threshold``.  The paper reports 82 % and 77 % for the
        solar pedestrian trace used in Figure 1.
        """
        total_energy = self.total_energy
        spike_energy = float(
            self._powers[self._powers > spike_threshold].sum() * self.sample_period
        )
        below_time = float(
            (self._powers < low_power_threshold).sum() * self.sample_period
        )
        return TraceStatistics(
            duration=self.duration,
            mean_power=self.mean_power,
            std_power=float(self._powers.std()),
            coefficient_of_variation=self.coefficient_of_variation,
            peak_power=self.peak_power,
            total_energy=total_energy,
            spike_energy_fraction=(
                (spike_energy / total_energy) if total_energy else 0.0
            ),
            time_below_fraction=(below_time / self.duration) if self.duration else 0.0,
        )

    # -- transformations -----------------------------------------------------

    def scaled(self, factor: float, name: str | None = None) -> "PowerTrace":
        """Return a copy with every sample multiplied by ``factor``."""
        if factor < 0.0:
            raise TraceError(f"scale factor must be non-negative, got {factor}")
        return PowerTrace(
            self._powers * factor, self.sample_period, name or f"{self.name}*{factor:g}"
        )

    def clipped(self, max_power: float, name: str | None = None) -> "PowerTrace":
        """Return a copy with samples clipped to ``max_power``."""
        if max_power <= 0.0:
            raise TraceError(f"max power must be positive, got {max_power}")
        return PowerTrace(
            np.minimum(self._powers, max_power),
            self.sample_period,
            name or f"{self.name}-clipped",
        )

    def truncated(self, duration: float, name: str | None = None) -> "PowerTrace":
        """Return a copy containing only the first ``duration`` seconds."""
        if duration <= 0.0:
            raise TraceError(f"duration must be positive, got {duration}")
        count = max(1, int(round(duration / self.sample_period)))
        return PowerTrace(
            self._powers[:count], self.sample_period, name or f"{self.name}-trunc"
        )

    def resampled(self, sample_period: float, name: str | None = None) -> "PowerTrace":
        """Return a copy resampled (zero-order hold) to a new sample period."""
        if sample_period <= 0.0:
            raise TraceError(f"sample period must be positive, got {sample_period}")
        new_times = np.arange(0.0, self.duration, sample_period)
        indices = np.minimum(
            (new_times / self.sample_period).astype(int), self._powers.size - 1
        )
        return PowerTrace(
            self._powers[indices], sample_period, name or f"{self.name}-resampled"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PowerTrace(name={self.name!r}, duration={self.duration:.0f}s, "
            f"mean={self.mean_power * 1e3:.3f} mW, CV={self.coefficient_of_variation:.2f})"
        )
