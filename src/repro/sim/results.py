"""Result containers produced by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class SimulationResult:
    """Everything a single simulation run produced.

    The fields mirror what the paper reports: latency (Table 4), work
    completed (Tables 2 and 5), on-time and duty cycle (§2.1), and the
    energy ledger used for the efficiency analysis (Figure 7 and §5.5).
    """

    trace_name: str
    buffer_name: str
    workload_name: str
    simulated_time: float
    trace_duration: float
    latency: Optional[float]
    on_time: float
    active_time: float
    enable_count: int
    brownout_count: int
    work_units: float
    workload_metrics: Dict[str, float] = field(default_factory=dict)
    buffer_ledger: Dict[str, float] = field(default_factory=dict)
    energy_offered: float = 0.0
    energy_delivered_to_load: float = 0.0

    @property
    def started(self) -> bool:
        """True when the system reached its enable voltage at least once."""
        return self.latency is not None

    @property
    def duty_cycle(self) -> float:
        """Fraction of the simulated time the platform was powered."""
        if self.simulated_time <= 0.0:
            return 0.0
        return self.on_time / self.simulated_time

    @property
    def on_time_during_trace_fraction(self) -> float:
        """Fraction of the *trace* during which the platform was powered.

        Slightly optimistic (on-time after the trace ends is included), but
        bounded to 1.0; used for the §2.1.2 operational-fraction figures.
        """
        if self.trace_duration <= 0.0:
            return 0.0
        return min(1.0, self.on_time / self.trace_duration)

    @property
    def end_to_end_efficiency(self) -> float:
        """Fraction of offered harvested energy that reached the load."""
        if self.energy_offered <= 0.0:
            return 0.0
        return self.energy_delivered_to_load / self.energy_offered

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the table renderers and benchmarks."""
        row: Dict[str, float] = {
            "trace": self.trace_name,
            "buffer": self.buffer_name,
            "workload": self.workload_name,
            "latency_s": self.latency if self.latency is not None else float("nan"),
            "on_time_s": self.on_time,
            "active_time_s": self.active_time,
            "duty_cycle": self.duty_cycle,
            "work_units": self.work_units,
            "enable_count": float(self.enable_count),
            "brownout_count": float(self.brownout_count),
            "energy_offered_J": self.energy_offered,
            "energy_delivered_J": self.energy_delivered_to_load,
            "end_to_end_efficiency": self.end_to_end_efficiency,
        }
        for key, value in self.workload_metrics.items():
            row[f"workload_{key}"] = value
        for key, value in self.buffer_ledger.items():
            row[f"buffer_{key}"] = value
        return row
