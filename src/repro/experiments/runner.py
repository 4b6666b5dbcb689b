"""Shared experiment infrastructure.

The paper evaluates every buffer architecture against the same five power
traces and four workloads; :class:`ExperimentRunner` encapsulates that
methodology so each table/figure module only states *which* subset it needs
and how to present it.

Two fidelity settings exist:

* **full** — the trace durations of Table 3 (the solar traces run for one
  to two hours of simulated time), matching the paper's methodology.
* **quick** — traces truncated to a few hundred seconds and a coarser
  simulation step.  The relative behaviour of the buffers is preserved
  (the generators are stationary), so quick mode is what the automated
  benchmark suite uses; absolute counts are smaller than in full mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Union

from repro.buffers.base import EnergyBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.harvester.synthetic import TABLE3_ORDER, generate_table3_trace
from repro.harvester.trace import PowerTrace
from repro.platform.mcu import MSP430FR5994
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.results import SimulationResult
from repro.sim.system import BatterylessSystem
from repro.units import microfarads, millifarads
from repro.workloads import (
    DataEncryption,
    PacketForwarding,
    RadioTransmit,
    SenseAndCompute,
)
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.backends import ExecutionBackend, RunSpec

#: Mean packet inter-arrival time per trace for the PF benchmark, scaled to
#: the trace length the way the paper's packet counts imply (roughly one
#: packet every 5–6 s for the RF traces, sparser for the long solar traces).
PF_INTERARRIVAL: Dict[str, float] = {
    "RF Cart": 5.5,
    "RF Obstruction": 5.5,
    "RF Mobile": 5.5,
    "Solar Campus": 12.0,
    "Solar Commute": 60.0,
}

#: The paper's buffer-name column order.
BUFFER_ORDER = ("770 uF", "10 mF", "17 mF", "Morphy", "REACT")

#: The paper's benchmark abbreviations in table order.
WORKLOAD_ORDER = ("DE", "SC", "RT", "PF")


@dataclass(frozen=True)
class ExperimentSettings:
    """Fidelity and methodology knobs shared by every experiment.

    ``backend`` names the execution backend grid sweeps run through (see
    :mod:`repro.experiments.backends`); ``None`` means ``serial``.
    ``workers`` is the pool width for the pool-style backends — ``None``
    (unset) lets them default to the host's core count, while an explicit
    value (including 1) is honored as given — and never selects a backend
    by itself.  ``fast_forward`` controls the scalar engine's off-phase fast
    path and exists so equivalence tests and ablations can force pure
    step-by-step execution.

    ``cache_dir`` points sweeps at a content-addressed result store (see
    :mod:`repro.experiments.store`): setting it wraps the selected backend
    in its memoizing ``cached:<name>`` variant, and ``use_cache=False``
    (the ``--no-cache`` flag) strips the wrapper even from an explicitly
    cached :attr:`backend` name.  ``workers``, ``backend``, ``cache_dir``
    and ``use_cache`` are execution-only knobs: they never change results
    and are excluded from cache fingerprints.
    """

    quick: bool = False
    seed: int = 0
    dt_on: float = 0.01
    dt_off: float = 0.05
    quick_trace_cap: float = 400.0
    quick_dt_on: float = 0.02
    quick_dt_off: float = 0.1
    max_drain_time: float = 600.0
    workers: Optional[int] = None
    fast_forward: bool = True
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True

    @property
    def backend_name(self) -> str:
        """The backend name execution resolves to.

        :attr:`backend`, or ``serial`` when unset.  A configured
        :attr:`cache_dir` then wraps the choice in its memoizing ``cached:``
        variant, and ``use_cache=False`` strips that prefix instead.
        """
        base = self.backend or "serial"
        # "cached:" is the store wrapper's name prefix; runner.py sits
        # below backends.py in the import graph, so the literal lives here.
        if not self.use_cache:
            return base[len("cached:") :] if base.startswith("cached:") else base
        if self.cache_dir is not None and not base.startswith("cached:"):
            return f"cached:{base}"
        return base

    @property
    def effective_dt_on(self) -> float:
        return self.quick_dt_on if self.quick else self.dt_on

    @property
    def effective_dt_off(self) -> float:
        return self.quick_dt_off if self.quick else self.dt_off

    def trace(self, name: str) -> PowerTrace:
        """The evaluation trace ``name`` at the configured fidelity."""
        trace = generate_table3_trace(name, seed=self.seed)
        if self.quick and trace.duration > self.quick_trace_cap:
            trace = trace.truncated(self.quick_trace_cap, name=trace.name)
        return trace

    def traces(self, names: Optional[Iterable[str]] = None) -> Dict[str, PowerTrace]:
        """All evaluation traces (or a named subset), in table order."""
        selected = list(names) if names is not None else list(TABLE3_ORDER)
        return {name: self.trace(name) for name in selected}


def standard_buffers() -> List[EnergyBuffer]:
    """Fresh instances of the paper's five evaluated buffers (§4.1)."""
    return [
        StaticBuffer(microfarads(770.0), name="770 uF"),
        StaticBuffer(millifarads(10.0), name="10 mF"),
        StaticBuffer(millifarads(17.0), name="17 mF"),
        MorphyBuffer(),
        ReactBuffer(),
    ]


def make_workload(abbreviation: str, trace_name: str) -> Workload:
    """A fresh workload instance configured for the given trace (§4.2)."""
    if abbreviation == "DE":
        return DataEncryption()
    if abbreviation == "SC":
        return SenseAndCompute()
    if abbreviation == "RT":
        return RadioTransmit()
    if abbreviation == "PF":
        return PacketForwarding(
            mean_interarrival=PF_INTERARRIVAL.get(trace_name, 6.0)
        )
    raise KeyError(f"unknown workload abbreviation {abbreviation!r}")


@dataclass
class ExperimentRunner:
    """Runs (trace × buffer × workload) grids with consistent methodology.

    The runner owns *what* to run: it expands a grid into picklable
    :class:`~repro.experiments.backends.RunSpec`\\ s in the canonical serial
    iteration order (workload → trace → buffer).  *How* the specs execute
    is delegated to an :class:`~repro.experiments.backends.ExecutionBackend`
    — ``backend`` may be a backend instance, a backend name, or ``None``
    to resolve from :attr:`ExperimentSettings.backend_name`.  Every backend
    returns the same results in the same order, so the choice is purely
    about throughput.
    """

    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    buffer_factory: Callable[[], List[EnergyBuffer]] = standard_buffers
    backend: Optional[Union[str, "ExecutionBackend"]] = None

    def resolved_backend(self) -> "ExecutionBackend":
        """The backend instance ``run_grid`` will delegate to."""
        from repro.experiments.backends import resolve_backend

        backend = self.backend
        if backend is None:
            backend = self.settings.backend_name
        if isinstance(backend, str):
            return resolve_backend(backend, self.settings)
        return backend

    def run_single(
        self,
        trace: PowerTrace,
        buffer: EnergyBuffer,
        workload: Workload,
        recorder: Optional[Recorder] = None,
    ) -> SimulationResult:
        """Simulate one (trace, buffer, workload) combination."""
        system = BatterylessSystem.build(trace, buffer, workload, mcu=MSP430FR5994())
        simulator = Simulator(
            system,
            dt_on=self.settings.effective_dt_on,
            dt_off=self.settings.effective_dt_off,
            max_drain_time=self.settings.max_drain_time,
            recorder=recorder,
            fast_forward=self.settings.fast_forward,
        )
        return simulator.run()

    def grid_specs(
        self,
        workloads: Iterable[str] = WORKLOAD_ORDER,
        trace_names: Optional[Iterable[str]] = None,
    ) -> List["RunSpec"]:
        """The grid in serial iteration order, as picklable run specs."""
        # Imported lazily: backends.py imports this module for the shared
        # grid machinery, so a top-level import would be circular.
        from repro.experiments.backends import RunSpec

        selected = (
            list(trace_names) if trace_names is not None else list(TABLE3_ORDER)
        )
        trace_list = list(dict.fromkeys(selected))  # dedupe, order kept
        buffer_count = len(self.buffer_factory())
        return [
            RunSpec(
                workload=workload_name,
                trace_name=trace_name,
                buffer_index=index,
                settings=self.settings,
                buffer_factory=self.buffer_factory,
            )
            for workload_name in workloads
            for trace_name in trace_list
            for index in range(buffer_count)
        ]

    def run_grid(
        self,
        workloads: Iterable[str] = WORKLOAD_ORDER,
        trace_names: Optional[Iterable[str]] = None,
        progress: Optional[Callable[[SimulationResult], None]] = None,
    ) -> List[SimulationResult]:
        """Run the full evaluation grid through the configured backend."""
        specs = self.grid_specs(workloads, trace_names)
        return self.resolved_backend().run_specs(specs, progress=progress)

