"""Public sweep API: one call from grid description to ordered results.

:func:`sweep` is the front door the table/figure modules, the examples,
and the benchmarks all share: describe a (workload × trace × buffer) grid,
pick an execution backend by name (or pass an instance), and get back the
expanded :class:`~repro.experiments.backends.RunSpec` list alongside one
:class:`~repro.sim.results.SimulationResult` per spec, in the canonical
serial iteration order.  Every backend returns identical results in the
same order, so the choice is purely about throughput::

    from repro.experiments import ExperimentSettings, sweep

    run = sweep(workloads=("SC",), settings=ExperimentSettings(quick=True),
                backend="pool+batch")
    for spec, result in zip(run.specs, run.results):
        print(spec.trace_name, result.buffer_name, result.work_units)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.buffers.base import EnergyBuffer
from repro.experiments.backends import (
    ExecutionBackend,
    ProgressCallback,
    RunSpec,
)
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    WORKLOAD_ORDER,
    standard_buffers,
)
from repro.experiments.store import StoreStats
from repro.sim.results import SimulationResult

__all__ = ["SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepResult:
    """What a sweep ran (``specs``) and what came back (``results``).

    ``specs[i]`` describes the grid cell that produced ``results[i]``;
    ``backend`` is the name (or, for an instance without one, the class
    name) of the backend that executed the grid.  ``cache_stats`` carries
    the result store's hit/miss delta for this run when a memoizing
    ``cached:`` backend executed it (``None`` otherwise).  Iterating yields
    ``(spec, result)`` pairs.
    """

    specs: List[RunSpec]
    results: List[SimulationResult]
    backend: str
    cache_stats: Optional[StoreStats] = None

    def __iter__(self) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        return iter(zip(self.specs, self.results))

    def __len__(self) -> int:
        return len(self.results)


def sweep(
    workloads: Iterable[str] = WORKLOAD_ORDER,
    trace_names: Optional[Iterable[str]] = None,
    *,
    settings: Optional[ExperimentSettings] = None,
    backend: Optional[Union[str, ExecutionBackend]] = None,
    buffer_factory: Callable[[], List[EnergyBuffer]] = standard_buffers,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Run a (workload × trace × buffer) grid through an execution backend.

    ``backend`` is a backend name (one of
    :func:`~repro.experiments.backends.available_backends`: ``serial``,
    ``pool``, ``batch``, ``pool+batch`` and their ``[cached:][remote:]``
    compositions) or a ready
    :class:`~repro.experiments.backends.ExecutionBackend` instance, which is
    how a backend from outside the tree plugs in; ``None`` resolves from
    ``settings`` the same way the CLI does.
    """
    settings = settings if settings is not None else ExperimentSettings()
    runner = ExperimentRunner(settings, buffer_factory=buffer_factory, backend=backend)
    specs = runner.grid_specs(workloads, trace_names)
    resolved = runner.resolved_backend()
    results = resolved.run_specs(specs, progress=progress)
    return SweepResult(
        specs=specs,
        results=results,
        backend=getattr(resolved, "name", type(resolved).__name__),
        cache_stats=getattr(resolved, "last_run_stats", None),
    )
