"""Pluggable execution backends for grid sweeps.

The experiments layer separates *what to run* from *how to run it*: the
:class:`~repro.experiments.runner.ExperimentRunner` describes a grid as a
list of picklable :class:`RunSpec`\\ s (in the canonical serial iteration
order) and hands it to an :class:`ExecutionBackend`, which returns one
:class:`~repro.sim.results.SimulationResult` per spec *in spec order* no
matter how execution is scheduled.  Four backends ship in-tree:

``serial``
    One scalar simulation at a time, in-process.
``pool``
    Fans specs over a :class:`~concurrent.futures.ProcessPoolExecutor`;
    each worker rebuilds its cell from the spec.
``batch``
    Packs each trace's batchable specs into vectorized
    :class:`~repro.sim.batch.BatchSimulator` lockstep runs — one per
    lockstep kernel (static lanes together, each Morphy topology
    together) whose group reaches that kernel's lane floor; the rest fall
    back to the scalar engine, lane by lane.
``pool+batch``
    Composes both: :func:`plan_shards` cuts each (trace, kernel) lane
    group into contiguous lane shards and every other cell into a one-cell
    shard, and each worker process runs its shard through the batch
    backend — the process-pool speedup multiplied by the lockstep speedup.

:func:`resolve_backend` builds a backend from its name.  The four names
above are the plain ones (the fixed :data:`PLAIN_BACKENDS` table), and
each plain name ``X`` also has a ``cached:X`` form, which puts the
memoizing :class:`~repro.experiments.store.CachedBackend` in front of it:
the grammar is ``[cached:]<backend>``.  Any other name
(``cached:cached:serial``) is rejected with the list of valid names.  An
execution strategy from outside the tree plugs in as an instance, through
``sweep(backend=...)`` or ``ExperimentRunner(backend=...)``.

Grouping metadata travels on the specs themselves: ``RunSpec.trace_name``
(together with the spec's settings, which fix the trace's fidelity) is the
lane-grouping key — every spec mapping to the same key replays the same
power trace and may share one lockstep batch, subject to the buffers'
kernel compatibility
(:meth:`~repro.buffers.base.EnergyBuffer.batch_key`).  :func:`trace_groups`
derives the trace grouping, :func:`partition_batchable` refines it into
the per-kernel lane groups any batch-style backend needs, and
:func:`plan_shards` cuts those into the shards ``pool+batch`` executes.
A lane group only forms when it reaches its kernel's
:func:`~repro.sim.batch.lane_floor`, so no backend takes a width setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.buffers.base import EnergyBuffer
from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    make_workload,
    standard_buffers,
)
from repro.harvester.trace import PowerTrace
from repro.platform.mcu import MSP430FR5994
from repro.sim.batch import BatchSimulator, lane_floor
from repro.sim.results import SimulationResult
from repro.sim.system import BatterylessSystem

#: Callback fired once per result, in spec order.
ProgressCallback = Callable[[SimulationResult], None]

#: Grouping key for lane-sharing: specs with equal keys replay one trace.
#: The first element is the settings' canonical fingerprint (a string, see
#: :func:`repro.experiments.store.settings_fingerprint`) rather than the
#: settings object itself, so grouping and caching share one identity and
#: settings subclasses with unhashable fields still group.
GroupKey = Tuple[str, str]

#: Name prefix selecting the memoizing store wrapper: ``cached:<inner>``.
CACHED_PREFIX = "cached:"


@dataclass(frozen=True)
class RunSpec:
    """Everything a backend needs to reconstruct one grid cell.

    A mid-flight :class:`~repro.sim.system.BatterylessSystem` is not
    picklable (open numpy views, bound controller state, cyclic workload
    references), so backends never ship systems — they ship specs, and the
    executing side rebuilds trace, buffer, and workload from scratch.
    Construction is deterministic (the spec carries the experiment seed,
    every workload embeds its own fixed seed), so any backend returns
    bit-comparable results to any other, in the same order.

    ``buffer_factory`` must be a picklable (module-level) callable; the
    buffer is identified by its *index* in the factory's list so executors
    always build a fresh instance rather than sharing state through the
    pickle.
    """

    workload: str
    trace_name: str
    buffer_index: int
    settings: ExperimentSettings
    buffer_factory: Callable[[], List[EnergyBuffer]] = standard_buffers

    @property
    def group_key(self) -> GroupKey:
        """The lane-grouping key: specs with equal keys share a trace."""
        # Imported lazily: store.py imports this module at the top level.
        from repro.experiments.store import settings_fingerprint

        return (settings_fingerprint(self.settings), self.trace_name)

    def build_buffer(self) -> EnergyBuffer:
        """A fresh buffer instance for this cell."""
        return self.buffer_factory()[self.buffer_index]


@runtime_checkable
class ExecutionBackend(Protocol):
    """How a grid of :class:`RunSpec`\\ s gets executed.

    Implementations receive the grid in canonical order and must return one
    result per spec in that same order, regardless of internal scheduling.
    ``progress`` fires once per result in spec order — immediately for
    backends that complete cells one at a time, or after the grid finishes
    for backends whose cells complete interleaved (lockstep batches).
    """

    #: The backend's name, e.g. ``"pool+batch"``.
    name: str

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        """Execute every spec; results in spec order."""
        ...


def execute_run_spec(
    spec: RunSpec,
    trace: Optional[PowerTrace] = None,
    buffer: Optional[EnergyBuffer] = None,
) -> SimulationResult:
    """Build and simulate one grid cell through the scalar engine.

    The process-pool work function; ``trace`` and ``buffer`` let in-process
    callers reuse an already-generated trace or an already-constructed
    (fresh) buffer instance — construction is deterministic, so passing
    them is purely an optimization.
    """
    settings = spec.settings
    if trace is None:
        trace = settings.trace(spec.trace_name)
    if buffer is None:
        buffer = spec.build_buffer()
    runner = ExperimentRunner(settings, buffer_factory=spec.buffer_factory)
    return runner.run_single(
        trace, buffer, make_workload(spec.workload, spec.trace_name)
    )


def trace_groups(specs: Sequence[RunSpec]) -> Dict[GroupKey, List[int]]:
    """Spec indices grouped by shared power trace, preserving spec order.

    This is the grouping metadata batch-style backends key on: all specs in
    one group replay the same trace at the same fidelity and may be packed
    into a single lockstep batch.
    """
    groups: Dict[GroupKey, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.group_key, []).append(index)
    return groups


class _BufferSupply:
    """Fresh buffer instances, amortizing factory calls across lanes.

    One ``buffer_factory()`` call yields a fresh instance of *every* buffer
    index, so a group of specs needing many (workload × index) lanes draws
    instances index-by-index from stacked factory outputs instead of
    building the full list once per lane: the factory runs as many times as
    the highest per-index demand (the workload count, for grid-shaped
    groups), not once per lane.  ``batch_key`` values and lane floors are
    per-index configuration, identical across instances, so one factory
    output answers them for every spec sharing the factory.
    """

    def __init__(self, factory: Callable[[], List[EnergyBuffer]]) -> None:
        self._factory = factory
        self._stacks: Dict[int, List[EnergyBuffer]] = {}
        self._kernels: Optional[List[Tuple[Optional[Hashable], Optional[int]]]] = None

    def _replenish(self) -> None:
        fresh = self._factory()
        if self._kernels is None:
            self._kernels = [(b.batch_key(), lane_floor(b)) for b in fresh]
        for index, buffer in enumerate(fresh):
            self._stacks.setdefault(index, []).append(buffer)

    def kernel(self, index: int) -> Tuple[Optional[Hashable], Optional[int]]:
        """``index``'s batch key and lane floor (both None if unbatchable)."""
        if self._kernels is None:
            self._replenish()
        return self._kernels[index]

    def take(self, index: int) -> EnergyBuffer:
        """A fresh, never-used buffer instance for ``index``."""
        if not self._stacks.get(index):
            self._replenish()
        return self._stacks[index].pop()


def _supply_for(
    supplies: Dict[Callable[[], List[EnergyBuffer]], _BufferSupply], spec: RunSpec
) -> _BufferSupply:
    supply = supplies.get(spec.buffer_factory)
    if supply is None:
        supply = supplies[spec.buffer_factory] = _BufferSupply(spec.buffer_factory)
    return supply


def partition_batchable(
    specs: Sequence[RunSpec],
    supplies: Optional[Dict[Callable[[], List[EnergyBuffer]], _BufferSupply]] = None,
) -> Tuple[List[List[int]], List[int]]:
    """Spec indices split into batchable lane groups and the rest.

    The single source of truth every batch-style backend partitions with,
    so they can never disagree on which cells batch.  Within each trace
    group, specs are further keyed on their buffer's
    :meth:`~repro.buffers.base.EnergyBuffer.batch_key` — a lockstep batch
    needs one kernel over every lane, so static-kernel lanes and (per
    topology) Morphy-kernel lanes form separate groups.  A group narrower
    than its kernel's :func:`~repro.sim.batch.lane_floor` would lose to the
    scalar engine, so its cells join the rest.  Returns
    ``(lane_groups, singles)``: one index list per (trace, kernel) group at
    or above its floor (spec order preserved), plus every other spec, in
    spec order.  Pass ``supplies`` to keep drawing lane buffers from the
    same factory outputs used for the ``batch_key`` checks.
    """
    if supplies is None:
        supplies = {}
    lane_groups: List[List[int]] = []
    singles: List[int] = []
    for indices in trace_groups(specs).values():
        by_kernel: Dict[Hashable, List[int]] = {}
        floors: Dict[Hashable, int] = {}
        for i in indices:
            key, floor = _supply_for(supplies, specs[i]).kernel(specs[i].buffer_index)
            if key is None:
                singles.append(i)
            else:
                by_kernel.setdefault(key, []).append(i)
                floors[key] = floor
        for key, group in by_kernel.items():
            if len(group) >= floors[key]:
                lane_groups.append(group)
            else:
                singles.extend(group)
    return lane_groups, sorted(singles)


def _split_evenly(items: List[int], chunks: int) -> List[List[int]]:
    """``items`` in ``chunks`` contiguous, near-equal runs (order kept)."""
    chunks = max(1, min(chunks, len(items)))
    base, extra = divmod(len(items), chunks)
    out: List[List[int]] = []
    start = 0
    for position in range(chunks):
        size = base + (1 if position < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def plan_shards(specs: Sequence[RunSpec], workers: int) -> List[Tuple[int, ...]]:
    """Spec indices cut into shards along :func:`partition_batchable` lines.

    The shard plan ``pool+batch`` runs over its process pool.  Each lane
    group splits into contiguous chunks so the shard count reaches
    ``workers``, never into a chunk narrower than its kernel's lane floor
    (it would just run scalar inside a batch).  Every other cell,
    unbatchable or in a group below its floor, is a shard of its own: these
    are often the heaviest cells, and as separate jobs they spread over
    the workers.  Shards come back in spec order, and so do the indices
    inside each shard.
    """
    supplies: Dict[Callable[[], List[EnergyBuffer]], _BufferSupply] = {}
    lane_groups, singles = partition_batchable(specs, supplies)
    shards = [(index,) for index in singles]
    chunks_per_group = max(1, workers // max(1, len(lane_groups)))
    for group in lane_groups:
        # A lane group's cells share one kernel, so its first cell's floor
        # is the group's.
        first = specs[group[0]]
        _, floor = _supply_for(supplies, first).kernel(first.buffer_index)
        chunks = min(chunks_per_group, len(group) // floor)
        shards.extend(tuple(piece) for piece in _split_evenly(group, chunks))
    return sorted(shards)


@dataclass
class SerialBackend:
    """One scalar simulation at a time, in-process, in spec order."""

    name = "serial"

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        results: List[SimulationResult] = []
        traces: Dict[GroupKey, PowerTrace] = {}
        supplies: Dict[Callable[[], List[EnergyBuffer]], _BufferSupply] = {}
        for spec in specs:
            trace = traces.get(spec.group_key)
            if trace is None:
                trace = traces[spec.group_key] = spec.settings.trace(spec.trace_name)
            buffer = _supply_for(supplies, spec).take(spec.buffer_index)
            result = execute_run_spec(spec, trace=trace, buffer=buffer)
            results.append(result)
            if progress is not None:
                progress(result)
        return results


@dataclass
class ProcessPoolBackend:
    """Fans independent specs over a process pool.

    ``workers=1`` (or a single-spec grid) degrades to the serial backend
    without constructing a pool.  Results are collected in submission order
    — identical to spec order — so out-of-order worker completion never
    shows; ``progress`` fires in that same deterministic order as each
    result is collected.
    """

    workers: int = 2
    name = "pool"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        specs = list(specs)
        if self.workers <= 1 or len(specs) <= 1:
            return SerialBackend().run_specs(specs, progress)
        results: List[SimulationResult] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(specs))) as pool:
            futures = [pool.submit(execute_run_spec, spec) for spec in specs]
            for future in futures:
                result = future.result()
                results.append(result)
                if progress is not None:
                    progress(result)
        return results


@dataclass
class BatchBackend:
    """Vectorized lockstep execution of trace-sharing specs.

    Every lane group :func:`partition_batchable` forms becomes one
    :class:`~repro.sim.batch.BatchSimulator` run; specs whose buffer has no
    batched kernel (:meth:`~repro.buffers.base.EnergyBuffer.can_batch` is
    False) and groups narrower than their kernel's lane floor run through
    the scalar engine instead, so a mixed grid still returns exactly the
    serial backend's results in spec order.

    ``progress`` fires in spec order, but only after the whole grid has
    been computed (lanes finish interleaved inside a batch, so there is no
    meaningful earlier moment per cell).
    """

    name = "batch"

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        specs = list(specs)
        computed: List[Optional[SimulationResult]] = [None] * len(specs)
        traces: Dict[GroupKey, PowerTrace] = {}
        supplies: Dict[Callable[[], List[EnergyBuffer]], _BufferSupply] = {}
        lane_groups, _ = partition_batchable(specs, supplies)
        for group in lane_groups:
            first = specs[group[0]]
            settings = first.settings
            trace = traces.get(first.group_key)
            if trace is None:
                trace = traces[first.group_key] = settings.trace(first.trace_name)
            lane_systems = [
                BatterylessSystem.build(
                    trace,
                    _supply_for(supplies, specs[index]).take(specs[index].buffer_index),
                    make_workload(specs[index].workload, specs[index].trace_name),
                    mcu=MSP430FR5994(),
                )
                for index in group
            ]
            simulator = BatchSimulator.from_settings(lane_systems, settings)
            for index, result in zip(group, simulator.run()):
                computed[index] = result

        results: List[SimulationResult] = []
        for index, spec in enumerate(specs):
            result = computed[index]
            if result is None:
                trace = traces.get(spec.group_key)
                if trace is None:
                    trace = traces[spec.group_key] = spec.settings.trace(
                        spec.trace_name
                    )
                buffer = _supply_for(supplies, spec).take(spec.buffer_index)
                result = execute_run_spec(spec, trace=trace, buffer=buffer)
            results.append(result)
            if progress is not None:
                progress(result)
        return results


def execute_spec_shard(specs: Sequence[RunSpec]) -> List[SimulationResult]:
    """Run one shard inside a worker (the pool+batch work function).

    A lane shard runs as one lockstep batch, a one-cell shard scalar.
    """
    return BatchBackend().run_specs(specs)


@dataclass
class PoolBatchBackend:
    """Process-pool fan-out with a lockstep batch inside each worker.

    The composition of :class:`ProcessPoolBackend` and
    :class:`BatchBackend`: :func:`plan_shards` cuts the grid, and each
    shard is one pool job that runs the batch backend in its worker
    process.  A wide lane group splits into contiguous lane shards, so
    every worker gets a wide lane block rather than single cells.  Every
    other cell is a one-cell shard that runs scalar, so this backend also
    parallelizes the scalar remainder the plain batch backend runs
    serially: the Capybara extension, which has no lockstep kernel, and
    lane groups narrower than their kernel's lane floor, such as the paper
    grid's four REACT lanes per trace.

    Lane shards never mix groups: every lane in a shard shares the trace,
    the timestep pair, and the lockstep kernel family, which is exactly
    what the segment planner assumes when it fast-forwards a shard's lanes
    through whole-segment kernel replays.  Lane arithmetic — stepped or
    replayed — is elementwise and bit-exact, so a lane's counters are
    independent of which shard it lands in; sharding changes throughput,
    never results.  (Throughput *can* depend on shard membership: a kernel
    with ``fast_forward_needs_full_batch`` only skips a segment when every
    lane in its shard agrees on the plan, so narrower shards skip more
    often but amortize less per step.)
    """

    workers: int = 2
    name = "pool+batch"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        specs = list(specs)
        if self.workers <= 1 or len(specs) <= 1:
            return BatchBackend().run_specs(specs, progress)
        shards = plan_shards(specs, self.workers)
        computed: List[Optional[SimulationResult]] = [None] * len(specs)
        with ProcessPoolExecutor(max_workers=min(self.workers, len(shards))) as pool:
            futures = [
                (shard, pool.submit(execute_spec_shard, [specs[i] for i in shard]))
                for shard in shards
            ]
            for shard, future in futures:
                for index, result in zip(shard, future.result()):
                    computed[index] = result

        results: List[SimulationResult] = []
        for result in computed:
            assert result is not None  # every spec is in exactly one shard
            results.append(result)
            if progress is not None:
                progress(result)
        return results


def _pool_width(settings: ExperimentSettings) -> int:
    """Worker count for pool-style backends: ``--workers``, else the host.

    An explicit ``workers`` value is honored as given — ``--workers 1``
    deliberately throttles to a single (in-process) worker; only an unset
    value defaults to the host's core count.
    """
    if settings.workers is not None:
        return settings.workers
    return os.cpu_count() or 2


#: The four plain backend names and how each builds from a sweep's settings.
PLAIN_BACKENDS: Mapping[str, Callable[[ExperimentSettings], ExecutionBackend]] = (
    MappingProxyType(
        {
            "serial": lambda settings: SerialBackend(),
            "pool": lambda settings: ProcessPoolBackend(workers=_pool_width(settings)),
            "batch": lambda settings: BatchBackend(),
            "pool+batch": lambda settings: PoolBatchBackend(
                workers=_pool_width(settings)
            ),
        }
    )
)


def available_backends() -> Tuple[str, ...]:
    """Every valid backend name, sorted.

    Each plain name ``X`` and its ``cached:X`` form: the whole
    ``[cached:]<backend>`` grammar.
    """
    return tuple(
        sorted(head + name for name in PLAIN_BACKENDS for head in ("", CACHED_PREFIX))
    )


def resolve_backend(
    name: str, settings: Optional[ExperimentSettings] = None
) -> ExecutionBackend:
    """Build the backend ``name`` names for ``settings``.

    ``name`` must be one of :func:`available_backends`: a plain name builds
    its in-tree backend, and ``cached:<inner>`` a
    :class:`~repro.experiments.store.CachedBackend` around the plain
    ``<inner>``.
    """
    if settings is None:
        settings = ExperimentSettings()
    names = available_backends()
    if name not in names:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; names take the form "
            "[cached:]<backend>, where cached:<inner> wraps a plain backend; "
            "valid names: " + ", ".join(names)
        )
    if name in PLAIN_BACKENDS:
        return PLAIN_BACKENDS[name](settings)
    # Imported lazily: store.py imports this module at the top level.
    from repro.experiments.store import cached_backend_from_settings

    return cached_backend_from_settings(name, settings)
