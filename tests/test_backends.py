"""The pluggable execution-backend API.

Five contracts are pinned here:

* **Backend names** — the eight valid names of the ``[cached:]<backend>``
  grammar each resolve to a pinned class, unknown names fail with the
  valid ones listed, and an out-of-tree backend instance runs a grid
  through the runner without any runner changes.
* **`pool+batch` equivalence** — the composed backend runs the *full*
  quick-mode grid (every workload, trace, and buffer: static-kernel lanes
  shard into lockstep batches, and every cell of a group narrower than its
  kernel's lane floor — the grid's four Morphy and four REACT lanes per
  trace — is a one-cell shard that runs scalar) and returns the serial
  backend's results in serial order, exactly (``tests/oracle.py``:
  counters, times, metrics and energy ledgers all ``==``).
* **Shard planning** — :func:`~repro.experiments.backends.plan_shards`
  puts every spec in exactly one shard, in spec order; lane shards never
  go below their kernel's lane floor, and every other cell is a one-cell
  shard.
* **Lane floors** — a lane group batches exactly when it is at least as
  wide as its kernel's floor, under ``batch`` and ``pool+batch`` alike.
* **Ordered collection** — pool-style backends must hide out-of-order
  worker completion.
"""

import pickle
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.buffers.morphy import MorphyBuffer
from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBuffer
from repro.exceptions import ConfigurationError
from repro.experiments.backends import (
    BatchBackend,
    ExecutionBackend,
    PoolBatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    _split_evenly,
    available_backends,
    execute_spec_shard,
    partition_batchable,
    plan_shards,
    resolve_backend,
    trace_groups,
)
from repro.experiments.store import CachedBackend
from repro.experiments.runner import ExperimentRunner, ExperimentSettings
from repro.experiments import sweep
from repro.sim.results import SimulationResult
from repro.units import microfarads, milliamps, millifarads

from oracle import assert_results_equivalent

QUICK = ExperimentSettings(quick=True)


def slow_then_fast_buffers():
    """Morphy (slow, unbatchable) before a small static (fast, batchable)."""
    return [MorphyBuffer(), StaticBuffer(microfarads(770.0), name="770 uF")]


def capacitance_ladder_buffers():
    """Twelve trace-sharing static lanes: wide enough to shard-split."""
    return [
        StaticBuffer(millifarads(0.5 * (index + 1)), name=f"{0.5 * (index + 1):.1f} mF")
        for index in range(12)
    ]


def morphy_ladder_buffers():
    """Twelve topology-sharing Morphy lanes: one kernel, shard-splittable."""
    return [
        MorphyBuffer(
            unit_capacitance=millifarads(0.5 * (index + 1)),
            name=f"Morphy {0.5 * (index + 1):.1f} mF",
        )
        for index in range(12)
    ]


def react_hint_buffers():
    """Six hint-diverse REACT lanes sharing one kernel."""
    return [
        ReactBuffer(
            name=f"REACT {hint:.2f} mA", active_current_hint=milliamps(hint)
        )
        for hint in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    ]


def five_react_five_morphy_buffers():
    """Five REACT lanes and five Morphy unit capacitances: perfbench's
    adaptive sweep, two groups narrower than their floors."""
    return react_hint_buffers()[:5] + [
        MorphyBuffer(unit_capacitance=millifarads(unit), name=f"Morphy {unit} mF")
        for unit in (0.5, 1.0, 2.0, 3.0, 4.0)
    ]


@dataclass
class RecordingBackend:
    """An out-of-tree backend: delegates to serial, records what it saw."""

    name = "recording"
    seen_specs: Optional[List] = None
    seen_groups: Optional[int] = None

    def run_specs(self, specs, progress=None):
        self.seen_specs = list(specs)
        self.seen_groups = len(trace_groups(specs))
        return SerialBackend().run_specs(specs, progress)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"serial", "pool", "batch", "pool+batch"}

    def test_resolve_builds_the_right_types(self):
        assert isinstance(resolve_backend("serial", QUICK), SerialBackend)
        assert isinstance(resolve_backend("batch", QUICK), BatchBackend)
        assert isinstance(resolve_backend("pool", QUICK), ProcessPoolBackend)
        assert isinstance(resolve_backend("pool+batch", QUICK), PoolBatchBackend)

    def test_resolve_threads_worker_width_from_settings(self):
        assert resolve_backend("pool", ExperimentSettings(workers=7)).workers == 7
        assert (
            resolve_backend("pool+batch", ExperimentSettings(workers=3)).workers == 3
        )

    def test_explicit_single_worker_is_honored_not_escalated(self):
        """`--workers 1` means one worker; only *unset* defaults to the host."""
        import os

        assert resolve_backend("pool", ExperimentSettings(workers=1)).workers == 1
        assert (
            resolve_backend("pool+batch", ExperimentSettings(workers=1)).workers == 1
        )
        host = os.cpu_count() or 2
        assert resolve_backend("pool", ExperimentSettings()).workers == host

    def test_unknown_backend_error_lists_registry(self):
        for unknown in ("quantum", "cached:cached:serial", "remote:serial", "cached:"):
            with pytest.raises(ConfigurationError) as excinfo:
                resolve_backend(unknown, QUICK)
            message = str(excinfo.value)
            assert repr(unknown) in message
            for name in ("serial", "pool", "batch", "pool+batch"):
                assert name in message

    def test_backend_names_and_classes_are_pinned(self, tmp_path):
        """Exactly the eight names of the grammar, each its own class."""
        plain = {
            "serial": SerialBackend,
            "pool": ProcessPoolBackend,
            "batch": BatchBackend,
            "pool+batch": PoolBatchBackend,
        }
        expected = dict(plain)
        for name in plain:
            expected["cached:" + name] = CachedBackend
        assert available_backends() == tuple(sorted(expected))
        assert len(available_backends()) == 8
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        for name, backend_class in expected.items():
            backend = resolve_backend(name, settings)
            assert type(backend) is backend_class, name
            assert backend.name == name
            if backend_class is CachedBackend:
                inner = name[len("cached:") :]
                assert type(backend.inner) is plain[inner], name

    def test_custom_backend_round_trip_through_runner(self):
        """An out-of-tree backend instance runs a grid, no runner changes."""
        recorder = RecordingBackend()
        runner = ExperimentRunner(
            QUICK, buffer_factory=slow_then_fast_buffers, backend=recorder
        )
        assert runner.resolved_backend() is recorder
        results = runner.run_grid(
            workloads=("DE",), trace_names=("RF Cart", "RF Obstruction")
        )
        assert len(results) == 4
        assert len(recorder.seen_specs) == 4
        assert recorder.seen_groups == 2  # one lane group per trace
        assert all(isinstance(r, SimulationResult) for r in results)

    def test_backends_satisfy_the_protocol(self):
        for name in ("serial", "pool", "batch", "pool+batch"):
            assert isinstance(resolve_backend(name, QUICK), ExecutionBackend)


class TestPartitioning:
    def test_trace_groups_preserve_spec_order(self):
        specs = ExperimentRunner(QUICK).grid_specs(
            workloads=("DE", "SC"), trace_names=("RF Cart", "RF Mobile")
        )
        groups = trace_groups(specs)
        assert len(groups) == 2
        for indices in groups.values():
            assert indices == sorted(indices)
        assert sorted(i for group in groups.values() for i in group) == list(
            range(len(specs))
        )

    def test_split_evenly_keeps_order_and_balance(self):
        assert _split_evenly(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert _split_evenly(list(range(4)), 9) == [[0], [1], [2], [3]]
        assert _split_evenly(list(range(4)), 1) == [[0, 1, 2, 3]]


class TestShardPlanning:
    def test_every_spec_in_exactly_one_shard_in_order(self):
        specs = ExperimentRunner(QUICK).grid_specs()
        shards = plan_shards(specs, workers=3)
        seen = [index for shard in shards for index in shard]
        assert sorted(seen) == list(range(len(specs)))
        assert shards == sorted(shards)  # shards in spec order
        for shard in shards:
            assert list(shard) == sorted(shard)
            group_keys = {specs[i].group_key for i in shard}
            assert len(group_keys) == 1  # one trace (and kernel) per shard

    def test_wide_lane_group_splits_but_not_below_min_lanes(self, lane_floors):
        specs = ExperimentRunner(
            QUICK, buffer_factory=capacitance_ladder_buffers
        ).grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        lane_floors(static=6)
        shards = plan_shards(specs, workers=3)
        assert len(shards) == 2  # twelve lanes split in two, floor of six
        assert all(len(shard) >= 6 for shard in shards)
        lane_floors(static=12)
        assert plan_shards(specs, workers=3) == plan_shards(
            specs, workers=1
        )  # too narrow to split, whatever the worker count

    def test_groups_below_min_lanes_become_one_cell_shards(self, lane_floors):
        """The paper grid's Morphy group of four sits below a floor of five,
        so each of its cells is a shard of its own, not one narrow shard."""
        lane_floors(5)
        specs = ExperimentRunner(QUICK).grid_specs(
            workloads=("DE", "SC", "RT", "PF"), trace_names=("RF Cart",)
        )
        morphy = [i for i, spec in enumerate(specs) if spec.buffer_index == 3]
        assert len(morphy) == 4
        shards = plan_shards(specs, workers=2)
        assert [shard for shard in shards if shard[0] in morphy] == [
            (index,) for index in morphy
        ]

    def test_shard_count_tracks_worker_count(self, lane_floors):
        lane_floors(static=2)
        specs = ExperimentRunner(
            QUICK, buffer_factory=capacitance_ladder_buffers
        ).grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        assert len(plan_shards(specs, workers=4)) > len(
            plan_shards(specs, workers=1)
        )


class TestLaneFloors:
    """Each kernel's ``min_lanes`` decides batch vs scalar, per group."""

    SHORT = ExperimentSettings(quick=True, quick_trace_cap=120.0)

    def test_narrow_adaptive_groups_run_scalar_and_build_no_kernel(
        self, lane_floors
    ):
        """Five REACT and five Morphy lanes are below both kernels' floors:
        ``batch`` and ``pool+batch`` run every cell scalar, no kernel is
        built (in this process or a pool worker), and the results equal
        serial."""
        assert ReactBatchKernel.min_lanes > 5 and MorphyBatchKernel.min_lanes > 5
        grid = dict(
            workloads=("DE",),
            trace_names=("RF Mobile",),
            settings=self.SHORT,
            buffer_factory=five_react_five_morphy_buffers,
        )
        serial = sweep(backend="serial", **grid)
        lane_groups, singles = partition_batchable(serial.specs)
        assert lane_groups == [] and singles == list(range(10))
        for backend in (BatchBackend(), PoolBatchBackend(workers=2)):
            run = sweep(backend=backend, **grid)
            assert not lane_floors.built(), backend.name
            for reference, candidate in zip(serial.results, run.results):
                assert_results_equivalent(reference, candidate)

    def test_group_exactly_at_its_floor_batches(self, lane_floors):
        """Six REACT lanes batch at a floor of six and run scalar at seven,
        under both batch-style backends."""
        grid = dict(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=self.SHORT,
            buffer_factory=react_hint_buffers,
        )
        serial = sweep(backend="serial", **grid)
        for floor, lockstep_runs in ((6, 1), (7, 0)):
            lane_floors(react=floor)
            for backend in (BatchBackend(), PoolBatchBackend(workers=2)):
                before = lane_floors.entered()["ReactBatchKernel"]
                run = sweep(backend=backend, **grid)
                after = lane_floors.entered()["ReactBatchKernel"]
                assert after - before == lockstep_runs, (floor, backend.name)
                for reference, candidate in zip(serial.results, run.results):
                    assert_results_equivalent(reference, candidate)


@pytest.fixture
def recording_pool(monkeypatch):
    """Run pool jobs in-process; the list records each ``(function, args)``."""
    import repro.experiments.backends as backends_module

    submitted = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, function, *args):
            submitted.append((function, args))
            future = Future()
            future.set_result(function(*args))
            return future

    monkeypatch.setattr(backends_module, "ProcessPoolExecutor", RecordingPool)
    return submitted


class TestPoolBatchBackend:
    def test_full_quick_grid_matches_serial(self, lane_floors):
        """The acceptance gate: pool+batch == serial on the full quick grid.

        Every workload × trace × buffer cell at a floor of five for every
        kernel: the twelve static lanes per trace run as lane shards, and
        the four Morphy and four REACT lanes per trace, below the floor, as
        one-cell shards.
        """
        lane_floors(5)
        serial = sweep(settings=QUICK, backend="serial")
        composed = sweep(settings=QUICK, backend=PoolBatchBackend(workers=4))
        assert len(serial) == len(composed) == 4 * 5 * 5
        assert lane_floors.entered() == {"StaticBatchKernel": 5}  # one per trace
        assert serial.specs == composed.specs
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)

    def test_sharded_wide_sweep_matches_serial(self, lane_floors):
        """Shard-splitting one trace's lanes across workers changes nothing."""
        lane_floors(static=5)
        serial = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=capacitance_ladder_buffers,
            backend="serial",
        )
        composed = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=capacitance_ladder_buffers,
            backend=PoolBatchBackend(workers=2),
        )
        assert lane_floors.entered() == {"StaticBatchKernel": 2}  # two shards
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)

    def test_sharded_morphy_sweep_matches_serial(self, lane_floors):
        """Morphy lanes shard across workers exactly like the statics."""
        lane_floors(morphy=5)
        serial = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=morphy_ladder_buffers,
            backend="serial",
        )
        composed = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=morphy_ladder_buffers,
            backend=PoolBatchBackend(workers=2),
        )
        assert lane_floors.entered() == {"MorphyBatchKernel": 2}  # two shards
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)

    def test_workers_one_degrades_to_batch_backend(self, monkeypatch):
        import repro.experiments.backends as backends_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("workers=1 must not build a process pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", forbidden)
        results = PoolBatchBackend(workers=1).run_specs(
            ExperimentRunner(QUICK, buffer_factory=capacitance_ladder_buffers)
            .grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        )
        assert len(results) == 12

    def test_one_pool_job_per_planned_shard(self, recording_pool, lane_floors):
        """pool+batch submits exactly the shards of ``plan_shards``, each as
        one ``execute_spec_shard`` job, in spec order."""
        lane_floors(5)
        submitted = recording_pool
        specs = ExperimentRunner(
            ExperimentSettings(quick=True, quick_trace_cap=120.0)
        ).grid_specs(workloads=("DE", "SC", "RT", "PF"), trace_names=("RF Cart",))
        results = PoolBatchBackend(workers=2).run_specs(specs)
        shards = plan_shards(specs, 2)
        assert [function for function, _ in submitted] == [execute_spec_shard] * len(
            shards
        )
        assert [args for _, args in submitted] == [
            ([specs[i] for i in shard],) for shard in shards
        ]
        assert [len(shard) for shard in shards].count(1) == 8  # Morphy, REACT
        assert lane_floors.entered() == {"StaticBatchKernel": 2}  # two shards
        serial = SerialBackend().run_specs(specs)
        for reference, candidate in zip(serial, results):
            assert_results_equivalent(reference, candidate)

    @pytest.mark.parametrize("backend", ["cached:pool", "cached:pool+batch"])
    def test_job_payloads_do_not_depend_on_the_store_path(
        self, recording_pool, tmp_path, backend
    ):
        """Jobs ship settings with execution-only fields at their defaults,
        so where the store lives never reaches a worker."""
        payloads = []
        for cache_dir in (tmp_path / "a", tmp_path / "a-much-longer-store-path"):
            settings = ExperimentSettings(
                quick=True,
                quick_trace_cap=60.0,
                backend=backend,
                workers=2,
                cache_dir=str(cache_dir),
            )
            sweep(workloads=("SC",), trace_names=("RF Cart",), settings=settings)
            payloads.append(
                [pickle.dumps(job, pickle.HIGHEST_PROTOCOL) for job in recording_pool]
            )
            recording_pool.clear()
        assert payloads[0] and payloads[0] == payloads[1]
        assert all(b"a-much-longer" not in payload for payload in payloads[1])

    def test_ordered_collection_under_out_of_order_completion(self):
        """The slow Morphy single must not displace the fast static lane."""
        serial = sweep(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=slow_then_fast_buffers,
            backend="serial",
        )
        seen = []
        composed = sweep(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=QUICK,
            buffer_factory=slow_then_fast_buffers,
            backend=PoolBatchBackend(workers=2),
            progress=lambda r: seen.append(r.buffer_name),
        )
        assert [r.buffer_name for r in composed.results] == ["Morphy", "770 uF"]
        assert seen == ["Morphy", "770 uF"]
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)


class TestSweepApi:
    def test_sweep_returns_paired_specs_and_results(self):
        run = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
        )
        assert run.backend == "serial"
        assert len(run.specs) == len(run.results) == 5
        for spec, result in run:
            assert spec.trace_name == result.trace_name

    def test_sweep_accepts_backend_name_and_instance(self):
        by_name = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            backend="batch",
        )
        by_instance = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=QUICK,
            backend=BatchBackend(),
        )
        assert by_name.backend == by_instance.backend == "batch"
        for reference, candidate in zip(by_name.results, by_instance.results):
            assert_results_equivalent(reference, candidate)

    def test_sweep_resolves_backend_from_settings(self):
        run = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=ExperimentSettings(quick=True, backend="batch"),
        )
        assert run.backend == "batch"
