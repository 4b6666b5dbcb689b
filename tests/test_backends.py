"""The pluggable execution-backend API.

Three contracts are pinned here:

* **Registry round-trip** — backends are looked up by name, unknown names
  fail with the registry contents, and an out-of-tree backend registers
  and runs a grid without any runner changes (the seam the future
  remote/sharded dispatch backend plugs into).
* **`pool+batch` equivalence** — the composed backend runs the *full*
  quick-mode grid (every workload, trace, and buffer: static-kernel lanes
  shard into lockstep batches, and every cell of a group narrower than
  ``min_lanes`` — the grid's four Morphy and four REACT lanes per trace —
  is a one-cell shard that runs scalar) and returns the serial backend's results in serial order, exactly
  (``tests/oracle.py``: counters, times, metrics and energy ledgers all
  ``==``).
* **Ordered collection** — pool-style backends must hide out-of-order
  worker completion.
"""

from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.buffers.morphy import MorphyBuffer
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
    plan_shards,
    register_backend,
    resolve_backend,
    trace_groups,
    unregister_backend,
)
from repro.experiments.runner import ExperimentRunner, ExperimentSettings
from repro.experiments import sweep
from repro.sim.results import SimulationResult
from repro.units import microfarads, millifarads

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
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("quantum", QUICK)
        message = str(excinfo.value)
        assert "quantum" in message
        for name in ("serial", "pool", "batch", "pool+batch"):
            assert name in message

    def test_duplicate_registration_rejected_unless_replaced(self):
        try:
            register_backend("dup-test", lambda settings: SerialBackend())
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend("dup-test", lambda settings: SerialBackend())
            register_backend(
                "dup-test", lambda settings: BatchBackend(), replace=True
            )
            assert isinstance(resolve_backend("dup-test", QUICK), BatchBackend)
        finally:
            unregister_backend("dup-test")
        assert "dup-test" not in available_backends()

    def test_custom_backend_round_trip_through_runner(self):
        """A new backend registers and runs a grid with zero runner changes."""
        recorder = RecordingBackend()
        try:
            register_backend("recording-test", lambda settings: recorder)
            assert "recording-test" in available_backends()
            runner = ExperimentRunner(
                ExperimentSettings(quick=True, backend="recording-test"),
                buffer_factory=slow_then_fast_buffers,
            )
            results = runner.run_grid(
                workloads=("DE",), trace_names=("RF Cart", "RF Obstruction")
            )
        finally:
            unregister_backend("recording-test")
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


class TestPoolBatchBackend:
    def test_full_quick_grid_matches_serial(self):
        """The acceptance gate: pool+batch == serial on the full quick grid.

        Every workload × trace × buffer cell: the twelve static lanes per
        trace run as lane shards, and the four Morphy and four REACT lanes
        per trace, below ``min_lanes``, as one-cell shards.
        """
        serial = sweep(settings=QUICK, backend="serial")
        composed = sweep(settings=QUICK, backend=PoolBatchBackend(workers=4))
        assert len(serial) == len(composed) == 4 * 5 * 5
        assert serial.specs == composed.specs
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)

    def test_sharded_wide_sweep_matches_serial(self):
        """Shard-splitting one trace's lanes across workers changes nothing."""
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
        for reference, candidate in zip(serial.results, composed.results):
            assert_results_equivalent(reference, candidate)

    def test_sharded_morphy_sweep_matches_serial(self):
        """Morphy lanes shard across workers exactly like the statics."""
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

    def test_one_pool_job_per_planned_shard(self, monkeypatch):
        """pool+batch submits exactly the shards of ``plan_shards``, each as
        one ``execute_spec_shard`` job, in spec order."""
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
        serial = SerialBackend().run_specs(specs)
        for reference, candidate in zip(serial, results):
            assert_results_equivalent(reference, candidate)

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
