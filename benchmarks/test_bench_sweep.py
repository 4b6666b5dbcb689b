"""Benchmark for the evaluation-sweep machinery itself.

Times the quick-mode grid sweep across the execution backends — step-by-step
serial (the seed's execution model), fast-path serial, a 4-worker process
pool, the vectorized lockstep batch (static and Morphy kernels), and the
composed ``pool+batch`` backend — and records the throughput ratios both in
the pytest-benchmark JSON and in ``benchmarks/out/BENCH_sweep.json`` (via
:func:`benchmarks.conftest.record_sweep_metrics`), the untracked fresh copy
of the committed perf trajectory ``benchmarks/BENCH_sweep.json``.  Grids
are driven through the same public :func:`repro.experiments.sweep` surface
the table/figure modules use.

Correctness assertions, not timing assertions, gate the tests: every
backend must return the same results in the same order as the serial
backend, and the fast-path engine must agree with the step-by-step engine,
all exactly (``tests/oracle.py``).  (Timing ratios depend on the host's
core count — on a single-core CI runner the worker pools cannot win — so
all pool ratios are recorded, not asserted; the static batch sweep keeps
a pathological-regression floor, the REACT and Morphy batch sweeps pin
their exact lockstep work, and the mixed grid pins its exact scalar replay
work.)
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

import numpy as np

from benchmarks.conftest import record_sweep_metrics, run_once
from repro.buffers.base import EnergyBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBuffer
from repro.experiments.backends import (
    BatchBackend,
    PoolBatchBackend,
    ProcessPoolBackend,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments import sweep
from repro.sim.batch import _LockstepRun
from repro.units import milliamps, millifarads
from tests.oracle import assert_sweeps_equivalent

#: A representative slice of the grid: every buffer and every trace, two
#: workloads (one throughput-style, one reactivity-style).  Small enough to
#: run three times inside the benchmark budget.
SWEEP_WORKLOADS = ("DE", "SC")

#: The batched engine's target shape: many trace-sharing cells.  A dense
#: static-capacitance sweep (the Figure-1-style design-space exploration)
#: packs every size into one lockstep batch per trace.
BATCH_SWEEP_SIZES_MF = np.geomspace(0.8, 300.0, 64)
BATCH_SWEEP_TRACES = ("RF Cart", "Solar Campus")


def capacitance_sweep_buffers():
    """Module-level factory: one static buffer per swept capacitance."""
    return [
        StaticBuffer(millifarads(float(size)), name=f"{size:.2f} mF")
        for size in BATCH_SWEEP_SIZES_MF
    ]


#: The Morphy sweep: the heaviest cells of every grid.  All variants share
#: the default eight-capacitor topology (one lockstep kernel) and sweep the
#: unit capacitance, the Figure-1-style exploration for the reconfigurable
#: array.  Morphy cells cost several times a static cell, so the sweep is
#: narrower than the static one but still packs 48 lanes into each trace's
#: kernel.
MORPHY_SWEEP_SIZES_MF = np.geomspace(0.5, 4.0, 24)
MORPHY_SWEEP_TRACES = ("RF Cart",)


def morphy_sweep_buffers():
    """Module-level factory: one Morphy array per swept unit capacitance."""
    return [
        MorphyBuffer(
            unit_capacitance=millifarads(float(size)), name=f"Morphy {size:.3f} mF"
        )
        for size in MORPHY_SWEEP_SIZES_MF
    ]


#: The REACT sweep: polling-overhead sensitivity of the reconfigurable
#: fabric.  Every lane shares the Table-1 ``ReactConfig`` (one batch key,
#: so the batch backend packs the whole trace column into a single
#: :class:`~repro.buffers.react_batch.ReactBatchKernel`) and sweeps the
#: MCU active-current hint the 10 Hz polling-overhead model charges —
#: per-lane kernel state, not part of the batch key.  Two alignment-heavy
#: workloads keep the lanes in lockstep so the full-batch on-phase replay
#: engages (REACT's ``fast_forward_needs_full_batch`` economics).
REACT_SWEEP_HINTS_MA = np.linspace(0.5, 3.0, 40)
REACT_SWEEP_TRACES = ("RF Cart",)


def react_sweep_buffers():
    """Module-level factory: one REACT adapter per swept polling hint."""
    return [
        ReactBuffer(
            name=f"REACT {hint:.3f} mA",
            active_current_hint=milliamps(float(hint)),
        )
        for hint in REACT_SWEEP_HINTS_MA
    ]


def test_bench_grid_sweep_serial_vs_parallel(benchmark, bench_settings):
    serial_runner = ExperimentRunner(bench_settings)
    parallel_runner = ExperimentRunner(
        bench_settings, backend=ProcessPoolBackend(workers=4)
    )
    step_by_step_runner = ExperimentRunner(
        dataclasses.replace(bench_settings, fast_forward=False)
    )

    started = time.perf_counter()
    step_by_step = step_by_step_runner.run_grid(workloads=SWEEP_WORKLOADS)
    step_by_step_seconds = time.perf_counter() - started

    started = time.perf_counter()
    serial = run_once(benchmark, serial_runner.run_grid, workloads=SWEEP_WORKLOADS)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = parallel_runner.run_grid(workloads=SWEEP_WORKLOADS)
    parallel_seconds = time.perf_counter() - started

    # The parallel runner must reproduce the serial grid exactly, in order,
    # and the fast-path engine must agree exactly with step-by-step execution.
    assert_sweeps_equivalent(serial, parallel)
    assert_sweeps_equivalent(step_by_step, serial)

    benchmark.extra_info["grid_cells"] = len(serial)
    benchmark.extra_info["step_by_step_serial_seconds"] = round(step_by_step_seconds, 3)
    benchmark.extra_info["fast_path_serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_workers4_seconds"] = round(parallel_seconds, 3)
    benchmark.extra_info["fast_path_speedup"] = round(
        step_by_step_seconds / serial_seconds, 3
    )
    benchmark.extra_info["parallel_speedup_vs_fast_serial"] = round(
        serial_seconds / parallel_seconds, 3
    )
    record_sweep_metrics("grid_sweep", benchmark.extra_info)


#: The mixed-grid shape that motivated on-phase fast forwarding: every
#: paper buffer (the REACT and Morphy cells dominate wall-clock) under the
#: two longevity-heavy workloads, whose deep-sleep wait-for-energy
#: stretches are exactly what the workload quiescence protocol skips.
MIXED_GRID_WORKLOADS = ("RT", "PF")
MIXED_GRID_TRACES = ("RF Cart", "Solar Campus")


def count_buffer_fast_forwards(monkeypatch) -> Counter:
    """Count the scalar whole-segment replays of every buffer class.

    Wraps ``fast_forward`` and ``fast_forward_on`` on
    :class:`~repro.buffers.base.EnergyBuffer` and on every subclass that
    defines its own.  Only the outermost call counts (a subclass handing a
    segment to the generic loop through ``super()`` is one replay): the
    returned counter fills in ``off_calls`` / ``on_calls`` and the committed
    ``off_steps`` / ``on_steps``.  None of them depends on the host, so a
    test can pin them exactly.
    """
    counts = Counter()
    depth = []

    def counted(method, phase):
        def replay(buffer, *args, **kwargs):
            depth.append(phase)
            try:
                steps, end_time = method(buffer, *args, **kwargs)
            finally:
                depth.pop()
            if not depth:
                counts[f"{phase}_calls"] += 1
                counts[f"{phase}_steps"] += steps
            return steps, end_time

        return replay

    classes = [EnergyBuffer]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in classes:
        for attr, phase in (("fast_forward", "off"), ("fast_forward_on", "on")):
            if attr in vars(cls):
                monkeypatch.setattr(cls, attr, counted(vars(cls)[attr], phase))
    return counts


#: The deterministic scalar fast-path work of the mixed grid's fast run
#: (see :func:`count_buffer_fast_forwards`).  Each count moves if the
#: engine stops replaying whole segments (``fast_forward=False``) or the
#: workloads stop promising quiescence (no hints: fewer, shorter on-phase
#: replays).
MIXED_GRID_FAST_FORWARDS = {
    "off_calls": 2430,
    "off_steps": 11_062,
    "on_calls": 5796,
    "on_steps": 320_396,
}


def test_bench_mixed_grid_react_heavy_sweep(benchmark, bench_settings, monkeypatch):
    """Serial throughput on the REACT-heavy mixed grid.

    This is the committed perf trajectory for the on-phase fast path: the
    full buffer column (REACT cells run scalar and dominate) under RT/PF,
    timed with every fast path enabled against the step-by-step engine.
    Correctness gates the test (exact results against the oracle), and so
    does the fast run's deterministic scalar replay work, pinned exactly in
    :data:`MIXED_GRID_FAST_FORWARDS`.  The speedup over the step-by-step
    engine is recorded, not asserted: a single-sample wall-clock ratio is a
    measurement, not an invariant.
    """
    fast_runner = ExperimentRunner(bench_settings)
    step_runner = ExperimentRunner(
        dataclasses.replace(bench_settings, fast_forward=False)
    )

    started = time.perf_counter()
    step_by_step = step_runner.run_grid(
        workloads=MIXED_GRID_WORKLOADS, trace_names=MIXED_GRID_TRACES
    )
    step_by_step_seconds = time.perf_counter() - started

    work = count_buffer_fast_forwards(monkeypatch)
    started = time.perf_counter()
    fast = run_once(
        benchmark,
        fast_runner.run_grid,
        workloads=MIXED_GRID_WORKLOADS,
        trace_names=MIXED_GRID_TRACES,
    )
    fast_seconds = time.perf_counter() - started
    work = dict(work)

    assert_sweeps_equivalent(step_by_step, fast)

    speedup = step_by_step_seconds / fast_seconds
    benchmark.extra_info["grid_cells"] = len(fast)
    benchmark.extra_info["step_by_step_serial_seconds"] = round(
        step_by_step_seconds, 3
    )
    benchmark.extra_info["serial_seconds"] = round(fast_seconds, 3)
    benchmark.extra_info["fast_path_speedup"] = round(speedup, 3)
    benchmark.extra_info["work"] = work
    record_sweep_metrics("mixed_grid_react_heavy", benchmark.extra_info)
    assert work == MIXED_GRID_FAST_FORWARDS


def test_bench_batched_capacitance_sweep(benchmark, bench_settings):
    """Batched lockstep sweep vs the serial engine on trace-sharing cells.

    Every (size × workload) cell of a capacitance sweep shares its trace, so
    the batch backend packs each trace's 128 cells into one vectorized
    simulation, and the ``pool+batch`` backend splits those lanes into
    per-worker shards that batch inside the pool.  Correctness gates the
    test — both grids must agree with the serial grid exactly on every
    field.

    On throughput this shape is the batch engine's hardest case — serial
    skips whole quiescent on-segments of a static lane through an inlined
    float loop — but since the shared segment planner
    (:mod:`repro.sim.segments`) taught the batch engine the same trick
    (per-lane whole-segment replay through
    :meth:`~repro.buffers.static.StaticBatchKernel.fast_forward`, with the
    lockstep loop skipped outright when every lane fast-forwards), batch
    dominates serial here too.  That dominance is the assertion: the
    batched sweep must run at least as fast as the serial sweep
    (``speedup >= 1.0``).  ``batch_segment_skip_speedup`` records what the
    segment replay itself buys (batched with fast-forwarding disabled vs
    enabled), and the ``pool+batch`` throughput is recorded alongside
    (pool ratios depend on the runner's core count, so it carries no
    assertion).
    """
    serial_runner = ExperimentRunner(
        bench_settings, buffer_factory=capacitance_sweep_buffers
    )
    batch_runner = ExperimentRunner(
        bench_settings,
        buffer_factory=capacitance_sweep_buffers,
        backend=BatchBackend(),
    )

    started = time.perf_counter()
    serial = serial_runner.run_grid(
        workloads=SWEEP_WORKLOADS, trace_names=BATCH_SWEEP_TRACES
    )
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched = run_once(
        benchmark,
        batch_runner.run_grid,
        workloads=SWEEP_WORKLOADS,
        trace_names=BATCH_SWEEP_TRACES,
    )
    batched_seconds = time.perf_counter() - started

    started = time.perf_counter()
    pool_batch = sweep(
        workloads=SWEEP_WORKLOADS,
        trace_names=BATCH_SWEEP_TRACES,
        settings=bench_settings,
        buffer_factory=capacitance_sweep_buffers,
        backend=PoolBatchBackend(workers=4),
    ).results
    pool_batch_seconds = time.perf_counter() - started

    step_batch_runner = ExperimentRunner(
        dataclasses.replace(bench_settings, fast_forward=False),
        buffer_factory=capacitance_sweep_buffers,
        backend=BatchBackend(),
    )
    started = time.perf_counter()
    step_batched = step_batch_runner.run_grid(
        workloads=SWEEP_WORKLOADS, trace_names=BATCH_SWEEP_TRACES
    )
    step_batched_seconds = time.perf_counter() - started

    assert_sweeps_equivalent(serial, batched)
    assert_sweeps_equivalent(serial, pool_batch)
    assert_sweeps_equivalent(serial, step_batched)

    speedup = serial_seconds / batched_seconds
    benchmark.extra_info["grid_cells"] = len(serial)
    benchmark.extra_info["lanes_per_trace"] = len(BATCH_SWEEP_SIZES_MF) * len(
        SWEEP_WORKLOADS
    )
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 3)
    benchmark.extra_info["batched_speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["pool_batch_workers4_seconds"] = round(pool_batch_seconds, 3)
    benchmark.extra_info["pool_batch_speedup_vs_serial"] = round(
        serial_seconds / pool_batch_seconds, 3
    )
    benchmark.extra_info["pool_batch_speedup_vs_batched"] = round(
        batched_seconds / pool_batch_seconds, 3
    )
    benchmark.extra_info["step_batched_seconds"] = round(step_batched_seconds, 3)
    benchmark.extra_info["batch_segment_skip_speedup"] = round(
        step_batched_seconds / batched_seconds, 3
    )
    record_sweep_metrics("batched_capacitance_sweep", benchmark.extra_info)
    assert speedup >= 1.0, (
        f"batched sweep fell behind serial throughput ({speedup:.2f}x); "
        f"batch >= serial dominance is the shared segment planner's claim "
        f"on its hardest (all-static, hint-heavy) shape"
    )


#: The deterministic work of the batched Morphy sweep's 48-lane column (see
#: :func:`count_kernel_work`).  Each count moves if the column stops
#: reaching the kernel (Morphy forced scalar), stops replaying whole
#: segments (``fast_forward=False``) or stops handing its last lanes to the
#: scalar engine (a lane floor of 1).
MORPHY_BATCHED_WORK = {
    "lockstep_steps": 7308,
    "on_replays": 49,
    "on_lane_steps": 70_894,
    "off_replays": 1,
    "off_lane_steps": 376,
    "hand_offs": 39,
}


def test_bench_morphy_batched_sweep(benchmark, bench_settings, monkeypatch):
    """Batched lockstep sweep of the heaviest grid cells: the Morphy lanes.

    Every (unit-capacitance × workload) Morphy cell of a trace shares one
    :class:`~repro.buffers.morphy_batch.MorphyBatchKernel`, so the batch
    backend packs the trace's 48 lanes into a single vectorized run and the
    ``pool+batch`` backend shards them across workers.  Correctness gates
    the test — both grids must agree with the serial grid exactly on every
    field — and so does the batched run's deterministic work, pinned
    exactly in :data:`MORPHY_BATCHED_WORK`.  The batched speedup over
    serial is recorded, not asserted: the scalar Morphy fast path replays
    whole segments on flat floats
    (:func:`~repro.buffers.morphy.replay_segment`), which cut the serial
    reference, and a single-sample wall-clock ratio of two engines is a
    measurement, not an invariant.
    """
    serial_runner = ExperimentRunner(
        bench_settings, buffer_factory=morphy_sweep_buffers
    )
    batch_runner = ExperimentRunner(
        bench_settings,
        buffer_factory=morphy_sweep_buffers,
        backend=BatchBackend(),
    )

    started = time.perf_counter()
    serial = serial_runner.run_grid(
        workloads=SWEEP_WORKLOADS, trace_names=MORPHY_SWEEP_TRACES
    )
    serial_seconds = time.perf_counter() - started

    work = count_kernel_work(monkeypatch, MorphyBatchKernel)
    started = time.perf_counter()
    batched = run_once(
        benchmark,
        batch_runner.run_grid,
        workloads=SWEEP_WORKLOADS,
        trace_names=MORPHY_SWEEP_TRACES,
    )
    batched_seconds = time.perf_counter() - started
    work = dict(work)

    started = time.perf_counter()
    pool_batch = sweep(
        workloads=SWEEP_WORKLOADS,
        trace_names=MORPHY_SWEEP_TRACES,
        settings=bench_settings,
        buffer_factory=morphy_sweep_buffers,
        backend=PoolBatchBackend(workers=4),
    ).results
    pool_batch_seconds = time.perf_counter() - started

    assert_sweeps_equivalent(serial, batched)
    assert_sweeps_equivalent(serial, pool_batch)

    speedup = serial_seconds / batched_seconds
    benchmark.extra_info["grid_cells"] = len(serial)
    benchmark.extra_info["lanes_per_trace"] = len(MORPHY_SWEEP_SIZES_MF) * len(
        SWEEP_WORKLOADS
    )
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 3)
    benchmark.extra_info["batched_speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["pool_batch_workers4_seconds"] = round(pool_batch_seconds, 3)
    benchmark.extra_info["pool_batch_speedup_vs_serial"] = round(
        serial_seconds / pool_batch_seconds, 3
    )
    benchmark.extra_info["work"] = work
    record_sweep_metrics("morphy_batched_sweep", benchmark.extra_info)
    assert work == MORPHY_BATCHED_WORK


def count_kernel_work(monkeypatch, kernel_class) -> Counter:
    """Count the deterministic work of every lockstep run of ``kernel_class``.

    The returned counter fills in as runs go: ``lockstep_steps`` (kernel
    draws outside a whole-segment replay, one per lockstep iteration that
    stepped), ``off_replays`` / ``on_replays`` (replay calls) with their
    committed ``off_lane_steps`` / ``on_lane_steps``, and ``hand_offs``
    (lanes finished on the scalar engine).  None of them depends on the
    host, so a test can pin them exactly.
    """
    counts = Counter()
    replaying = []

    def counted_replay(method, phase):
        def replay(kernel, *args):
            replaying.append(phase)
            try:
                consumed, times = method(kernel, *args)
            finally:
                replaying.pop()
            counts[f"{phase}_replays"] += 1
            counts[f"{phase}_lane_steps"] += int(consumed.sum())
            return consumed, times

        return replay

    draw = kernel_class.draw

    def counted_draw(kernel, *args):
        if not replaying:
            counts["lockstep_steps"] += 1
        return draw(kernel, *args)

    hand_off = _LockstepRun.hand_off

    def counted_hand_off(run, index):
        if isinstance(run.kernel, kernel_class):
            counts["hand_offs"] += 1
        return hand_off(run, index)

    monkeypatch.setattr(
        kernel_class, "fast_forward", counted_replay(kernel_class.fast_forward, "off")
    )
    monkeypatch.setattr(
        kernel_class,
        "fast_forward_on",
        counted_replay(kernel_class.fast_forward_on, "on"),
    )
    monkeypatch.setattr(kernel_class, "draw", counted_draw)
    monkeypatch.setattr(_LockstepRun, "hand_off", counted_hand_off)
    return counts


#: The deterministic work of the batched REACT sweep's 80-lane column (see
#: :func:`count_kernel_work`).  Each count moves if the column stops
#: reaching the kernel (REACT forced scalar), stops replaying whole
#: segments (``fast_forward=False``) or stops handing its last lanes to the
#: scalar engine (a lane floor of 1).
REACT_BATCHED_WORK = {
    "lockstep_steps": 2545,
    "on_replays": 183,
    "on_lane_steps": 542_947,
    "off_replays": 4,
    "off_lane_steps": 2960,
    "hand_offs": 79,
}


def test_bench_react_batched_sweep(benchmark, bench_settings, monkeypatch):
    """Batched lockstep sweep of the REACT polling-overhead column.

    Every (hint × workload) REACT cell of a trace shares one
    :class:`~repro.buffers.react_batch.ReactBatchKernel` (the swept MCU
    active-current hint is per-lane kernel state, not part of the batch
    key), so the batch backend packs the trace's 80 lanes into a single
    vectorized run and the ``pool+batch`` backend shards them across
    workers.  Correctness gates the test — both grids must agree with the
    serial grid exactly on every field — and so does the batched run's
    deterministic work, pinned exactly in :data:`REACT_BATCHED_WORK`.  The
    batched speedup over serial is recorded, not asserted: the scalar
    REACT fast path replays whole segments on flat floats
    (:func:`~repro.buffers.react_adapter.replay_segment`), which halved the
    serial reference, and a single-sample wall-clock ratio of two engines
    is a measurement, not an invariant.
    """
    serial_runner = ExperimentRunner(
        bench_settings, buffer_factory=react_sweep_buffers
    )
    batch_runner = ExperimentRunner(
        bench_settings,
        buffer_factory=react_sweep_buffers,
        backend=BatchBackend(),
    )

    started = time.perf_counter()
    serial = serial_runner.run_grid(
        workloads=SWEEP_WORKLOADS, trace_names=REACT_SWEEP_TRACES
    )
    serial_seconds = time.perf_counter() - started

    work = count_kernel_work(monkeypatch, ReactBatchKernel)
    started = time.perf_counter()
    batched = run_once(
        benchmark,
        batch_runner.run_grid,
        workloads=SWEEP_WORKLOADS,
        trace_names=REACT_SWEEP_TRACES,
    )
    batched_seconds = time.perf_counter() - started
    work = dict(work)

    started = time.perf_counter()
    pool_batch = sweep(
        workloads=SWEEP_WORKLOADS,
        trace_names=REACT_SWEEP_TRACES,
        settings=bench_settings,
        buffer_factory=react_sweep_buffers,
        backend=PoolBatchBackend(workers=4),
    ).results
    pool_batch_seconds = time.perf_counter() - started

    assert_sweeps_equivalent(serial, batched)
    assert_sweeps_equivalent(serial, pool_batch)

    speedup = serial_seconds / batched_seconds
    benchmark.extra_info["grid_cells"] = len(serial)
    benchmark.extra_info["lanes_per_trace"] = len(REACT_SWEEP_HINTS_MA) * len(
        SWEEP_WORKLOADS
    )
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 3)
    benchmark.extra_info["batched_speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["pool_batch_workers4_seconds"] = round(pool_batch_seconds, 3)
    benchmark.extra_info["pool_batch_speedup_vs_serial"] = round(
        serial_seconds / pool_batch_seconds, 3
    )
    benchmark.extra_info["work"] = work
    record_sweep_metrics("react_batched_sweep", benchmark.extra_info)
    assert work == REACT_BATCHED_WORK

