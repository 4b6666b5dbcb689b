"""Vectorized lockstep simulation of many independent systems.

:class:`BatchSimulator` advances N independent ``(config, trace, workload)``
systems that share one power trace through the same energy balance as the
scalar :class:`~repro.sim.engine.Simulator`, but with the per-step buffer,
harvester, and gate arithmetic vectorized across all lanes in shared numpy
state arrays.  The scalar engine's per-step cost is dominated by Python
dispatch; one batched step amortizes that dispatch over every lane, which is
what makes wide grid sweeps (many buffer sizes against one trace) scale.

Lockstep semantics
------------------

All lanes advance together, one adaptive step per lane per batch iteration,
but lanes *diverge*: an on lane steps by ``dt_on`` while an off lane steps
by ``dt_off`` (dropping to ``dt_on`` for a predicted enable, exactly like
the scalar engine's enable prediction), so per-lane simulated clocks drift
apart and every trace/gate/buffer quantity is evaluated per lane at that
lane's own timestamp.  Divergence is handled by masking:

* **timestep masks** pick each lane's ``dt`` from its gate state and the
  batched gate-enable prediction (a vectorized
  :meth:`~repro.buffers.base.EnergyBuffer.post_harvest_voltage_bound`);
* **gate masks** apply enable/brown-out transitions only to the lanes that
  crossed a threshold this step;
* **retired lanes** — those that finished their trace and drained, or hit
  the simulation hard stop — are finalized into results and *compacted out*
  of the state arrays, so a long-lived lane never pays for dead neighbours.

Equivalence contract
--------------------

For every batched buffer architecture the per-lane trajectory (charge,
gate transitions, timestamps, workload behaviour) and energy ledger are
**bit-identical** to running that lane alone through the scalar engine,
with or without its fast paths, because every vectorized expression and
every whole-segment replay mirrors the scalar update rule operation for
operation, ledger additions included.  Every kernel takes the scalar
buffer hooks with their scalar arguments
(:class:`~repro.buffers.base.LockstepKernel`), and the engine calls them
where the scalar engine calls the buffer's: ``overhead_current`` last in
the load sum, ``housekeeping(time, dt, system_on)`` with the post-gating
enabled mask.

Two scalar behaviours are reproduced in aggregated form, exactly as the
scalar off-phase fast path already does: while a lane is off, its workload
is stepped once over the whole off interval rather than once per ``dt_off``
(workload off-behaviour is interval-based, so any partition of the interval
is equivalent), and its MCU accounting is skipped (the off mode draws
nothing and contributes to no reported metric).

On lanes use the same workload-quiescence protocol as the scalar engine's
on-phase fast path, expressed as per-lane hint masks: after a normal on
step, a lane caches the :class:`~repro.workloads.base.QuiescenceHint` its
workload declares and, while the hint holds (the lane's step end stays
before the hint expiry and its post-harvest voltage below the wake
voltage — the exact observation point the stepped workload would use),
subsequent iterations skip the per-lane Python ``workload.step`` dispatch
and reuse the promised constant demand.  The buffer/gate/MCU arithmetic
still advances per step in the shared arrays, so trajectories are
unchanged; the skipped window is flushed through
:meth:`~repro.workloads.base.Workload.skip_quiescent` before the lane next
steps normally, browns out, retires, or hands off.  Lanes whose hints
don't apply (no promise, or an energy-guarded longevity wait) simply step.
``fast_forward=False`` disables the skip along with the scalar tail's fast
paths.

Lane floors
-----------

An array step pays a roughly fixed numpy dispatch cost however few lanes
it carries, so a lockstep batch only beats the scalar engine above a
width that differs by kernel.  Each kernel class declares its measured
crossover (``benchmarks/crossover.py``) as ``min_lanes``, read only by
:func:`lane_floor`.  A batch narrower than its floor runs every lane on
the scalar engine, and once retirements leave fewer live lanes than the
floor, the survivors hand off to the scalar engine mid-flight (all lane
state lives in, or is written back to, the component objects).

The simulator does not support attaching a :class:`~repro.sim.recorder.Recorder`;
timeline recording is a single-system concern and stays on the scalar engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.buffers.base import EnergyBuffer
from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBatchKernel
from repro.exceptions import SimulationError
from repro.platform.mcu import PowerMode
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.sim.segments import LaneSegmentPlanner
from repro.sim.system import BatterylessSystem
from repro.workloads.base import StepContext

#: The in-tree lockstep kernel classes, tried in order.  Each ``build``
#: returns a kernel when *every* lane's buffer fits its vectorized
#: recurrence, else None; lanes of different kernel families never share a
#: batch (the experiment layer partitions on
#: :meth:`~repro.buffers.base.EnergyBuffer.batch_key` before building one).
KERNEL_BUILDERS = (StaticBatchKernel, MorphyBatchKernel, ReactBatchKernel)


def build_batch_kernel(buffers):
    """The first kernel that accepts every buffer in ``buffers``, or None."""
    for kernel_class in KERNEL_BUILDERS:
        kernel = kernel_class.build(buffers)
        if kernel is not None:
            return kernel
    return None


def lane_floor(buffer: EnergyBuffer) -> Optional[int]:
    """The narrowest lane group worth a lockstep batch of ``buffer``'s kernel.

    That is the ``min_lanes`` of the kernel class hosting ``buffer``, or
    None when no kernel can host it.  Every batch-or-scalar decision reads
    its floor here: :class:`BatchSimulator` for its start and its scalar
    tail, and the experiment layer's partitioner and shard planners.
    """
    if buffer.can_batch():
        for kernel_class in KERNEL_BUILDERS:
            if isinstance(buffer, kernel_class.buffer_type):
                return kernel_class.min_lanes
    return None


class BatchSimulator:
    """Lockstep simulator for N systems sharing one power trace.

    Parameters mirror :class:`~repro.sim.engine.Simulator`; every lane uses
    the same timestep policy and drain methodology.  All systems must share
    the same trace and an identical regulator model, and every buffer must
    fit one lockstep kernel (equal, non-None
    :meth:`~repro.buffers.base.EnergyBuffer.batch_key`); callers route
    other lanes to the scalar engine.

    The kernel's :func:`lane_floor` bounds the lockstep part of the run
    (see "Lane floors" above).
    """

    def __init__(
        self,
        systems: Sequence[BatterylessSystem],
        dt_on: float = 0.01,
        dt_off: float = 0.05,
        drain_after_trace: bool = True,
        max_drain_time: float = 600.0,
        max_steps: int = 50_000_000,
        fast_forward: bool = True,
    ) -> None:
        if not systems:
            raise SimulationError("a batch simulation needs at least one system")
        if dt_on <= 0.0 or dt_off <= 0.0:
            raise SimulationError("time steps must be positive")
        if dt_off < dt_on:
            raise SimulationError("dt_off should be at least as large as dt_on")
        if max_drain_time < 0.0:
            raise SimulationError("max drain time must be non-negative")
        self.systems = list(systems)
        self.dt_on = dt_on
        self.dt_off = dt_off
        self.drain_after_trace = drain_after_trace
        self.max_drain_time = max_drain_time
        self.max_steps = max_steps
        #: Whether hand-off Simulators may use the scalar fast paths and
        #: the lockstep loop may honour workload quiescence hints (skipping
        #: per-lane workload dispatch while a hint holds).  The lockstep
        #: loop's electrical arithmetic is always step-by-step (that is
        #: what vectorizes) — pass False for pure step-by-step ablations.
        self.fast_forward = fast_forward

        reference = self.systems[0].frontend
        for system in self.systems:
            frontend = system.frontend
            if frontend.trace is not reference.trace and not (
                frontend.trace.sample_period == reference.trace.sample_period
                and np.array_equal(frontend.trace.powers, reference.trace.powers)
            ):
                raise SimulationError("batched systems must share one power trace")
            if type(frontend.regulator) is not type(reference.regulator) or (
                frontend.regulator != reference.regulator
            ):
                raise SimulationError("batched systems must share one regulator model")
        self._kernel = build_batch_kernel([s.buffer for s in self.systems])
        if self._kernel is None:
            unbatchable = [
                s.buffer.name for s in self.systems if not s.buffer.can_batch()
            ]
            if unbatchable:
                raise SimulationError(
                    "buffers without a batched kernel: "
                    + ", ".join(unbatchable)
                    + " (run them through the scalar Simulator instead)"
                )
            raise SimulationError(
                "batched buffers with incompatible kernels in one batch: "
                + ", ".join(sorted({str(s.buffer.batch_key()) for s in self.systems}))
                + " (partition lanes by EnergyBuffer.batch_key first)"
            )

    @classmethod
    def from_settings(
        cls, systems: Sequence[BatterylessSystem], settings, **overrides
    ) -> "BatchSimulator":
        """A simulator for one lane partition at ``settings`` fidelity.

        ``settings`` is anything exposing the experiment-settings timestep
        surface (``effective_dt_on``, ``effective_dt_off``,
        ``max_drain_time``, ``fast_forward``) — duck-typed so this layer
        never imports the experiments package.  This is how the batch-style
        execution backends turn a partition of grid specs into a lockstep
        batch; keyword ``overrides`` win over the settings-derived values.
        """
        kwargs = dict(
            dt_on=settings.effective_dt_on,
            dt_off=settings.effective_dt_off,
            max_drain_time=settings.max_drain_time,
            fast_forward=settings.fast_forward,
        )
        kwargs.update(overrides)
        return cls(systems, **kwargs)

    def run(self) -> List[SimulationResult]:
        """Simulate every lane to completion; results in input order."""
        run = _LockstepRun(self)
        if len(self.systems) < run.floor:
            # Too narrow for an array step to pay for itself: run every
            # lane on the scalar engine from the start.
            run.hand_off_all()
        else:
            while True:
                if run.iterations >= self.max_steps:
                    raise SimulationError(
                        f"simulation exceeded {self.max_steps} steps "
                        "without terminating"
                    )
                if not run.retire_finished():
                    break
                skipped = run.replay_segments()
                if skipped is None or not skipped.all():
                    # Lanes a segment replay already advanced this
                    # iteration ride the normal step as exact no-ops.
                    run.step(skipped)
                run.iterations += 1
        results = run.results
        assert all(r is not None for r in results)  # each lane retires once
        return results


#: MCU modes in lane-slot order.  A lane's ``mode_current`` and ``mode_time``
#: rows are indexed by a mode's position here: ``LANE_MODES.index(mode)``
#: matches by identity in C, where a ``PowerMode``-keyed dict would run
#: ``Enum.__hash__`` in Python on every stepped lane.
LANE_MODES = (PowerMode.ACTIVE, PowerMode.SLEEP, PowerMode.DEEP_SLEEP, PowerMode.OFF)
_OFF_SLOT = LANE_MODES.index(PowerMode.OFF)

#: ``hint_until`` of a lane holding no quiescence hint, and the housekeeping
#: timestamp at which no controller poll can be due.
_MINUS_INFINITY = float("-inf")
_INFINITY = float("inf")


def _repeat_add(totals: list, adds: list, counts: list) -> list:
    """Add ``adds[j]`` to ``totals[j]`` ``counts[j]`` times, one add at a time.

    This is how a whole-segment replay reproduces a per-step ledger bit for
    bit: a product ``adds[j] * counts[j]`` would round differently.  A zero
    add leaves its total alone.  Returns ``totals``, updated in place.
    """
    for j, add in enumerate(adds):
        if add > 0.0:
            total = totals[j]
            for _ in range(counts[j]):
                total += add
            totals[j] = total
    return totals


class _Lanes:
    """Every per-lane container of one lockstep run, aligned by lane index.

    Each attribute is a list or a 1-D array with one entry per lane still
    in lockstep.  :meth:`compact` filters all of them in one loop, so no
    container can fall out of step when lanes retire.
    """

    def __init__(self, systems, dt_on, dt_off) -> None:
        n = len(systems)
        self.systems = list(systems)
        self.workloads = [s.workload for s in systems]
        self.mcus = [s.mcu for s in systems]
        self.gates = [s.gate for s in systems]
        self.frontends = [s.frontend for s in systems]
        self.original_index = list(range(n))

        self.time = np.zeros(n)
        self.enabled = np.zeros(n, dtype=bool)
        self.latency = np.full(n, np.nan)
        self.enable_count = np.zeros(n, dtype=np.int64)
        self.brownout_count = np.zeros(n, dtype=np.int64)
        # Start of the pending aggregated off-interval the workload has not
        # yet been stepped over; every lane cold-starts off at t = 0.
        self.off_start = np.zeros(n)
        self.enable_voltage = np.array([g.enable_voltage for g in self.gates])
        self.brownout_voltage = np.array([g.brownout_voltage for g in self.gates])
        # An off lane's platform load: the gate's quiescent current (the
        # buffer overhead is added last, by the load phase and the replay).
        self.off_load = np.array([g.quiescent_current for g in self.gates])
        self.quiescent = self.off_load.tolist()
        self.raw_energy = np.zeros(n)
        self.delivered_energy = np.zeros(n)
        self.dt_on_full = np.full(n, dt_on)
        self.dt_off_full = np.full(n, dt_off)

        # MCU bookkeeping, unrolled out of the Microcontroller objects: for
        # the quantities any result reports, the scalar engine's per-step
        # ``set_mode`` / ``current`` / ``step`` calls reduce to a per-mode
        # current row and time row per lane, indexed by LANE_MODES slot.
        # The time rows receive exactly the additions the scalar dict
        # entries would, in the same order; all but the OFF slot (which,
        # like ``charge_drawn``, feeds no reported metric) are written back.
        self.mode_current = [
            [m.current(mode) for mode in LANE_MODES] for m in self.mcus
        ]
        self.mode_time = [
            [m.time_in_mode.get(mode, 0.0) for mode in LANE_MODES] for m in self.mcus
        ]

        # On-phase quiescence state (plain lists: every consumer is scalar
        # per-lane code).  A lane with a cached hint skips its
        # workload.step while the hint holds; the skipped window
        # [skip_start, lane time) spans skip_steps steps and is flushed
        # through Workload.skip_quiescent before the workload next runs.
        self.hint_until = [_MINUS_INFINITY] * n
        self.hint_wake = [_INFINITY] * n
        self.hint_load = [0.0] * n
        self.hint_slot = [_OFF_SLOT] * n
        self.skip_start = [0.0] * n
        self.skip_steps = [0] * n

    def compact(self, keep: np.ndarray) -> None:
        """Drop every lane whose ``keep`` entry is False."""
        kept = keep.tolist()
        for name, values in list(vars(self).items()):
            if isinstance(values, np.ndarray):
                setattr(self, name, values[keep])
            else:
                setattr(self, name, [value for value, k in zip(values, kept) if k])


class _LockstepRun:
    """The state and phases of one :meth:`BatchSimulator.run`.

    Holds the run constants, the kernel, the per-lane containers
    (:attr:`lanes`) and the results.  One iteration of the lockstep loop is
    :meth:`retire_finished`, then :meth:`replay_segments`, then a normal
    :meth:`step` for the lanes the replay did not advance.
    """

    def __init__(self, simulator: BatchSimulator) -> None:
        self.simulator = simulator
        kernel = self.kernel = simulator._kernel
        frontend = simulator.systems[0].frontend
        self.trace = frontend.trace
        self.regulator = frontend.regulator
        self.trace_duration = frontend.duration
        self.drain_after_trace = simulator.drain_after_trace
        self.hard_stop = self.trace_duration + (
            simulator.max_drain_time if self.drain_after_trace else 0.0
        )
        self.dt_on = simulator.dt_on
        self.dt_off = simulator.dt_off
        self.predict_enable = self.dt_off > self.dt_on
        self.use_hints = simulator.fast_forward
        lanes = self.lanes = _Lanes(simulator.systems, self.dt_on, self.dt_off)
        self.results: List[Optional[SimulationResult]] = [None] * len(lanes.time)

        # Sticky loop state.  ``n_enabled`` tracks the number of powered
        # lanes as a plain int (transitions are rare, array reductions per
        # step are not); ``all_past_trace`` goes (and stays) True once every
        # surviving lane is in its post-trace drain, where the harvested
        # power is identically zero and the whole harvest block is skipped.
        self.iterations = 0
        self.n_enabled = 0
        self.all_past_trace = False
        # Fewer live lanes than this hand off to the scalar engine.
        self.floor = lane_floor(kernel.buffers[0])
        # Zero-order-hold trace lookup table (sentinel zero sample past the
        # end); semantics are owned by PowerTrace and pinned against
        # power_at/powers_at by the trace tests.
        self.powers_padded, self.sentinel_index = self.trace.zero_order_hold_table()
        self.sample_period = self.trace.sample_period
        # Lane-group segment fast-forwarding: whole constant-power segments
        # (shared planner contract with the scalar engine — see
        # repro.sim.segments) replayed through the kernel's vectorized
        # fast_forward/fast_forward_on before falling back to a normal
        # lockstep step for the disagreeing minority of lanes.
        breakpoints = self.regulator.efficiency_breakpoints()
        use_fast_forward = simulator.fast_forward and breakpoints is not None
        self.planner = (
            LaneSegmentPlanner(
                self.sample_period,
                self.sentinel_index,
                self.trace_duration,
                self.hard_stop,
                breakpoints,
                self.dt_on,
                self.dt_off,
            )
            if use_fast_forward
            else None
        )

    # -- per-lane transitions ------------------------------------------------

    def flush_off(self, index: int) -> None:
        """Step the workload over the pending aggregated off interval."""
        lanes = self.lanes
        start = float(lanes.off_start[index])
        now = float(lanes.time[index])
        if now > start:
            self.kernel.sync_lanes((index,))
            lanes.workloads[index].step(
                StepContext(start, now - start, False, self.kernel.buffers[index])
            )

    def flush_on(self, index: int) -> None:
        """Account the pending skipped quiescent window, ending the hint."""
        lanes = self.lanes
        pending = lanes.skip_steps[index]
        if pending:
            start = lanes.skip_start[index]
            now = float(lanes.time[index])
            self.kernel.sync_lanes((index,))
            lanes.workloads[index].skip_quiescent(
                StepContext(start, now - start, True, self.kernel.buffers[index]),
                pending,
                self.dt_on,
            )
            lanes.skip_steps[index] = 0
        lanes.hint_until[index] = _MINUS_INFINITY

    def write_back(self, index: int, power_down: bool):
        """Push lane ``index``'s state into its component objects.

        Flushes the lane's pending workload window first (and powers an on
        lane down at the end of its simulation when ``power_down`` is set,
        exactly as the scalar engine).  After this the lane's system is
        indistinguishable from one the scalar engine simulated to the same
        timestamp.  Returns the lane's buffer.
        """
        lanes = self.lanes
        if lanes.enabled[index]:
            self.flush_on(index)
            if power_down:
                lanes.workloads[index].on_power_loss(float(lanes.time[index]))
                lanes.mcus[index].power_off()
        else:
            self.flush_off(index)
        buffer = self.kernel.finalize_lane(index)
        gate = lanes.gates[index]
        gate.enabled = bool(lanes.enabled[index])
        gate.enable_count = int(lanes.enable_count[index])
        gate.brownout_count = int(lanes.brownout_count[index])
        lanes.frontends[index].credit(
            float(lanes.raw_energy[index]), float(lanes.delivered_energy[index])
        )
        time_in_mode = lanes.mcus[index].time_in_mode
        for mode, seconds in zip(LANE_MODES, lanes.mode_time[index]):
            if mode is not PowerMode.OFF:
                time_in_mode[mode] = seconds
        return buffer

    def retire(self, index: int) -> None:
        """Finalize one lane into its SimulationResult."""
        lanes = self.lanes
        workload = lanes.workloads[index]
        mcu = lanes.mcus[index]
        buffer = self.write_back(index, power_down=True)
        metrics = workload.metrics()
        lane_latency = float(lanes.latency[index])
        self.results[lanes.original_index[index]] = SimulationResult(
            trace_name=self.trace.name,
            buffer_name=buffer.name,
            workload_name=workload.name,
            simulated_time=float(lanes.time[index]),
            trace_duration=self.trace_duration,
            latency=None if np.isnan(lane_latency) else lane_latency,
            on_time=mcu.on_time,
            active_time=mcu.active_time,
            enable_count=int(lanes.enable_count[index]),
            brownout_count=int(lanes.brownout_count[index]),
            work_units=metrics.work_units,
            workload_metrics=metrics.as_dict(),
            buffer_ledger=buffer.ledger.as_dict(),
            energy_offered=buffer.ledger.offered,
            energy_delivered_to_load=buffer.ledger.delivered,
        )

    def hand_off(self, index: int) -> None:
        """Finish lane ``index`` on the scalar engine from its mid-state.

        Everything transfers through :meth:`write_back`, which also brings
        the workload's clock current.  The scalar engine then continues the
        exact same step sequence this loop would have executed (plus its own
        fast paths, which are equivalence-tested separately).
        """
        lanes = self.lanes
        self.write_back(index, power_down=False)
        lane_latency = float(lanes.latency[index])
        simulator = self.simulator
        self.results[lanes.original_index[index]] = Simulator(
            lanes.systems[index],
            dt_on=simulator.dt_on,
            dt_off=simulator.dt_off,
            drain_after_trace=simulator.drain_after_trace,
            max_drain_time=simulator.max_drain_time,
            max_steps=simulator.max_steps,
            fast_forward=simulator.fast_forward,
            start_time=float(lanes.time[index]),
            initial_latency=None if np.isnan(lane_latency) else lane_latency,
        ).run()

    def hand_off_all(self) -> None:
        """Finish every remaining lane on the scalar engine."""
        for index in range(len(self.lanes.time)):
            self.hand_off(index)

    # -- phases of one lockstep iteration -----------------------------------

    def retire_finished(self) -> bool:
        """Retire finished lanes; False once no lane is left in lockstep.

        A lane finishes on the scalar engine's two loop-exit tests.  When
        retirement leaves fewer live lanes than the kernel's lane floor,
        the survivors are handed off and the lockstep loop ends too.
        """
        lanes = self.lanes
        time = lanes.time
        done = time >= self.hard_stop
        if self.drain_after_trace:
            if not self.all_past_trace:
                past_trace = time >= self.trace_duration
                any_past = bool(past_trace.any())
                self.all_past_trace = any_past and bool(past_trace.all())
            else:
                any_past = True
                past_trace = True
            if any_past:
                done = done | (
                    past_trace
                    & ~lanes.enabled
                    & self.kernel.drained_mask(lanes.enable_voltage)
                )
        else:
            done = done | (time >= self.trace_duration)
        if not done.any():
            return True
        for index in np.nonzero(done)[0]:
            self.retire(int(index))
        keep = ~done
        if not keep.any():
            return False
        self.kernel.compact(keep)
        lanes.compact(keep)
        self.n_enabled = int(lanes.enabled.sum())
        if len(lanes.time) < self.floor:
            self.hand_off_all()
            return False
        return True

    def trace_power(self, voltage: np.ndarray):
        """Raw trace power at every lane's clock, and the delivered share."""
        raw = self.powers_padded[
            np.minimum(
                (self.lanes.time / self.sample_period).astype(np.int64),
                self.sentinel_index,
            )
        ]
        return raw, self.regulator.delivered_power_batch(raw, voltage)

    def replay_segments(self) -> Optional[np.ndarray]:
        """Advance lanes with a provably eventless stretch by whole segments.

        Off lanes inside one trace segment below every stop, and on lanes
        inside a live quiescence-hint window, replay it in one vectorized
        whole-segment update through the kernel (bit-identical to stepping,
        see LockstepKernel).  Returns the mask of lanes that advanced, or
        None when none did (or segment fast-forwarding is off).
        """
        planner = self.planner
        if planner is None:
            return None
        lanes = self.lanes
        kernel = self.kernel
        n_enabled = self.n_enabled
        needs_full_batch = kernel.fast_forward_needs_full_batch
        budget = self.simulator.max_steps - self.iterations
        voltage = kernel.voltage
        raw, delivered = self.trace_power(voltage)
        skipped = None
        if n_enabled < len(lanes.time) and (not needs_full_batch or n_enabled == 0):
            plan = planner.plan_off(
                lanes.time, voltage, ~lanes.enabled, lanes.enable_voltage, budget
            )
            group = plan.steps > 0
            if group.any() and (not needs_full_batch or bool(group.all())):
                dt_off = self.dt_off
                consumed, new_time = kernel.fast_forward(
                    delivered * dt_off, lanes.off_load, dt_off, lanes.time, plan
                )
                if consumed.any():
                    self.account_replay(consumed, raw, delivered, dt_off, on=False)
                    lanes.time = new_time
                    skipped = consumed > 0
        if n_enabled:
            until = np.asarray(lanes.hint_until)
            hinted = lanes.enabled & (until != _MINUS_INFINITY)
            if hinted.any() and (not needs_full_batch or bool(hinted.all())):
                wake = np.asarray(lanes.hint_wake)
                plan = planner.plan_on(lanes.time, voltage, hinted, until, wake, budget)
                group = plan.steps > 0
                if group.any() and (not needs_full_batch or bool(group.all())):
                    dt_on = self.dt_on
                    consumed, new_time = kernel.fast_forward_on(
                        delivered * dt_on,
                        np.asarray(lanes.hint_load),
                        dt_on,
                        lanes.time,
                        plan,
                        lanes.brownout_voltage,
                    )
                    if consumed.any():
                        self.account_replay(consumed, raw, delivered, dt_on, on=True)
                        lanes.time = new_time
                        on_skipped = consumed > 0
                        skipped = (
                            on_skipped if skipped is None else skipped | on_skipped
                        )
        return skipped

    def account_replay(self, consumed, raw, delivered, dt, on: bool) -> None:
        """The per-step additive accounting of one whole-segment replay.

        Each replayed lane's raw and delivered energy ledgers receive the
        additions, in the same order, the masked lockstep step would have
        made (see :func:`_repeat_add`).  An on-phase replay also replays the
        hint mask's per-step mode time and extends the pending skipped
        window (flushed through ``skip_quiescent`` when the hint ends).
        Call it before the lane clocks advance: the window starts at the
        pre-replay time.
        """
        lanes = self.lanes
        replayed = np.nonzero(consumed)[0]
        counts = consumed[replayed].tolist()
        for ledger, power in (
            (lanes.raw_energy, raw),
            (lanes.delivered_energy, delivered),
        ):
            ledger[replayed] = _repeat_add(
                ledger[replayed].tolist(), (power[replayed] * dt).tolist(), counts
            )
        if not on:
            return
        indices = replayed.tolist()
        mode_time = lanes.mode_time
        hint_slot = lanes.hint_slot
        skip_start = lanes.skip_start
        skip_steps = lanes.skip_steps
        start_list = lanes.time.tolist()
        totals = _repeat_add(
            [mode_time[index][hint_slot[index]] for index in indices],
            [dt] * len(indices),
            counts,
        )
        for index, total, count in zip(indices, totals, counts):
            mode_time[index][hint_slot[index]] = total
            if skip_steps[index] == 0:
                skip_start[index] = start_list[index]
            skip_steps[index] += count

    def step(self, skipped: Optional[np.ndarray]) -> None:
        """One normal lockstep step of every lane.

        ``skipped`` masks the lanes :meth:`replay_segments` already advanced
        this iteration (None when it advanced none): they ride along as
        exact no-ops.
        """
        dt = self.timestep_and_harvest(skipped)
        end_time = self.lanes.time + dt
        voltage = self.gate(end_time, skipped)
        load = self.load(dt, end_time, voltage, skipped)
        self.draw_and_housekeep(load, dt, end_time, skipped)

    def timestep_and_harvest(self, skipped: Optional[np.ndarray]) -> np.ndarray:
        """Pick each lane's ``dt`` and harvest the step's energy into it.

        Returns the per-lane ``dt``.  The timestep masks follow each lane's
        gate state and the batched gate-enable prediction.
        """
        lanes = self.lanes
        kernel = self.kernel
        n_enabled = self.n_enabled
        width = len(lanes.time)
        enabled = lanes.enabled
        dt_on = self.dt_on
        voltage = kernel.voltage
        if n_enabled == width:
            dt = lanes.dt_on_full
        elif n_enabled == 0:
            dt = lanes.dt_off_full
        else:
            dt = np.where(enabled, dt_on, self.dt_off)
        if self.all_past_trace:
            harvesting = False
            if self.predict_enable and n_enabled < width:
                # No harvest can arrive, but the bound still matters: a
                # Morphy controller poll can chain groups in series and
                # raise the output voltage across the enable threshold
                # without any energy input.  The scalar engine keeps
                # predicting past the trace end (its bound of zero energy
                # degenerates to the present voltage), so the batch must too
                # or the dt_off->dt_on switch lands one step late and the
                # additive clocks drift.
                dt = np.where(~enabled & (voltage >= lanes.enable_voltage), dt_on, dt)
        else:
            raw, delivered = self.trace_power(voltage)
            harvesting = bool(delivered.any())
            if self.predict_enable and n_enabled < width:
                # Run even when nothing is harvested: the bound then
                # degenerates to the present voltage, which still drops to
                # dt_on for a (pre-charged) lane already at the threshold —
                # exactly the scalar engine's behaviour.
                bound = kernel.post_harvest_voltage_bound(delivered * self.dt_off)
                dt = np.where(~enabled & (bound >= lanes.enable_voltage), dt_on, dt)
        if skipped is not None:
            # Fast-forwarded lanes already consumed this iteration's
            # wall-clock budget: zero dt turns every per-lane update below
            # (ledger adds, harvest, draw, leakage) into an exact bitwise
            # no-op for them.
            dt = np.where(skipped, 0.0, dt)

        # Raw energy accrues whenever the trace is live (the scalar frontend
        # counts raw power even when the regulator delivers nothing, e.g.
        # below a boost converter's quiescent power).  Zero *delivered*
        # energy is an exact no-op in the scalar engine (ledger adds of 0.0,
        # an early-out harvest), so skipping the buffer update when no lane
        # harvests preserves bit equality.
        if not self.all_past_trace:
            lanes.raw_energy += raw * dt
        if harvesting:
            energy = delivered * dt
            lanes.delivered_energy += energy
            kernel.harvest(energy)
        return dt

    def gate(self, end_time: np.ndarray, skipped: Optional[np.ndarray]) -> np.ndarray:
        """Apply enable/brown-out transitions; returns the observed voltage."""
        lanes = self.lanes
        n_enabled = self.n_enabled
        enabled = lanes.enabled
        voltage = self.kernel.voltage
        if n_enabled == 0:
            enabling = voltage >= lanes.enable_voltage
            changed = enabling
        elif n_enabled == len(lanes.time):
            enabling = None
            changed = voltage <= lanes.brownout_voltage
        else:
            enabling = ~enabled & (voltage >= lanes.enable_voltage)
            changed = enabling | (enabled & (voltage <= lanes.brownout_voltage))
        if skipped is not None:
            # A fast-forwarded lane's plan stops *before* any step whose
            # post-harvest voltage could cross a gate threshold, so no
            # transition can hide inside the skipped segment; the lane's
            # next normal step re-runs this check at the proper observation
            # point.
            changed = changed & ~skipped
            if enabling is not None:
                enabling = enabling & ~skipped
        if not changed.any():
            return voltage
        browning = changed if enabling is None else changed & ~enabling
        if enabling is not None and enabling.any():
            lanes.enable_count[enabling] += 1
            lanes.latency = np.where(
                enabling & np.isnan(lanes.latency), end_time, lanes.latency
            )
            for index in np.nonzero(enabling)[0]:
                index = int(index)
                self.flush_off(index)
                lanes.mcus[index].set_mode(PowerMode.SLEEP)
            lanes.enabled = lanes.enabled | enabling
        if browning.any():
            lanes.brownout_count[browning] += 1
            time = lanes.time
            for index in np.nonzero(browning)[0]:
                index = int(index)
                self.flush_on(index)
                lanes.mcus[index].power_off()
                lanes.workloads[index].on_power_loss(float(time[index]))
                lanes.off_start[index] = time[index]
            lanes.enabled = lanes.enabled & ~browning
        self.n_enabled = int(lanes.enabled.sum())
        return voltage

    def load(self, dt, end_time, voltage, skipped) -> np.ndarray:
        """Each lane's load current for this step.

        Off lanes place only the gate's quiescent load; their workload
        steps are aggregated and flushed at the next enable or retirement.
        On lanes with a live quiescence hint skip the Python workload
        dispatch and reuse the promised demand (the hint check uses the
        post-harvest ``voltage`` — exactly what a stepped workload would
        observe); the rest step normally and may cache a fresh hint for the
        iterations that follow.  Every lane's buffer overhead
        (``kernel.overhead_current``) is added last, in the scalar engine's
        addition order.
        """
        lanes = self.lanes
        kernel = self.kernel
        if not self.n_enabled:
            load = lanes.off_load
        else:
            load = lanes.off_load.copy()
            use_hints = self.use_hints
            buffers = kernel.buffers
            workloads = lanes.workloads
            mode_current = lanes.mode_current
            mode_time = lanes.mode_time
            quiescent = lanes.quiescent
            hint_until = lanes.hint_until
            hint_wake = lanes.hint_wake
            hint_load = lanes.hint_load
            hint_slot = lanes.hint_slot
            skip_start = lanes.skip_start
            skip_steps = lanes.skip_steps
            time_list = lanes.time.tolist()
            dt_list = dt.tolist()
            on = lanes.enabled if skipped is None else lanes.enabled & ~skipped
            on_indices = np.nonzero(on)[0].tolist()
            if use_hints:
                end_list = end_time.tolist()
                voltage_list = voltage.tolist()
                step_indices = []
                for index in on_indices:
                    # The expiry bound is exclusive: a step ending exactly
                    # on it may fire the workload's timer (QuiescenceHint's
                    # contract), so that step runs normally.
                    if (
                        end_list[index] < hint_until[index]
                        and voltage_list[index] < hint_wake[index]
                    ):
                        mode_time[index][hint_slot[index]] += dt_list[index]
                        if skip_steps[index] == 0:
                            skip_start[index] = time_list[index]
                        skip_steps[index] += 1
                        load[index] = hint_load[index]
                    else:
                        self.flush_on(index)
                        step_indices.append(index)
            else:
                step_indices = on_indices
            kernel.sync_lanes(step_indices)
            for index in step_indices:
                workload = workloads[index]
                demand = workload.step(
                    StepContext(time_list[index], dt_list[index], True, buffers[index])
                )
                slot = LANE_MODES.index(demand.mcu_mode)
                mode_time[index][slot] += dt_list[index]
                load[index] = (
                    mode_current[index][slot]
                    + demand.peripheral_current
                    + quiescent[index]
                )
                if not use_hints:
                    continue
                hint = workload.quiescent_until(
                    StepContext(end_list[index], self.dt_on, True, buffers[index])
                )
                if hint is None:
                    continue
                wake = hint.wake_on_voltage
                if wake is None and buffers[index].longevity_request > 0.0:
                    # An energy-guarded longevity wait has no exact voltage
                    # mask; such lanes simply step.
                    continue
                promised = hint.demand if hint.demand is not None else demand
                slot = LANE_MODES.index(promised.mcu_mode)
                hint_until[index] = hint.no_demand_change_before_time
                hint_wake[index] = _INFINITY if wake is None else wake
                hint_slot[index] = slot
                hint_load[index] = (
                    mode_current[index][slot]
                    + promised.peripheral_current
                    + quiescent[index]
                )
        # Evaluated against the post-harvest buffer state, the observation
        # point where the scalar engine calls ``buffer.overhead_current``.
        load = load + kernel.overhead_current(lanes.enabled)
        if skipped is not None:
            # Zero the load too: a zero current (not just zero dt) is what
            # makes the draw an exact no-op for every kernel.
            load = np.where(skipped, 0.0, load)
        return load

    def draw_and_housekeep(self, load, dt, end_time, skipped) -> None:
        """Draw the load, run buffer housekeeping, and advance the clocks."""
        lanes = self.lanes
        kernel = self.kernel
        kernel.draw(load, dt)
        # Leakage plus controller polling, with the post-gating power-gate
        # mask as the scalar engine's ``system_on``.
        if skipped is not None:
            # Suppress time-triggered controller polls for lanes whose
            # clocks already ran ahead during the segment replay.
            time = np.where(skipped, _MINUS_INFINITY, lanes.time)
        else:
            time = lanes.time
        kernel.housekeeping(time, dt, lanes.enabled)
        lanes.time = end_time
