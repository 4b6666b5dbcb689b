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
operation, ledger additions included.

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

The simulator does not support attaching a :class:`~repro.sim.recorder.Recorder`;
timeline recording is a single-system concern and stays on the scalar engine.
"""

from __future__ import annotations

import time as wall_clock
from typing import List, Optional, Sequence

import numpy as np

from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBatchKernel
from repro.exceptions import SimulationError
from repro.platform.mcu import PowerMode
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.sim.segments import LaneSegmentPlanner, cluster_expiry_budgets
from repro.sim.system import BatterylessSystem
from repro.workloads.base import StepContext

#: Default batch width at or below which the lockstep loop hands surviving
#: lanes to the scalar engine (see ``BatchSimulator.scalar_tail_lanes``).
DEFAULT_SCALAR_TAIL_LANES = 4

#: The in-tree lockstep kernels, tried in order.  Each ``build`` returns a
#: kernel when *every* lane's buffer fits its vectorized recurrence, else
#: None; lanes of different kernel families never share a batch (the
#: experiment layer partitions on
#: :meth:`~repro.buffers.base.EnergyBuffer.batch_key` before building one).
KERNEL_BUILDERS = (
    StaticBatchKernel.build,
    MorphyBatchKernel.build,
    ReactBatchKernel.build,
)


def build_batch_kernel(buffers):
    """The first kernel that accepts every buffer in ``buffers``, or None."""
    for builder in KERNEL_BUILDERS:
        kernel = builder(buffers)
        if kernel is not None:
            return kernel
    return None


class BatchSimulator:
    """Lockstep simulator for N systems sharing one power trace.

    Parameters mirror :class:`~repro.sim.engine.Simulator`; every lane uses
    the same timestep policy and drain methodology.  All systems must share
    the same trace and an identical regulator model, and every buffer must
    fit one lockstep kernel (equal, non-None
    :meth:`~repro.buffers.base.EnergyBuffer.batch_key`); callers route
    other lanes to the scalar engine.
    """

    def __init__(
        self,
        systems: Sequence[BatterylessSystem],
        dt_on: float = 0.01,
        dt_off: float = 0.05,
        drain_after_trace: bool = True,
        max_drain_time: float = 600.0,
        max_steps: int = 50_000_000,
        scalar_tail_lanes: int = DEFAULT_SCALAR_TAIL_LANES,
        fast_forward: bool = True,
        cluster_hint_expiries: bool = True,
    ) -> None:
        if not systems:
            raise SimulationError("a batch simulation needs at least one system")
        if dt_on <= 0.0 or dt_off <= 0.0:
            raise SimulationError("time steps must be positive")
        if dt_off < dt_on:
            raise SimulationError("dt_off should be at least as large as dt_on")
        if max_drain_time < 0.0:
            raise SimulationError("max drain time must be non-negative")
        if scalar_tail_lanes < 0:
            raise SimulationError("scalar tail width must be non-negative")
        self.systems = list(systems)
        self.dt_on = dt_on
        self.dt_off = dt_off
        self.drain_after_trace = drain_after_trace
        self.max_drain_time = max_drain_time
        self.max_steps = max_steps
        #: Once lane retirement narrows the batch to this many survivors, the
        #: remaining lanes are handed to the scalar engine mid-flight (every
        #: piece of lane state lives in, or is written back to, the component
        #: objects): an array step over a handful of lanes costs more in
        #: numpy dispatch than the scalar per-step machinery it replaces.
        #: Zero disables the hand-off.
        self.scalar_tail_lanes = scalar_tail_lanes
        #: Whether hand-off Simulators may use the scalar fast paths and
        #: the lockstep loop may honour workload quiescence hints (skipping
        #: per-lane workload dispatch while a hint holds).  The lockstep
        #: loop's electrical arithmetic is always step-by-step (that is
        #: what vectorizes) — pass False for pure step-by-step ablations.
        self.fast_forward = fast_forward
        #: Whether on-phase segment plans may align the budgets of lanes
        #: whose hint expiries nearly coincide (see
        #: :func:`~repro.sim.segments.cluster_expiry_budgets`) — a pure
        #: budget reduction, so trajectories are identical either way.
        #: Clustering only engages when the kernel also declares
        #: ``wants_expiry_clustering``: it trades skip length for
        #: phase-lock, which pays off for REACT's all-lanes-must-agree
        #: replay but measurably slows kernels whose lanes replay fine
        #: unaligned (the Morphy and capacitance sweeps profile slower
        #: with it forced on).  ``False`` disables it outright — the
        #: differential suite pins the bit-equality claim on that knob.
        self.cluster_hint_expiries = cluster_hint_expiries

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
        started_at = wall_clock.perf_counter()
        systems = self.systems
        n = len(systems)
        kernel = self._kernel
        trace = systems[0].frontend.trace
        regulator = systems[0].frontend.regulator
        trace_duration = systems[0].frontend.duration
        hard_stop = trace_duration + (
            self.max_drain_time if self.drain_after_trace else 0.0
        )
        dt_on = self.dt_on
        dt_off = self.dt_off
        predict_enable = dt_off > dt_on
        drain_after_trace = self.drain_after_trace

        # Per-lane Python objects (compacted alongside the state arrays).
        lane_systems = list(systems)
        workloads = [s.workload for s in systems]
        mcus = [s.mcu for s in systems]
        gates = [s.gate for s in systems]
        frontends = [s.frontend for s in systems]
        buffers = kernel.buffers
        original_index = list(range(n))

        # Per-lane state arrays.
        time = np.zeros(n)
        enabled = np.zeros(n, dtype=bool)
        latency = np.full(n, np.nan)
        enable_count = np.zeros(n, dtype=np.int64)
        brownout_count = np.zeros(n, dtype=np.int64)
        # Start of the pending aggregated off-interval the workload has not
        # yet been stepped over; every lane cold-starts off at t = 0.
        off_start = np.zeros(n)
        # Per-lane on-phase quiescence state (plain lists: every consumer is
        # scalar per-lane code).  A lane with a cached hint skips its
        # workload.step while the hint holds; the skipped window
        # [skip_start, lane time) spans skip_steps steps and is flushed
        # through Workload.skip_quiescent before the workload next runs.
        use_hints = self.fast_forward
        minus_infinity = float("-inf")
        infinity = float("inf")
        hint_until = [minus_infinity] * n
        hint_wake = [infinity] * n
        hint_load = [0.0] * n
        hint_mode = [PowerMode.OFF] * n
        skip_start = [0.0] * n
        skip_steps = [0] * n
        enable_voltage = np.array([g.enable_voltage for g in gates])
        brownout_voltage = np.array([g.brownout_voltage for g in gates])
        quiescent = np.array([g.quiescent_current for g in gates])
        # Buffers whose overhead current depends on live state (REACT's
        # tracks the output voltage and connected-bank count) cannot have
        # it cached at batch start: their kernel declares
        # ``dynamic_overhead`` and the loop instead adds
        # ``kernel.overhead_current(enabled)`` to the assembled load every
        # step — re-evaluated at the exact point the scalar engine calls
        # ``buffer.overhead_current`` — while the static contributions here
        # are zeroed (adding 0.0 first keeps the scalar addition order:
        # ``(q + 0.0) + o == q + o``).
        dynamic_overhead = bool(getattr(kernel, "dynamic_overhead", False))
        if dynamic_overhead:
            off_load = quiescent + np.zeros(n)
        else:
            off_load = quiescent + np.array(
                [b.overhead_current(False) for b in buffers]
            )
        raw_energy = np.zeros(n)
        delivered_energy = np.zeros(n)

        # Per-lane MCU bookkeeping, unrolled out of the Microcontroller
        # objects: the scalar engine's per-step ``set_mode`` / ``current`` /
        # ``step`` calls reduce, for the quantities any result reports, to a
        # mode-dependent current lookup plus one per-mode time accumulator.
        # Accumulating python floats here and writing them back at
        # retirement reproduces the scalar totals bit-for-bit (each
        # accumulator receives exactly the additions the scalar dict entry
        # would, in the same order).  ``charge_drawn`` and OFF-mode time are
        # not accumulated: neither feeds any reported metric.
        active_current = [m.active_current for m in mcus]
        sleep_current = [m.sleep_current for m in mcus]
        deep_sleep_current = [m.deep_sleep_current for m in mcus]
        mcu_off_current = [m.off_current for m in mcus]
        time_active = [m.time_in_mode.get(PowerMode.ACTIVE, 0.0) for m in mcus]
        time_sleep = [m.time_in_mode.get(PowerMode.SLEEP, 0.0) for m in mcus]
        time_deep_sleep = [
            m.time_in_mode.get(PowerMode.DEEP_SLEEP, 0.0) for m in mcus
        ]
        if dynamic_overhead:
            on_overhead = [0.0] * n
        else:
            on_overhead = [b.overhead_current(True) for b in buffers]

        results: List[Optional[SimulationResult]] = [None] * n

        def flush_off(index: int) -> None:
            """Step the workload over the pending aggregated off interval."""
            start = float(off_start[index])
            now = float(time[index])
            if now > start:
                kernel.sync_lane(index)
                workloads[index].step(
                    StepContext(start, now - start, False, buffers[index])
                )

        def flush_on(index: int) -> None:
            """Account the pending skipped quiescent window, ending the hint."""
            pending = skip_steps[index]
            if pending:
                start = skip_start[index]
                now = float(time[index])
                kernel.sync_lane(index)
                workloads[index].skip_quiescent(
                    StepContext(start, now - start, True, buffers[index]),
                    pending,
                    dt_on,
                )
                skip_steps[index] = 0
            hint_until[index] = minus_infinity

        def write_back(index: int):
            """Push lane ``index``'s array state into its component objects.

            After this the lane's system is indistinguishable from one the
            scalar engine simulated to the same timestamp.  Returns the
            lane's buffer.
            """
            buffer = kernel.finalize_lane(index)
            gate = gates[index]
            gate.enabled = bool(enabled[index])
            gate.enable_count = int(enable_count[index])
            gate.brownout_count = int(brownout_count[index])
            frontends[index].credit(
                float(raw_energy[index]), float(delivered_energy[index])
            )
            mcu = mcus[index]
            mcu.time_in_mode[PowerMode.ACTIVE] = time_active[index]
            mcu.time_in_mode[PowerMode.SLEEP] = time_sleep[index]
            mcu.time_in_mode[PowerMode.DEEP_SLEEP] = time_deep_sleep[index]
            return buffer

        def retire(index: int) -> None:
            """Finalize one lane into its SimulationResult."""
            if enabled[index]:
                # End-of-simulation power-down, exactly as the scalar engine.
                flush_on(index)
                workloads[index].on_power_loss(float(time[index]))
                mcus[index].power_off()
            else:
                flush_off(index)
            buffer = write_back(index)
            mcu = mcus[index]
            workload = workloads[index]
            metrics = workload.metrics()
            lane_latency = float(latency[index])
            results[original_index[index]] = SimulationResult(
                trace_name=trace.name,
                buffer_name=buffer.name,
                workload_name=workload.name,
                simulated_time=float(time[index]),
                trace_duration=trace_duration,
                latency=None if np.isnan(lane_latency) else lane_latency,
                on_time=mcu.on_time,
                active_time=mcu.active_time,
                enable_count=int(enable_count[index]),
                brownout_count=int(brownout_count[index]),
                work_units=metrics.work_units,
                workload_metrics=metrics.as_dict(),
                buffer_ledger=buffer.ledger.as_dict(),
                energy_offered=buffer.ledger.offered,
                energy_delivered_to_load=buffer.ledger.delivered,
            )

        def hand_off(index: int) -> None:
            """Finish lane ``index`` on the scalar engine from its mid-state.

            The pending aggregated off interval is flushed first, so the
            workload's clock is current; everything else transfers through
            :func:`write_back`.  The scalar engine then continues the exact
            same step sequence this loop would have executed (plus its own
            off-phase fast path, which is equivalence-tested separately).
            """
            if enabled[index]:
                flush_on(index)
            else:
                flush_off(index)
            write_back(index)
            lane_latency = float(latency[index])
            simulator = Simulator(
                lane_systems[index],
                dt_on=self.dt_on,
                dt_off=self.dt_off,
                drain_after_trace=drain_after_trace,
                max_drain_time=self.max_drain_time,
                max_steps=self.max_steps,
                fast_forward=self.fast_forward,
                start_time=float(time[index]),
                initial_latency=None if np.isnan(lane_latency) else lane_latency,
            )
            results[original_index[index]] = simulator.run()

        # Loop-invariant hoists and sticky phase flags.  ``n_enabled`` tracks
        # the number of powered lanes as a plain int (transitions are rare,
        # array reductions per step are not); ``all_past_trace`` goes (and
        # stays) True once every surviving lane is in its post-trace drain,
        # where the harvested power is identically zero and the whole
        # harvest block can be skipped.
        n_enabled = 0
        all_past_trace = False
        scalar_tail_lanes = self.scalar_tail_lanes
        quiescent_list = quiescent.tolist()
        kernel_set_system_on = getattr(kernel, "set_system_on", None)
        cluster_hints = self.cluster_hint_expiries and bool(
            getattr(kernel, "wants_expiry_clustering", False)
        )
        dt_on_full = np.full(n, dt_on)
        dt_off_full = np.full(n, dt_off)
        # Zero-order-hold trace lookup table (sentinel zero sample past the
        # end); semantics are owned by PowerTrace and pinned against
        # power_at/powers_at by the trace tests.
        powers_padded, sentinel_index = trace.zero_order_hold_table()
        sample_period = trace.sample_period
        # Lane-group segment fast-forwarding: whole constant-power segments
        # (shared planner contract with the scalar engine — see
        # repro.sim.segments) replayed through the kernel's vectorized
        # fast_forward/fast_forward_on before falling back to a normal
        # lockstep step for the disagreeing minority of lanes.
        breakpoints = regulator.efficiency_breakpoints()
        use_fast_forward = (
            self.fast_forward
            and breakpoints is not None
            and getattr(kernel, "supports_fast_forward", False)
            and all(b.can_fast_forward() for b in buffers)
        )
        lane_planner = (
            LaneSegmentPlanner(
                sample_period,
                sentinel_index,
                trace_duration,
                hard_stop,
                breakpoints,
                dt_on,
                dt_off,
            )
            if use_fast_forward
            else None
        )
        iterations = 0
        if n <= scalar_tail_lanes:
            # Too narrow for an array step to ever pay for itself: run every
            # lane on the scalar engine from the start.
            for index in range(n):
                hand_off(index)
        # ``n`` never changes inside the loop; it guards entry only — the
        # loop exits through the all-retired / tail-hand-off breaks above.
        while n > scalar_tail_lanes:
            if iterations >= self.max_steps:
                raise SimulationError(
                    f"simulation exceeded {self.max_steps} steps without terminating"
                )

            # -- lane retirement (the scalar engine's two loop-exit tests) --
            done = time >= hard_stop
            if drain_after_trace:
                if not all_past_trace:
                    past_trace = time >= trace_duration
                    any_past = bool(past_trace.any())
                    all_past_trace = any_past and bool(past_trace.all())
                else:
                    any_past = True
                    past_trace = True
                if any_past:
                    done = done | (
                        past_trace & ~enabled & kernel.drained_mask(enable_voltage)
                    )
            else:
                done = done | (time >= trace_duration)
            if done.any():
                for index in np.nonzero(done)[0]:
                    retire(int(index))
                keep = ~done
                if not keep.any():
                    break
                kernel.compact(keep)
                lane_systems = [s for s, k in zip(lane_systems, keep) if k]
                workloads = [w for w, k in zip(workloads, keep) if k]
                mcus = [m for m, k in zip(mcus, keep) if k]
                gates = [g for g, k in zip(gates, keep) if k]
                frontends = [f for f, k in zip(frontends, keep) if k]
                buffers = kernel.buffers
                original_index = [i for i, k in zip(original_index, keep) if k]
                active_current = [v for v, k in zip(active_current, keep) if k]
                sleep_current = [v for v, k in zip(sleep_current, keep) if k]
                deep_sleep_current = [
                    v for v, k in zip(deep_sleep_current, keep) if k
                ]
                mcu_off_current = [v for v, k in zip(mcu_off_current, keep) if k]
                time_active = [v for v, k in zip(time_active, keep) if k]
                time_sleep = [v for v, k in zip(time_sleep, keep) if k]
                time_deep_sleep = [v for v, k in zip(time_deep_sleep, keep) if k]
                on_overhead = [v for v, k in zip(on_overhead, keep) if k]
                hint_until = [v for v, k in zip(hint_until, keep) if k]
                hint_wake = [v for v, k in zip(hint_wake, keep) if k]
                hint_load = [v for v, k in zip(hint_load, keep) if k]
                hint_mode = [v for v, k in zip(hint_mode, keep) if k]
                skip_start = [v for v, k in zip(skip_start, keep) if k]
                skip_steps = [v for v, k in zip(skip_steps, keep) if k]
                time = time[keep]
                enabled = enabled[keep]
                latency = latency[keep]
                enable_count = enable_count[keep]
                brownout_count = brownout_count[keep]
                off_start = off_start[keep]
                enable_voltage = enable_voltage[keep]
                brownout_voltage = brownout_voltage[keep]
                quiescent = quiescent[keep]
                quiescent_list = quiescent.tolist()
                off_load = off_load[keep]
                raw_energy = raw_energy[keep]
                delivered_energy = delivered_energy[keep]
                n_enabled = int(enabled.sum())
                dt_on_full = dt_on_full[keep]
                dt_off_full = dt_off_full[keep]
                # Every per-lane container above must be compacted; a
                # forgotten one would silently misalign lanes, so fail
                # loudly instead.
                survivors = len(lane_systems)
                assert all(
                    len(container) == survivors
                    for container in (
                        workloads, mcus, gates, frontends, buffers,
                        original_index, active_current, sleep_current,
                        deep_sleep_current, mcu_off_current, time_active,
                        time_sleep, time_deep_sleep, on_overhead, time,
                        enabled, latency, enable_count, brownout_count,
                        off_start, enable_voltage, brownout_voltage,
                        quiescent, quiescent_list, off_load, raw_energy,
                        delivered_energy, dt_on_full, dt_off_full,
                        hint_until, hint_wake, hint_load, hint_mode,
                        skip_start, skip_steps,
                    )
                ), "per-lane state fell out of sync during compaction"
                if len(lane_systems) <= scalar_tail_lanes:
                    for index in range(len(lane_systems)):
                        hand_off(index)
                    break

            lanes = len(buffers)

            # -- segment fast-forward (lane groups skip whole segments) --
            # Lanes whose next stretch is provably eventless — off lanes
            # inside one trace segment below every stop, on lanes inside a
            # live quiescence-hint window — replay it in one vectorized
            # whole-segment update through the kernel (bit-identical to
            # stepping, see LockstepKernel); only the disagreeing minority
            # falls through to the normal lockstep step below, with the
            # fast-forwarded lanes masked to exact no-ops.
            have_skipped = False
            skipped = None
            if use_fast_forward:
                needs_full_batch = kernel.fast_forward_needs_full_batch
                budget = self.max_steps - iterations
                voltage = kernel.voltage
                raw = powers_padded[
                    np.minimum(
                        (time / sample_period).astype(np.int64), sentinel_index
                    )
                ]
                delivered = regulator.delivered_power_batch(raw, voltage)
                raw_list = raw.tolist()
                delivered_list = delivered.tolist()
                if n_enabled < lanes and (not needs_full_batch or n_enabled == 0):
                    plan = lane_planner.plan_off(
                        time, voltage, ~enabled, enable_voltage, budget
                    )
                    group = plan.steps > 0
                    if group.any() and (
                        not needs_full_batch or bool(group.all())
                    ):
                        consumed, new_time = kernel.fast_forward(
                            delivered * dt_off, off_load, dt_off, time, plan
                        )
                        if consumed.any():
                            # Per-step additive energy accounting (the same
                            # additions, in the same order, the masked main
                            # loop would have performed per lane).
                            consumed_list = consumed.tolist()
                            for index in np.nonzero(consumed)[0].tolist():
                                steps_taken = consumed_list[index]
                                raw_power = raw_list[index]
                                if raw_power > 0.0:
                                    add = raw_power * dt_off
                                    total = float(raw_energy[index])
                                    for _ in range(steps_taken):
                                        total += add
                                    raw_energy[index] = total
                                power = delivered_list[index]
                                if power > 0.0:
                                    add = power * dt_off
                                    total = float(delivered_energy[index])
                                    for _ in range(steps_taken):
                                        total += add
                                    delivered_energy[index] = total
                            time = new_time
                            skipped = consumed > 0
                if n_enabled:
                    until = np.asarray(hint_until)
                    on_mask = enabled & (until != minus_infinity)
                    if on_mask.any() and (
                        not needs_full_batch or bool(on_mask.all())
                    ):
                        plan = lane_planner.plan_on(
                            time,
                            voltage,
                            on_mask,
                            until,
                            np.asarray(hint_wake),
                            budget,
                        )
                        if cluster_hints:
                            plan = cluster_expiry_budgets(plan, until, dt_on)
                        group = plan.steps > 0
                        if group.any() and (
                            not needs_full_batch or bool(group.all())
                        ):
                            pre_times = time
                            consumed, new_time = kernel.fast_forward_on(
                                delivered * dt_on,
                                np.asarray(hint_load),
                                dt_on,
                                time,
                                plan,
                                brownout_voltage,
                            )
                            if consumed.any():
                                consumed_list = consumed.tolist()
                                start_list = pre_times.tolist()
                                for index in np.nonzero(consumed)[0].tolist():
                                    steps_taken = consumed_list[index]
                                    raw_power = raw_list[index]
                                    if raw_power > 0.0:
                                        add = raw_power * dt_on
                                        total = float(raw_energy[index])
                                        for _ in range(steps_taken):
                                            total += add
                                        raw_energy[index] = total
                                    power = delivered_list[index]
                                    if power > 0.0:
                                        add = power * dt_on
                                        total = float(delivered_energy[index])
                                        for _ in range(steps_taken):
                                            total += add
                                        delivered_energy[index] = total
                                    # Replay the hint mask's per-step mode
                                    # accounting and extend the pending
                                    # skipped window (flushed through
                                    # skip_quiescent when the hint ends).
                                    mode = hint_mode[index]
                                    if mode is PowerMode.SLEEP:
                                        total = time_sleep[index]
                                        for _ in range(steps_taken):
                                            total += dt_on
                                        time_sleep[index] = total
                                    elif mode is PowerMode.ACTIVE:
                                        total = time_active[index]
                                        for _ in range(steps_taken):
                                            total += dt_on
                                        time_active[index] = total
                                    elif mode is PowerMode.DEEP_SLEEP:
                                        total = time_deep_sleep[index]
                                        for _ in range(steps_taken):
                                            total += dt_on
                                        time_deep_sleep[index] = total
                                    if skip_steps[index] == 0:
                                        skip_start[index] = start_list[index]
                                    skip_steps[index] += steps_taken
                                time = new_time
                                on_skipped = consumed > 0
                                skipped = (
                                    on_skipped
                                    if skipped is None
                                    else skipped | on_skipped
                                )
                if skipped is not None:
                    if bool(skipped.all()):
                        # Every lane advanced by whole segments: no normal
                        # step needed this iteration at all.
                        iterations += 1
                        continue
                    have_skipped = True

            # -- 0. per-lane timestep (with batched gate-enable prediction) --
            voltage = kernel.voltage
            if n_enabled == lanes:
                dt = dt_on_full
            elif n_enabled == 0:
                dt = dt_off_full
            else:
                dt = np.where(enabled, dt_on, dt_off)
            if all_past_trace:
                harvesting = False
                if predict_enable and n_enabled < lanes:
                    # No harvest can arrive, but the bound still matters: a
                    # Morphy controller poll can chain groups in series and
                    # raise the output voltage across the enable threshold
                    # without any energy input.  The scalar engine keeps
                    # predicting past the trace end (its bound of zero
                    # energy degenerates to the present voltage), so the
                    # batch must too or the dt_off->dt_on switch lands one
                    # step late and the additive clocks drift.
                    dt = np.where(~enabled & (voltage >= enable_voltage), dt_on, dt)
            else:
                raw = powers_padded[
                    np.minimum(
                        (time / sample_period).astype(np.int64), sentinel_index
                    )
                ]
                delivered = regulator.delivered_power_batch(raw, voltage)
                harvesting = bool(delivered.any())
                if predict_enable and n_enabled < lanes:
                    # Run even when nothing is harvested: the bound then
                    # degenerates to the present voltage, which still drops
                    # to dt_on for a (pre-charged) lane already at the
                    # threshold — exactly the scalar engine's behaviour.
                    bound = kernel.post_harvest_voltage_bound(delivered * dt_off)
                    dt = np.where(~enabled & (bound >= enable_voltage), dt_on, dt)
            if have_skipped:
                # Fast-forwarded lanes already consumed this iteration's
                # wall-clock budget: zero dt turns every per-lane update
                # below (ledger adds, harvest, draw, leakage) into an exact
                # bitwise no-op for them.
                dt = np.where(skipped, 0.0, dt)

            # -- 1. harvest --
            # Raw energy accrues whenever the trace is live (the scalar
            # frontend counts raw power even when the regulator delivers
            # nothing, e.g. below a boost converter's quiescent power).
            # Zero *delivered* energy is an exact no-op in the scalar
            # engine (ledger adds of 0.0, an early-out harvest), so
            # skipping the buffer update when no lane harvests preserves
            # bit equality.
            if not all_past_trace:
                raw_energy += raw * dt
            if harvesting:
                energy = delivered * dt
                delivered_energy += energy
                kernel.harvest(energy)

            # -- 2. power gating --
            end_time = time + dt
            voltage = kernel.voltage
            if n_enabled == 0:
                enabling = voltage >= enable_voltage
                changed = enabling
            elif n_enabled == lanes:
                enabling = None
                changed = voltage <= brownout_voltage
            else:
                enabling = ~enabled & (voltage >= enable_voltage)
                changed = enabling | (enabled & (voltage <= brownout_voltage))
            if have_skipped:
                # A fast-forwarded lane's plan stops *before* any step whose
                # post-harvest voltage could cross a gate threshold, so no
                # transition can hide inside the skipped segment; the lane's
                # next normal step re-runs this check at the proper
                # observation point.
                changed = changed & ~skipped
                if enabling is not None:
                    enabling = enabling & ~skipped
            if changed.any():
                browning = changed if enabling is None else changed & ~enabling
                if enabling is not None and enabling.any():
                    enable_count[enabling] += 1
                    latency = np.where(
                        enabling & np.isnan(latency), end_time, latency
                    )
                    for index in np.nonzero(enabling)[0]:
                        index = int(index)
                        flush_off(index)
                        mcus[index].set_mode(PowerMode.SLEEP)
                    enabled = enabled | enabling
                if browning.any():
                    brownout_count[browning] += 1
                    for index in np.nonzero(browning)[0]:
                        index = int(index)
                        flush_on(index)
                        mcus[index].power_off()
                        workloads[index].on_power_loss(float(time[index]))
                        off_start[index] = time[index]
                    enabled = enabled & ~browning
                n_enabled = int(enabled.sum())

            # -- 3. workload and load current --
            # Off lanes place only the gate's quiescent load; their workload
            # steps are aggregated and flushed at the next enable/retirement.
            # On lanes with a live quiescence hint skip the Python workload
            # dispatch and reuse the promised demand (the hint check uses
            # the post-harvest voltage — exactly what a stepped workload
            # would observe); the rest step normally and may cache a fresh
            # hint for the iterations that follow.
            if n_enabled:
                load = off_load.copy()
                time_list = time.tolist()
                dt_list = dt.tolist()
                if have_skipped:
                    on_indices = np.nonzero(enabled & ~skipped)[0].tolist()
                else:
                    on_indices = np.nonzero(enabled)[0].tolist()
                step_indices = []
                if use_hints:
                    end_list = end_time.tolist()
                    voltage_list = voltage.tolist()
                    for index in on_indices:
                        # The expiry bound is exclusive: a step ending
                        # exactly on it may fire the workload's timer
                        # (QuiescenceHint's contract), so that step runs
                        # normally.
                        if (
                            end_list[index] < hint_until[index]
                            and voltage_list[index] < hint_wake[index]
                        ):
                            mode = hint_mode[index]
                            dt_lane = dt_list[index]
                            if mode is PowerMode.SLEEP:
                                time_sleep[index] += dt_lane
                            elif mode is PowerMode.ACTIVE:
                                time_active[index] += dt_lane
                            elif mode is PowerMode.DEEP_SLEEP:
                                time_deep_sleep[index] += dt_lane
                            if skip_steps[index] == 0:
                                skip_start[index] = time_list[index]
                            skip_steps[index] += 1
                            load[index] = hint_load[index]
                        else:
                            flush_on(index)
                            step_indices.append(index)
                else:
                    step_indices = on_indices
                kernel.sync_lanes(step_indices)
                for index in step_indices:
                    demand = workloads[index].step(
                        StepContext(
                            time_list[index], dt_list[index], True, buffers[index]
                        )
                    )
                    mode = demand.mcu_mode
                    dt_lane = dt_list[index]
                    if mode is PowerMode.SLEEP:
                        current = sleep_current[index]
                        time_sleep[index] += dt_lane
                    elif mode is PowerMode.ACTIVE:
                        current = active_current[index]
                        time_active[index] += dt_lane
                    elif mode is PowerMode.DEEP_SLEEP:
                        current = deep_sleep_current[index]
                        time_deep_sleep[index] += dt_lane
                    else:
                        current = mcu_off_current[index]
                    load[index] = (
                        current
                        + demand.peripheral_current
                        + quiescent_list[index]
                        + on_overhead[index]
                    )
                    if use_hints:
                        hint = workloads[index].quiescent_until(
                            StepContext(
                                end_list[index], dt_on, True, buffers[index]
                            )
                        )
                        if hint is None:
                            continue
                        wake = hint.wake_on_voltage
                        if wake is None and buffers[index].longevity_request > 0.0:
                            # An energy-guarded longevity wait has no exact
                            # voltage mask; such lanes simply step.
                            continue
                        promised = hint.demand if hint.demand is not None else demand
                        promised_mode = promised.mcu_mode
                        if promised_mode is PowerMode.SLEEP:
                            promised_current = sleep_current[index]
                        elif promised_mode is PowerMode.ACTIVE:
                            promised_current = active_current[index]
                        elif promised_mode is PowerMode.DEEP_SLEEP:
                            promised_current = deep_sleep_current[index]
                        else:
                            promised_current = mcu_off_current[index]
                        hint_until[index] = hint.no_demand_change_before_time
                        hint_wake[index] = (
                            infinity if wake is None else wake
                        )
                        hint_mode[index] = promised_mode
                        hint_load[index] = (
                            promised_current
                            + promised.peripheral_current
                            + quiescent_list[index]
                            + on_overhead[index]
                        )
            else:
                load = off_load
            if dynamic_overhead:
                # State-dependent overhead, evaluated fresh against the
                # post-harvest buffer state — the observation point where
                # the scalar engine calls ``buffer.overhead_current`` while
                # assembling the load.  Adding it last preserves the
                # scalar addition order for both phases (the static
                # contribution above was built with ``+ 0.0`` in its
                # place).
                load = load + kernel.overhead_current(enabled)
            if have_skipped:
                # Zero the load too: a zero current (not just zero dt) is
                # what makes the draw an exact no-op for every kernel.
                load = np.where(skipped, 0.0, load)
            kernel.draw(load, dt)

            # -- 4. buffer housekeeping (leakage + controller polling) --
            if kernel_set_system_on is not None:
                # Kernels running a software controller (REACT's poll) need
                # the power-gate phase: the scalar engine passes post-gating
                # ``system_on`` into buffer.housekeeping.
                kernel_set_system_on(enabled)
            if have_skipped:
                # Suppress time-triggered controller polls for lanes whose
                # clocks already ran ahead during the segment replay.
                kernel.housekeeping(np.where(skipped, minus_infinity, time), dt)
            else:
                kernel.housekeeping(time, dt)

            time = end_time
            iterations += 1

        # Attribute the shared batch time evenly; lanes finished by the
        # scalar tail hand-off additionally keep their own measured time.
        elapsed = wall_clock.perf_counter() - started_at
        batch_share = (elapsed - sum(
            r.wall_clock_seconds for r in results if r is not None
        )) / n
        finished: List[SimulationResult] = []
        for result in results:
            assert result is not None  # every lane retires exactly once
            result.wall_clock_seconds += batch_share
            finished.append(result)
        return finished
