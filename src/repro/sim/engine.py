"""The discrete-time simulation loop.

Each step performs the same energy balance the paper's hardware testbed
realizes physically:

1. the harvesting frontend offers energy to the buffer (replaying the
   power trace through the regulator model),
2. the power gate compares the buffer output voltage against its enable /
   brown-out thresholds and connects or disconnects the platform,
3. the workload decides what the platform does this step and the resulting
   load current is drawn from the buffer,
4. the buffer runs its housekeeping (leakage, bank replenishment, and —
   for adaptive buffers — controller polling and reconfiguration).

After the power trace ends the system keeps running until the buffer is
drained (the paper's methodology), bounded by ``max_drain_time``.

Timestep policy
---------------

The step size adapts to the platform state: while the system is off the
dynamics are slow (a capacitor charging from a 1 Hz trace), so the
simulator takes larger ``dt_off`` steps; while the system is on it uses the
fine ``dt_on`` step so millisecond-scale atomic operations and brown-outs
resolve correctly.  The step on which the system turns *on* is special: it
is detected while still off, so a naive policy would integrate it (and
therefore resolve the enable time and the recorded latency) at the coarse
``dt_off``.  The engine instead predicts, before each off step, whether
harvesting for ``dt_off`` could lift the output voltage to the enable
threshold (via :meth:`~repro.buffers.base.EnergyBuffer.post_harvest_voltage_bound`)
and drops to ``dt_on`` for such steps, so every enable transition is
resolved at on-phase granularity.

Off-phase fast path
-------------------

While the gate is disconnected the load is the gate's constant quiescent
current plus the buffer's own overhead, and the harvested power is
piecewise-constant (the trace is zero-order-hold and the regulator's
efficiency is piecewise-constant in the buffer voltage).  Instead of
dispatching the full per-step machinery at ``dt_off``, the engine
fast-forwards whole constant-power intervals through
:meth:`~repro.buffers.base.EnergyBuffer.fast_forward`, stopping at trace
sample boundaries, predicted enable-threshold crossings, regulator
efficiency breakpoints, pending recorder sample points, and the drain
termination test.  Buffer implementations replay exactly the per-step
update rule of the step-by-step path, ledger additions included (statics
in one inlined loop, :func:`~repro.buffers.static.replay_lane`, the
adaptive designs through a conservative generic fallback), so results —
energy ledgers too — equal the step-by-step engine's exactly; pass
``fast_forward=False`` to force pure step-by-step execution.

On-phase fast path (workload quiescence)
----------------------------------------

Most *on* steps are quiescent too: the workload is parked in (deep) sleep
waiting for a timer, an event, or a longevity reserve, and its power
demand — hence the whole platform load — is constant.  Workloads declare
such stretches through the quiescence protocol
(:meth:`~repro.workloads.base.Workload.quiescent_until` returning a
:class:`~repro.workloads.base.QuiescenceHint`), and the engine
fast-forwards them through
:meth:`~repro.buffers.base.EnergyBuffer.fast_forward_on`: whole
constant-demand segments bounded by the hint's expiry (the next deadline,
packet, or sensor reading), its wake voltage (or a conservative
usable-energy guard for a pending longevity request), trace sample
boundaries, regulator efficiency breakpoints, the gate's brown-out floor,
and pending recorder sample points.  Per-mode MCU time is accumulated with
the same additive per-step arithmetic as stepped execution (so ``on_time``
and ``active_time`` stay bit-identical), and the workload accounts for the
skipped window once through
:meth:`~repro.workloads.base.Workload.skip_quiescent`.  As with the
off-phase path, ``fast_forward=False`` forces pure step-by-step execution.

Recording and latency use an end-of-step convention: a sample (and the
first-enable latency) is stamped ``time + dt``, the end of the integration
interval that produced the recorded state.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import SimulationError
from repro.platform.mcu import PowerMode
from repro.sim.recorder import Recorder
from repro.sim.results import SimulationResult
from repro.sim.segments import SegmentPlanner
from repro.sim.system import BatterylessSystem
from repro.workloads.base import StepContext


class Simulator:
    """Fixed/adaptive-timestep simulator for a :class:`BatterylessSystem`."""

    def __init__(
        self,
        system: BatterylessSystem,
        dt_on: float = 0.01,
        dt_off: float = 0.05,
        drain_after_trace: bool = True,
        max_drain_time: float = 600.0,
        recorder: Optional[Recorder] = None,
        max_steps: int = 50_000_000,
        fast_forward: bool = True,
        start_time: float = 0.0,
        initial_latency: Optional[float] = None,
    ) -> None:
        if dt_on <= 0.0 or dt_off <= 0.0:
            raise SimulationError("time steps must be positive")
        if dt_off < dt_on:
            raise SimulationError("dt_off should be at least as large as dt_on")
        if max_drain_time < 0.0:
            raise SimulationError("max drain time must be non-negative")
        if start_time < 0.0:
            raise SimulationError("start time must be non-negative")
        self.system = system
        self.dt_on = dt_on
        self.dt_off = dt_off
        self.drain_after_trace = drain_after_trace
        self.max_drain_time = max_drain_time
        self.recorder = recorder
        self.max_steps = max_steps
        self.fast_forward = fast_forward
        # Mid-flight resumption support: the batch engine retires its last
        # few lanes to the scalar engine once an array step no longer
        # amortizes (all other simulation state lives in the components).
        self.start_time = start_time
        self.initial_latency = initial_latency

    def run(self) -> SimulationResult:
        """Run the full trace (plus drain period) and return the result."""
        system = self.system
        frontend, buffer = system.frontend, system.buffer
        mcu, gate, workload = system.mcu, system.gate, system.workload

        trace_duration = frontend.duration
        hard_stop = trace_duration + (
            self.max_drain_time if self.drain_after_trace else 0.0
        )
        time = self.start_time
        latency: Optional[float] = self.initial_latency
        steps = 0
        # The demand returned by the most recent *on* step; while the gate
        # stays enabled this is the demand a quiescence hint promises to
        # hold constant.  None until the first on step (e.g. a mid-flight
        # resume that starts enabled) keeps the on-phase fast path off.
        last_demand = None

        dt_on = self.dt_on
        dt_off = self.dt_off
        recorder = self.recorder
        enable_voltage = gate.enable_voltage
        quiescent_current = gate.quiescent_current
        breakpoints = frontend.regulator.efficiency_breakpoints()
        use_fast_forward = (
            self.fast_forward and breakpoints is not None and buffer.can_fast_forward()
        )
        # All segment-boundary arithmetic (trace edges, recorder points,
        # efficiency breakpoints, hint expiry margins, drain/wake guards)
        # lives in the planner; this engine only executes the plans.
        planner = (
            SegmentPlanner(frontend, recorder, trace_duration, hard_stop, breakpoints)
            if use_fast_forward
            else None
        )
        predict_enable = dt_off > dt_on
        # Bound-method locals: the loop below runs tens of thousands of
        # times per simulated trace, so attribute lookups are hoisted out.
        frontend_step = frontend.step
        delivered_power = frontend.delivered_power
        voltage_bound = buffer.post_harvest_voltage_bound
        gate_update = gate.update
        workload_step = workload.step
        mcu_step = mcu.step
        mcu_set_mode = mcu.set_mode
        mcu_current = mcu.current
        buffer_harvest = buffer.harvest
        buffer_draw = buffer.draw
        buffer_housekeeping = buffer.housekeeping
        buffer_overhead = buffer.overhead_current

        while True:
            if steps >= self.max_steps:
                raise SimulationError(
                    f"simulation exceeded {self.max_steps} steps without terminating"
                )
            if time >= trace_duration:
                if not self.drain_after_trace or self._drained(time, hard_stop):
                    break

            if gate.enabled:
                if use_fast_forward and last_demand is not None:
                    consumed, time = self._advance_on_phase(
                        time, planner, last_demand, self.max_steps - steps
                    )
                    if consumed:
                        steps += consumed
                        continue
                dt = dt_on
            else:
                if use_fast_forward:
                    consumed, time = self._advance_off_phase(
                        time, planner, self.max_steps - steps
                    )
                    if consumed:
                        steps += consumed
                        continue
                dt = dt_off
                if predict_enable:
                    # Resolve the enable transition at on-phase granularity:
                    # if a coarse harvest step could reach the enable
                    # threshold, take this step at dt_on instead.
                    delivered = delivered_power(time, buffer.output_voltage)
                    if voltage_bound(delivered * dt) >= enable_voltage:
                        dt = dt_on

            # 1. Harvest.
            offered = frontend_step(time, dt, buffer.output_voltage)
            buffer_harvest(offered, dt)

            # 2. Power gating.
            was_on = gate.enabled
            system_on = gate_update(buffer.output_voltage)
            end_time = time + dt
            if system_on and not was_on:
                mcu_set_mode(PowerMode.SLEEP)
                if latency is None:
                    latency = end_time
            elif not system_on and was_on:
                mcu.power_off()
                workload.on_power_loss(time)

            # 3. Workload and load current.
            demand = workload_step(StepContext(time, dt, system_on, buffer))
            if system_on:
                last_demand = demand
                mcu_set_mode(demand.mcu_mode)
                load_current = (
                    mcu_current()
                    + demand.peripheral_current
                    + quiescent_current
                    + buffer_overhead(True)
                )
            else:
                load_current = quiescent_current + buffer_overhead(False)
            mcu_step(dt)
            buffer_draw(load_current, dt)

            # 4. Buffer housekeeping (leakage, replenishment, controllers).
            buffer_housekeeping(time, dt, system_on)

            if recorder is not None:
                recorder.maybe_record(
                    time=end_time,
                    voltage=buffer.output_voltage,
                    system_on=system_on,
                    capacitance=buffer.capacitance,
                    stored_energy=buffer.stored_energy,
                    harvested_power=frontend.raw_power(end_time),
                )

            time = end_time
            steps += 1
            if time >= hard_stop:
                break

        if gate.enabled:
            # End-of-simulation power-down so workloads can account for any
            # operation that was still in flight.
            workload.on_power_loss(time)
            mcu.power_off()

        metrics = workload.metrics()
        return SimulationResult(
            trace_name=frontend.trace.name,
            buffer_name=buffer.name,
            workload_name=workload.name,
            simulated_time=time,
            trace_duration=trace_duration,
            latency=latency,
            on_time=mcu.on_time,
            active_time=mcu.active_time,
            enable_count=gate.enable_count,
            brownout_count=gate.brownout_count,
            work_units=metrics.work_units,
            workload_metrics=metrics.as_dict(),
            buffer_ledger=buffer.ledger.as_dict(),
            energy_offered=buffer.ledger.offered,
            energy_delivered_to_load=buffer.ledger.delivered,
        )

    def _advance_off_phase(self, time, planner, step_budget):
        """Fast-forward off-phase steps inside one constant-power interval.

        Returns ``(steps_consumed, new_time)``; zero steps means the fast
        path could not make progress (an event is imminent) and the engine
        must take a normal step.  Every plan bound is conservative — a
        step the fast path declines to consume is simply executed by the
        exact step-by-step machinery instead.
        """
        system = self.system
        frontend, buffer, gate = system.frontend, system.buffer, system.gate
        dt = self.dt_off

        voltage = buffer.output_voltage
        plan = planner.plan_off(time, dt, voltage, gate.enable_voltage, step_budget)
        if plan.steps < 1:
            return 0, time

        raw = frontend.raw_power(time)
        delivered = frontend.delivered_power(time, voltage)
        consumed, end_time = buffer.fast_forward(
            delivered,
            gate.quiescent_current,
            dt,
            time,
            plan.steps,
            stop_above=plan.stop_above,
            stop_below=plan.stop_below,
            drain_floor=plan.drain_floor,
        )
        if consumed == 0:
            return 0, time

        elapsed = consumed * dt
        frontend.credit(raw * elapsed, delivered * elapsed)
        system.mcu.step(elapsed)  # mode is OFF: accumulates off-time only
        # One aggregated off step so the workload accounts for events
        # (missed packets, missed deadlines) in the skipped interval.
        system.workload.step(StepContext(time, end_time - time, False, buffer))
        return consumed, end_time

    def _advance_on_phase(self, time, planner, demand, step_budget):
        """Fast-forward quiescent on-phase steps inside one constant-power interval.

        Mirrors :meth:`_advance_off_phase` for the powered platform: the
        workload's :class:`~repro.workloads.base.QuiescenceHint` promises a
        constant ``demand``, so the per-step work reduces to the buffer's
        harvest/draw/housekeeping recurrence under a constant load, which
        :meth:`~repro.buffers.base.EnergyBuffer.fast_forward_on` replays
        without the engine's per-step dispatch.  Returns ``(steps_consumed,
        new_time)``; zero steps means an event/wake/boundary is imminent
        and the engine must take a normal step.
        """
        system = self.system
        frontend, buffer, gate = system.frontend, system.buffer, system.gate
        workload = system.workload
        dt = self.dt_on

        hint = workload.quiescent_until(StepContext(time, dt, True, buffer))
        if hint is None:
            return 0, time
        if hint.demand is not None:
            demand = hint.demand

        voltage = buffer.output_voltage
        plan = planner.plan_on(
            time, dt, voltage, hint, buffer.longevity_request, step_budget
        )
        if plan.steps < 1:
            return 0, time

        raw = frontend.raw_power(time)
        delivered = frontend.delivered_power(time, voltage)
        mcu = system.mcu
        mode = demand.mcu_mode
        mode_current = mcu.current(mode)
        load_current = (
            mode_current + demand.peripheral_current + gate.quiescent_current
        )
        consumed, end_time = buffer.fast_forward_on(
            delivered,
            load_current,
            dt,
            time,
            plan.steps,
            stop_above=plan.stop_above,
            stop_below=plan.stop_below,
            brownout_floor=gate.brownout_voltage,
            wake_energy=plan.wake_energy,
        )
        if consumed == 0:
            return 0, time

        elapsed = consumed * dt
        frontend.credit(raw * elapsed, delivered * elapsed)
        # The stepped path would have set this mode on the segment's first
        # step (it can differ from the present mode right after a phase
        # completes); per-mode time then replays the stepped engine's
        # additive accumulation (same additions, same order) so
        # on_time/active_time — which the batch engine reproduces exactly —
        # stay bit-identical.  The charge ledger, which no reported metric
        # consumes, is aggregated.
        mcu.set_mode(mode)
        accumulated = mcu.time_in_mode.get(mode, 0.0)
        for _ in range(consumed):
            accumulated += dt
        mcu.time_in_mode[mode] = accumulated
        mcu.charge_drawn += mode_current * elapsed
        workload.skip_quiescent(
            StepContext(time, end_time - time, True, buffer), consumed, dt
        )
        return consumed, end_time

    def _drained(self, time: float, hard_stop: float) -> bool:
        """True when the post-trace drain phase should stop."""
        if time >= hard_stop:
            return True
        gate = self.system.gate
        buffer = self.system.buffer
        if gate.enabled:
            return False
        # The system is off; it can only restart if stored energy elsewhere
        # in the buffer can still lift the output above the enable voltage.
        return buffer.output_voltage < gate.enable_voltage and not self._can_reenable()

    def _can_reenable(self) -> bool:
        """Whether an off system might still come back without new input.

        Adaptive buffers may hold charge in banks above the enable voltage
        that replenishment (or reconfiguration) will move to the output;
        each buffer architecture answers this through
        :meth:`~repro.buffers.base.EnergyBuffer.can_reach_voltage`.
        """
        return self.system.buffer.can_reach_voltage(self.system.gate.enable_voltage)
