"""The workload quiescence protocol and the on-phase fast path.

Three layers are pinned here:

* the protocol itself — which hints each benchmark workload declares, the
  demand they promise, and that ``skip_quiescent`` reproduces stepped
  execution exactly;
* the scalar engine's on-phase fast forwarding — bit-identical counters
  (including ``on_time``/``active_time``) and ledgers against
  ``Simulator(fast_forward=False)`` on the full quick grid for every
  buffer in ``BUFFER_ORDER``, plus the related-work extensions whose
  longevity waits exercise the wake-voltage (Dewdrop) and usable-energy
  (Capybara) guards;
* the batch engine's per-lane hint masks — the same discipline against the
  scalar engine on longevity-heavy lanes.
"""

import math

import pytest

from repro.buffers.capybara import CapybaraBuffer
from repro.buffers.dewdrop import DewdropBuffer
from repro.buffers.static import StaticBuffer
from repro.experiments.runner import (
    BUFFER_ORDER,
    ExperimentSettings,
    make_workload,
    standard_buffers,
)
from repro.harvester.synthetic import TABLE3_ORDER
from repro.platform.mcu import MSP430FR5994, PowerMode
from repro.sim.batch import BatchSimulator
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.system import BatterylessSystem
from repro.units import microfarads, millifarads
from repro.workloads.base import PowerDemand, QuiescenceHint, StepContext
from repro.workloads.data_encryption import DataEncryption
from repro.workloads.packet_forwarding import PacketForwarding
from repro.workloads.radio_transmit import RadioTransmit
from repro.workloads.sense_compute import SenseAndCompute

from oracle import assert_results_equivalent

QUICK = ExperimentSettings(quick=True)


def simulator_kwargs(settings=QUICK):
    return dict(
        dt_on=settings.effective_dt_on,
        dt_off=settings.effective_dt_off,
        max_drain_time=settings.max_drain_time,
    )


def build_system(trace, buffer, workload_name, trace_name):
    return BatterylessSystem.build(
        trace, buffer, make_workload(workload_name, trace_name), mcu=MSP430FR5994()
    )


def on_ctx(buffer=None, time=0.0, dt=0.02):
    return StepContext(time, dt, True, buffer or StaticBuffer(millifarads(10.0)))


class TestProtocolHints:
    """Which promises each benchmark workload makes, and when."""

    def test_data_encryption_is_always_quiescent_while_on(self):
        workload = DataEncryption()
        hint = workload.quiescent_until(on_ctx())
        assert hint.no_demand_change_before_time == math.inf
        assert hint.wake_on_voltage is None
        assert hint.demand == PowerDemand.active()

    def test_sense_compute_hints_until_the_next_deadline(self):
        workload = SenseAndCompute(period=5.0)
        buffer = StaticBuffer(millifarads(10.0))
        # The first deadline fires at t = 0 and starts a measurement; step
        # through it until the workload is idle again, then the promise
        # must run to the next deadline at t = 5.
        time = 0.0
        while workload._phase is not None or time == 0.0:
            workload.step(StepContext(time, 0.02, True, buffer))
            time += 0.02
        hint = workload.quiescent_until(on_ctx(buffer, time=time))
        assert hint is not None
        assert hint.no_demand_change_before_time == 5.0
        assert hint.wake_on_event
        assert hint.demand == PowerDemand.sleeping()

    def test_sense_compute_makes_no_promise_during_a_measurement(self):
        workload = SenseAndCompute(period=5.0)
        buffer = StaticBuffer(millifarads(10.0))
        time = 0.0
        # Step across the first deadline (phase = 0): the sampling phase
        # starts immediately and suspends the promise.
        demand = workload.step(StepContext(time, 0.02, True, buffer))
        assert demand.mcu_mode is PowerMode.ACTIVE
        assert workload.quiescent_until(on_ctx(buffer, time=0.02)) is None

    def test_radio_transmit_waiting_for_data_hints_to_the_next_reading(self):
        workload = RadioTransmit(data_period=2.5)
        buffer = StaticBuffer(millifarads(10.0))
        demand = workload.step(StepContext(0.0, 0.02, True, buffer))
        assert demand == PowerDemand.deep_sleeping()
        hint = workload.quiescent_until(on_ctx(buffer, time=0.02))
        assert hint.no_demand_change_before_time == 2.5
        assert hint.demand == PowerDemand.deep_sleeping()

    def test_radio_transmit_waiting_for_energy_uses_the_buffer_wake_voltage(self):
        workload = RadioTransmit(data_period=2.5)
        buffer = DewdropBuffer(millifarads(10.0))
        # Advance past the first reading so a transmission wants to start;
        # the empty buffer cannot satisfy the reserve, so the workload
        # parks in deep sleep with a pending request.
        time = 0.0
        while time < 2.6:
            demand = workload.step(StepContext(time, 0.02, True, buffer))
            time += 0.02
        assert demand == PowerDemand.deep_sleeping()
        assert buffer.longevity_request > 0.0
        hint = workload.quiescent_until(on_ctx(buffer, time=time))
        assert hint.no_demand_change_before_time == math.inf
        assert hint.wake_on_voltage == buffer.required_voltage(
            buffer.longevity_request
        )
        assert hint.demand == PowerDemand.deep_sleeping()

    def test_packet_forwarding_hints_to_the_next_arrival(self):
        workload = PacketForwarding()
        buffer = StaticBuffer(millifarads(10.0))
        workload.step(StepContext(0.0, 0.02, True, buffer))
        hint = workload.quiescent_until(on_ctx(buffer, time=0.02))
        assert hint is not None
        assert hint.no_demand_change_before_time == pytest.approx(
            workload._arrivals.next_fire_time
        )
        assert hint.wake_on_event
        assert hint.demand == PowerDemand.deep_sleeping(
            peripheral_current=workload.listen_current
        )

    def test_longevity_wake_voltage_defaults(self):
        assert StaticBuffer(millifarads(10.0)).longevity_wake_voltage() is None
        dewdrop = DewdropBuffer(millifarads(10.0))
        assert dewdrop.longevity_wake_voltage() is None  # no pending request
        dewdrop.request_longevity(1e-3)
        assert dewdrop.longevity_wake_voltage() == dewdrop.required_voltage(1e-3)
        capybara = CapybaraBuffer()
        capybara.request_longevity(1e-3)
        assert capybara.longevity_wake_voltage() is None  # energy-guarded

    def test_skip_quiescent_replays_data_encryption_exactly(self):
        """DE's override must track the stepped float trajectory bit for bit."""
        stepped = DataEncryption(unit_time=0.15)
        skipped = DataEncryption(unit_time=0.15)
        buffer = StaticBuffer(millifarads(10.0))
        dt = 0.02
        time = 0.0
        for _ in range(1237):
            stepped.step(StepContext(time, dt, True, buffer))
            time += dt
        skipped.skip_quiescent(StepContext(0.0, time - 0.0, True, buffer), 1237, dt)
        assert skipped._progress == stepped._progress
        assert skipped.metrics().work_units == stepped.metrics().work_units

    def test_skip_quiescent_default_aggregates_one_step(self):
        """The base default is one aggregated step over the window."""
        workload = SenseAndCompute(period=50.0)
        buffer = StaticBuffer(millifarads(10.0))
        workload.step(StepContext(0.0, 0.02, True, buffer))
        workload.skip_quiescent(StepContext(0.02, 1.0, True, buffer), 50, 0.02)
        assert workload._last_time == pytest.approx(1.02)


def steady_trace(power, samples=60):
    import numpy as np

    from repro.harvester.trace import PowerTrace

    return PowerTrace(np.full(samples, power), sample_period=1.0, name="steady")


def schedule_arrivals(workload, times):
    """Replace a PF workload's Poisson packet schedule with ``times``."""
    import numpy as np

    arrivals = workload._arrivals
    arrivals._times = np.asarray(times, dtype=float)
    arrivals._times_list = [float(time) for time in times]
    arrivals._cursor = 0


def record_in_flight_skips(workload):
    """Count the steps ``skip_quiescent`` replays inside each phase."""
    skipped = {}
    original = workload.skip_quiescent

    def skip(ctx, steps, step_dt):
        if workload._phase is not None:
            skipped[workload._phase] = skipped.get(workload._phase, 0) + steps
        original(ctx, steps, step_dt)

    workload.skip_quiescent = skip
    return skipped


class TestInFlightBursts:
    """RT's and PF's atomic radio phases promise their fixed demand."""

    def stepped_to_phase(self, workload, buffer, phase, dt=0.01):
        time = 0.0
        while workload._phase != phase:
            workload.step(StepContext(time, dt, True, buffer))
            time += dt
        return time

    @pytest.mark.parametrize(
        "phase, current", [("package", 0.0), ("transmit", 8e-3)]
    )
    def test_radio_transmit_hints_to_the_step_that_completes_the_phase(
        self, phase, current
    ):
        buffer = StaticBuffer(millifarads(10.0))
        workload = RadioTransmit(data_period=0.5, use_longevity_guarantee=False)
        dt = 0.01
        time = self.stepped_to_phase(workload, buffer, phase, dt)
        hint = workload.quiescent_until(on_ctx(buffer, time=time, dt=dt))
        assert hint.demand == PowerDemand.active(
            peripheral_current=workload.radio.transmit_current if current else 0.0
        )
        assert hint.wake_on_voltage is None
        # Step until the phase completes: every earlier step returns the
        # promised demand and ends strictly before the expiry; the
        # completing step ends exactly on it.
        while True:
            demand = workload.step(StepContext(time, dt, True, buffer))
            time += dt
            if workload._phase != phase:
                break
            assert demand == hint.demand
            assert time < hint.no_demand_change_before_time
        assert time == hint.no_demand_change_before_time

    def test_radio_transmit_skip_replays_the_countdown(self):
        buffer = StaticBuffer(millifarads(10.0))
        stepped = RadioTransmit(data_period=0.5, use_longevity_guarantee=False)
        skipped = RadioTransmit(data_period=0.5, use_longevity_guarantee=False)
        dt = 0.01
        start = self.stepped_to_phase(stepped, buffer, "transmit", dt)
        self.stepped_to_phase(skipped, buffer, "transmit", dt)
        time = start
        for _ in range(7):
            stepped.step(StepContext(time, dt, True, buffer))
            time += dt
        skipped.skip_quiescent(StepContext(start, time - start, True, buffer), 7, dt)
        assert skipped._phase == stepped._phase == "transmit"
        assert skipped._phase_remaining == stepped._phase_remaining

    def test_no_promise_when_the_next_step_completes_the_phase(self):
        buffer = StaticBuffer(millifarads(10.0))
        workload = RadioTransmit(data_period=0.5, use_longevity_guarantee=False)
        time = self.stepped_to_phase(workload, buffer, "package")
        workload._phase_remaining = 0.01
        assert workload.quiescent_until(on_ctx(buffer, time=time, dt=0.01)) is None

    def test_packet_forwarding_burst_hint_stops_at_the_next_arrival(self):
        buffer = StaticBuffer(millifarads(10.0))
        buffer.harvest(0.04, 0.01)  # enough stored energy to receive
        workload = PacketForwarding(use_longevity_guarantee=False)
        schedule_arrivals(workload, [0.5, 0.53, 5.0])
        time = self.stepped_to_phase(workload, buffer, "receive")
        hint = workload.quiescent_until(on_ctx(buffer, time=time, dt=0.01))
        assert hint.no_demand_change_before_time == 0.53
        assert hint.wake_on_event
        assert hint.demand == PowerDemand.active(
            peripheral_current=workload.radio.receive_current
        )

    def test_brownout_mid_transmit_matches_step_by_step(self):
        """A static buffer too small for the burst browns out mid-transmit:
        each failed transmission is counted once, on both paths."""
        phases = []

        def make_system():
            system = BatterylessSystem.build(
                steady_trace(1e-3),
                StaticBuffer(microfarads(770.0)),
                RadioTransmit(),
                mcu=MSP430FR5994(),
            )
            original = system.workload.on_power_loss

            def on_power_loss(time):
                phases.append(system.workload._phase)
                original(time)

            system.workload.on_power_loss = on_power_loss
            return system

        kwargs = dict(dt_on=0.01, dt_off=0.05, max_drain_time=30.0)
        reference = Simulator(make_system(), fast_forward=False, **kwargs).run()
        reference_phases, phases[:] = list(phases), []
        system = make_system()
        skipped = record_in_flight_skips(system.workload)
        fast = Simulator(system, fast_forward=True, **kwargs).run()
        assert_results_equivalent(reference, fast)
        assert phases == reference_phases
        failed = reference.workload_metrics["failed_operations"]
        assert failed == phases.count("transmit") == reference.brownout_count > 0
        assert skipped["transmit"] > 0

    def test_arrival_during_a_receive_is_missed_on_both_paths(self):
        def make_system():
            workload = PacketForwarding(use_longevity_guarantee=False)
            # Each pair's second packet lands inside the first one's
            # 0.1 s receive window.
            schedule_arrivals(workload, [20.0, 20.04, 30.0, 30.07, 40.0])
            return BatterylessSystem.build(
                steady_trace(5e-3),
                StaticBuffer(millifarads(10.0)),
                workload,
                mcu=MSP430FR5994(),
            )

        kwargs = dict(dt_on=0.01, dt_off=0.05, max_drain_time=30.0)
        reference = Simulator(make_system(), fast_forward=False, **kwargs).run()
        system = make_system()
        skipped = record_in_flight_skips(system.workload)
        fast = Simulator(system, fast_forward=True, **kwargs).run()
        assert_results_equivalent(reference, fast)
        metrics = reference.workload_metrics
        assert metrics["missed_events"] == 2
        assert metrics["packets_received"] == metrics["work_units"] == 3
        assert skipped["receive"] > 0 and skipped["transmit"] > 0


class TestScalarOnPhaseEquivalence:
    """The acceptance gate: fast == step-by-step on the full quick grid."""

    @pytest.mark.parametrize("buffer_name", BUFFER_ORDER)
    def test_full_quick_grid_matches_step_by_step(self, buffer_name):
        kwargs = simulator_kwargs()
        for trace_name in TABLE3_ORDER:
            trace = QUICK.trace(trace_name)
            for workload_name in ("DE", "SC", "RT", "PF"):

                def build():
                    buffer = next(
                        b for b in standard_buffers() if b.name == buffer_name
                    )
                    return build_system(trace, buffer, workload_name, trace_name)

                reference = Simulator(build(), fast_forward=False, **kwargs).run()
                fast = Simulator(build(), fast_forward=True, **kwargs).run()
                assert_results_equivalent(reference, fast)

    @pytest.mark.parametrize(
        "buffer_factory",
        [
            lambda: DewdropBuffer(millifarads(10.0)),
            lambda: CapybaraBuffer(
                base_capacitance=microfarads(770.0),
                task_capacitance=millifarads(10.0),
            ),
        ],
        ids=["Dewdrop", "Capybara"],
    )
    @pytest.mark.parametrize("workload_name", ["RT", "PF"])
    def test_longevity_waits_match_step_by_step(self, buffer_factory, workload_name):
        """Deep-sleep wait-for-energy stretches: the headline on-phase case.

        Dewdrop expresses its reserve as a wake voltage (the exact-stop
        path); Capybara has no voltage equivalent and exercises the
        conservative usable-energy guard.
        """
        kwargs = simulator_kwargs()
        for trace_name in ("RF Cart", "Solar Campus"):
            trace = QUICK.trace(trace_name)
            reference = Simulator(
                build_system(trace, buffer_factory(), workload_name, trace_name),
                fast_forward=False,
                **kwargs,
            ).run()
            fast = Simulator(
                build_system(trace, buffer_factory(), workload_name, trace_name),
                fast_forward=True,
                **kwargs,
            ).run()
            assert_results_equivalent(reference, fast)

    def test_recorder_timeline_is_preserved_through_on_phase_skips(self):
        """DE on a steady trace is on almost continuously: every recorded
        sample must still land on the same timestamps with the same state."""
        import numpy as np

        from repro.harvester.trace import PowerTrace

        trace = PowerTrace(np.full(60, 2e-3), sample_period=1.0, name="steady")
        recorders = []
        for fast_forward in (False, True):
            recorder = Recorder(record_period=0.5)
            system = build_system(
                trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart"
            )
            Simulator(
                system,
                dt_on=0.02,
                dt_off=0.1,
                max_drain_time=30.0,
                recorder=recorder,
                fast_forward=fast_forward,
            ).run()
            recorders.append(recorder)
        reference, fast = recorders
        assert len(fast) == len(reference)
        for ref_point, fast_point in zip(reference.points, fast.points):
            assert fast_point.time == ref_point.time
            assert fast_point.voltage == pytest.approx(ref_point.voltage, rel=1e-12)
            assert fast_point.system_on == ref_point.system_on

    def test_on_phase_skip_reduces_workload_dispatch(self):
        """The fast path must actually aggregate on-phase steps."""
        import numpy as np

        from repro.harvester.trace import PowerTrace

        trace = PowerTrace(np.full(60, 2e-3), sample_period=1.0, name="steady")
        calls = {False: 0, True: 0}
        for fast_forward in (False, True):
            system = build_system(
                trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart"
            )
            workload = system.workload
            original = workload.step

            def counting_step(ctx, _original=original, _key=fast_forward):
                calls[_key] += 1
                return _original(ctx)

            workload.step = counting_step
            Simulator(
                system,
                dt_on=0.02,
                dt_off=0.1,
                max_drain_time=30.0,
                fast_forward=fast_forward,
            ).run()
        assert calls[True] < calls[False] / 5


class TestBatchHintMasks:
    """Batched lanes honour the same protocol through per-lane hint masks."""

    @staticmethod
    def lanes(trace, trace_name):
        def fresh_buffers():
            return [
                StaticBuffer(microfarads(770.0), name="770 uF"),
                StaticBuffer(millifarads(10.0), name="10 mF"),
                StaticBuffer(millifarads(17.0), name="17 mF"),
                DewdropBuffer(millifarads(10.0)),
            ]

        return [
            build_system(trace, buffer, workload_name, trace_name)
            for workload_name in ("RT", "PF", "DE", "SC")
            for buffer in fresh_buffers()
        ]

    def test_longevity_heavy_lanes_match_scalar(self, lane_floors):
        """RT/PF lanes exercise the Dewdrop wake-voltage mask; DE/SC the
        expiry mask.  Exact counters and exact-order ledgers against pure
        step-by-step scalar execution."""
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in self.lanes(trace, "RF Cart")
        ]
        batched = BatchSimulator(
            self.lanes(trace, "RF Cart"), **simulator_kwargs()
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_fast_forward_false_disables_the_hint_masks(self, lane_floors):
        """The step-by-step ablation must not consult hints at all."""
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        systems = self.lanes(trace, "RF Cart")
        hint_calls = 0
        for system in systems:
            original = system.workload.quiescent_until

            def counting(ctx, _original=original):
                nonlocal hint_calls
                hint_calls += 1
                return _original(ctx)

            system.workload.quiescent_until = counting
        BatchSimulator(
            systems, fast_forward=False, **simulator_kwargs()
        ).run()
        assert hint_calls == 0

    def test_hint_expiry_is_exclusive_on_the_timer_grid(self, lane_floors):
        """A step ending exactly at RT's data-period expiry must run
        normally: ``_accumulate_data`` fires on an inclusive comparison,
        so skipping that step would land the reading one step late.
        Regression test for the batch mask treating the expiry as
        inclusive (dt_on = 0.5 makes step ends hit the 2.5 s grid
        exactly)."""
        lane_floors(1)
        import numpy as np

        from repro.harvester.trace import PowerTrace

        trace = PowerTrace(np.full(40, 5e-3), sample_period=1.0, name="steady")

        def systems():
            return [
                build_system(
                    trace, StaticBuffer(size, name=name), "RT", "RF Cart"
                )
                for name, size in (
                    ("10 mF", millifarads(10.0)),
                    ("17 mF", millifarads(17.0)),
                )
            ]

        kwargs = dict(dt_on=0.5, dt_off=0.5, max_drain_time=10.0)
        reference = [
            Simulator(system, fast_forward=False, **kwargs).run()
            for system in systems()
        ]
        batched = BatchSimulator(systems(), **kwargs).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_quiescence_hint_shape(self):
        """The hint tuple is the documented three-field contract + demand."""
        hint = QuiescenceHint(12.5)
        assert hint.no_demand_change_before_time == 12.5
        assert hint.wake_on_voltage is None
        assert hint.wake_on_event is False
        assert hint.demand is None
