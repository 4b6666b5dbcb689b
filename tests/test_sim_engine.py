"""Simulation engine, system composition, recorder, results, and metrics."""

import numpy as np
import pytest

from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.exceptions import ConfigurationError, SimulationError
from repro.harvester.trace import PowerTrace
from repro.platform.gating import PowerGate
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    aggregate_results,
    mean_normalized_performance,
    normalize_to_reference,
)
from repro.sim.recorder import Recorder
from repro.sim.results import SimulationResult
from repro.sim.system import BatterylessSystem
from repro.units import millifarads
from repro.workloads.data_encryption import DataEncryption
from repro.workloads.sense_compute import SenseAndCompute

from oracle import assert_results_equivalent


class TestBatterylessSystem:
    def test_build_and_reset(self, steady_trace):
        system = BatterylessSystem.build(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        system.buffer.harvest(1e-3, 1.0)
        system.reset()
        assert system.buffer.stored_energy == 0.0

    def test_gate_buffer_compatibility_checked(self, steady_trace):
        with pytest.raises(ConfigurationError):
            BatterylessSystem.build(
                steady_trace,
                StaticBuffer(millifarads(1.0), max_voltage=3.0),
                DataEncryption(),
                gate=PowerGate(enable_voltage=3.3, brownout_voltage=1.8),
            )


class TestSimulator:
    def test_steady_power_runs_the_system(self, steady_trace, simulator_factory):
        result = simulator_factory(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        ).run()
        assert result.started
        assert result.work_units > 0.0
        assert result.on_time > 0.0
        assert result.enable_count >= 1

    def test_weak_power_never_starts_large_buffer(self, weak_trace, simulator_factory):
        result = simulator_factory(
            weak_trace, StaticBuffer(millifarads(17.0)), DataEncryption()
        ).run()
        assert not result.started
        assert result.work_units == 0.0
        assert result.latency is None

    def test_latency_is_time_of_first_enable(self, steady_trace, simulator_factory):
        result = simulator_factory(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        ).run()
        # 1 mF to 3.3 V needs ~5.4 mJ at 5 mW -> just over a second.
        assert 0.5 < result.latency < 3.0

    def test_drain_phase_extends_beyond_trace(self, steady_trace, simulator_factory):
        result = simulator_factory(
            steady_trace, StaticBuffer(millifarads(10.0)), DataEncryption()
        ).run()
        assert result.simulated_time > steady_trace.duration

    def test_drain_phase_can_be_disabled(self, steady_trace, simulator_factory):
        result = simulator_factory(
            steady_trace,
            StaticBuffer(millifarads(10.0)),
            DataEncryption(),
            drain_after_trace=False,
        ).run()
        assert result.simulated_time == pytest.approx(steady_trace.duration, abs=1.0)

    def test_energy_conservation_for_static_buffer(
        self, short_rf_trace, simulator_factory
    ):
        buffer = StaticBuffer(millifarads(1.0))
        result = simulator_factory(short_rf_trace, buffer, SenseAndCompute()).run()
        ledger = result.buffer_ledger
        balance = ledger["stored"] - ledger["delivered"] - ledger["leaked"]
        assert buffer.stored_energy == pytest.approx(balance, rel=1e-6, abs=1e-9)
        assert ledger["offered"] == pytest.approx(
            ledger["stored"] + ledger["clipped"], rel=1e-9, abs=1e-12
        )

    def test_react_runs_end_to_end(self, short_rf_trace, simulator_factory):
        result = simulator_factory(
            short_rf_trace, ReactBuffer(), SenseAndCompute()
        ).run()
        assert result.started
        assert result.work_units > 0.0

    def test_recorder_collects_timeline(self, steady_trace, simulator_factory):
        recorder = Recorder(record_period=0.5)
        simulator_factory(
            steady_trace,
            StaticBuffer(millifarads(1.0)),
            DataEncryption(),
            recorder=recorder,
        ).run()
        arrays = recorder.as_arrays()
        assert len(arrays["time"]) > 10
        assert arrays["voltage"].max() <= 3.6 + 1e-6
        assert recorder.on_intervals()

    def test_invalid_timestep_configuration(self, steady_trace):
        system = BatterylessSystem.build(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        with pytest.raises(SimulationError):
            Simulator(system, dt_on=0.0)
        with pytest.raises(SimulationError):
            Simulator(system, dt_on=0.1, dt_off=0.01)

    def test_max_steps_guard(self, steady_trace):
        system = BatterylessSystem.build(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        with pytest.raises(SimulationError):
            Simulator(system, max_steps=5).run()


class TestAdaptiveTimestepAtTransitions:
    """Regression: the enable transition must resolve at dt_on granularity.

    The seed chose the step size from the gate state *before* updating the
    gate, so the step on which the system turned on was integrated with the
    coarse dt_off and the recorded latency was quantized to the dt_off grid.
    """

    def test_latency_resolved_at_dt_on(self, steady_trace):
        # 1 mF charged by 5 mW reaches 3.3 V (5.445 mJ) in ~1.09 s; with the
        # old policy a dt_off this coarse could only report a multiple of it.
        dt_off = 0.5
        system = BatterylessSystem.build(
            steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        result = Simulator(system, dt_on=0.01, dt_off=dt_off, max_drain_time=30.0).run()
        assert result.latency == pytest.approx(1.09, abs=0.05)
        distance_to_grid = min(
            result.latency % dt_off, dt_off - result.latency % dt_off
        )
        assert distance_to_grid > 1e-6, "latency still quantized to the dt_off grid"

    def test_latency_agrees_across_dt_off_choices(self, steady_trace):
        latencies = []
        for dt_off in (0.1, 0.25, 0.5):
            system = BatterylessSystem.build(
                steady_trace, StaticBuffer(millifarads(1.0)), DataEncryption()
            )
            result = Simulator(
                system, dt_on=0.01, dt_off=dt_off, max_drain_time=30.0
            ).run()
            latencies.append(result.latency)
        assert max(latencies) - min(latencies) <= 0.03


class TestRecorderConventions:
    """Regression tests for the end-of-step recording convention."""

    def test_recorded_power_matches_trace_at_timestamp(self):
        # Power drops to zero at t = 30 s; the seed paired post-step state
        # with the power of the sample *before* the step, so points recorded
        # just after the edge carried the stale 5 mW value.
        powers = [5e-3] * 30 + [0.0] * 30
        trace = PowerTrace(powers, sample_period=1.0, name="edge")
        system = BatterylessSystem.build(
            trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        recorder = Recorder(record_period=0.5)
        Simulator(
            system, dt_on=0.02, dt_off=0.1, max_drain_time=60.0, recorder=recorder
        ).run()
        assert len(recorder) > 10
        for point in recorder.points:
            assert point.harvested_power == trace.power_at(point.time)

    def test_timestamps_are_end_of_step(self):
        trace = PowerTrace([5e-3] * 10, sample_period=1.0, name="steady10")
        system = BatterylessSystem.build(
            trace, StaticBuffer(millifarads(1.0)), DataEncryption()
        )
        recorder = Recorder(record_period=0.05)
        Simulator(
            system, dt_on=0.02, dt_off=0.1, max_drain_time=5.0, recorder=recorder
        ).run()
        # Every sample is stamped at the *end* of an integration interval,
        # so nothing can carry the pre-step timestamp 0.0.
        assert recorder.points[0].time > 0.0

    def test_decimation_snaps_to_period_grid(self):
        # A jittery step size must not accumulate drift: each recorded
        # sample stays within one step of its record-period grid point.
        recorder = Recorder(record_period=0.5)
        time, step = 0.0, 0.033
        while time < 60.0:
            recorder.maybe_record(time, 2.0, True, 1e-3, 1e-3, 0.0)
            time += step
        times = [p.time for p in recorder.points]
        assert len(times) == pytest.approx(60.0 / 0.5, abs=2)
        for index, recorded in enumerate(times):
            grid_point = index * 0.5
            assert grid_point - 1e-9 <= recorded < grid_point + step + 1e-9


class HalfHarvestBuffer(StaticBuffer):
    """A static capacitor that stores only half of each harvest."""

    batch_exact = False

    def __init__(self):
        super().__init__(millifarads(10.0), name="half-harvest")

    def harvest(self, energy: float, dt: float) -> float:
        return super().harvest(0.5 * energy, dt)


class TestFastForwardEquivalence:
    """The off-phase fast path must match the step-by-step engine."""

    @staticmethod
    def _run(trace, buffer, workload, fast_forward, recorder=None):
        system = BatterylessSystem.build(trace, buffer, workload)
        return Simulator(
            system,
            dt_on=0.02,
            dt_off=0.1,
            max_drain_time=120.0,
            recorder=recorder,
            fast_forward=fast_forward,
        ).run()

    @pytest.mark.parametrize(
        "buffer_name", ["770 uF", "10 mF", "17 mF", "Morphy", "REACT"]
    )
    @pytest.mark.parametrize("workload_factory", [DataEncryption, SenseAndCompute])
    def test_matches_step_by_step_engine(
        self, short_rf_trace, buffer_name, workload_factory
    ):
        from repro.experiments.runner import standard_buffers

        def fresh_buffer():
            return next(b for b in standard_buffers() if b.name == buffer_name)

        reference = self._run(
            short_rf_trace, fresh_buffer(), workload_factory(), fast_forward=False
        )
        fast = self._run(
            short_rf_trace, fresh_buffer(), workload_factory(), fast_forward=True
        )
        assert_results_equivalent(reference, fast)

    @pytest.mark.parametrize("workload_factory", [DataEncryption, SenseAndCompute])
    def test_overridden_hooks_bypass_the_inlined_recurrence(
        self, short_rf_trace, workload_factory
    ):
        """A subclass that opts out of ``batch_exact`` must be fast-forwarded
        through its own hooks, not the inlined single-capacitor recurrence."""
        reference = self._run(
            short_rf_trace, HalfHarvestBuffer(), workload_factory(), False
        )
        fast = self._run(short_rf_trace, HalfHarvestBuffer(), workload_factory(), True)
        assert_results_equivalent(reference, fast)

    def test_recorder_timeline_is_preserved(self, steady_trace):
        recorders = []
        for fast_forward in (False, True):
            recorder = Recorder(record_period=0.5)
            self._run(
                steady_trace,
                StaticBuffer(millifarads(10.0)),
                DataEncryption(),
                fast_forward=fast_forward,
                recorder=recorder,
            )
            recorders.append(recorder)
        reference, fast = recorders
        assert len(fast) == len(reference)
        for ref_point, fast_point in zip(reference.points, fast.points):
            assert fast_point.time == ref_point.time
            assert fast_point.voltage == pytest.approx(ref_point.voltage, rel=1e-12)
            assert fast_point.system_on == ref_point.system_on

    def test_fast_forward_skips_interpreter_steps(self, weak_trace):
        # A system that never starts is pure off-phase: the fast path must
        # cover almost the whole trace in a handful of engine iterations.
        buffer = StaticBuffer(millifarads(17.0))
        system = BatterylessSystem.build(weak_trace, buffer, DataEncryption())
        simulator = Simulator(system, dt_on=0.02, dt_off=0.1, max_drain_time=60.0)
        result = simulator.run()
        assert not result.started
        assert result.simulated_time >= weak_trace.duration


class TestRecorder:
    def test_decimation(self):
        recorder = Recorder(record_period=1.0)
        for step in range(100):
            recorder.maybe_record(
                time=step * 0.1,
                voltage=2.0,
                system_on=True,
                capacitance=1e-3,
                stored_energy=1e-3,
                harvested_power=1e-3,
            )
        assert len(recorder) == pytest.approx(10, abs=2)

    def test_on_intervals_detects_transitions(self):
        recorder = Recorder(record_period=0.1)
        pattern = [False, True, True, False, True]
        for index, on in enumerate(pattern):
            recorder.maybe_record(index * 1.0, 2.0, on, 1e-3, 1e-3, 0.0)
        intervals = recorder.on_intervals()
        assert len(intervals) == 2

    def test_snap_advances_past_fp_grid_points(self):
        """A sample landing exactly on a grid point must not duplicate.

        4.3 / 0.1 floors to 42 in floating point, so the naive snap would
        leave the next record time at 4.3 and the following step would
        record a second sample in the same 100 ms window.
        """
        recorder = Recorder(record_period=0.1)
        recorder._next_record_time = 4.3
        recorder.maybe_record(4.3, 2.0, True, 1e-3, 1e-3, 0.0)
        assert recorder.next_record_time > 4.3
        recorder.maybe_record(4.35, 2.0, True, 1e-3, 1e-3, 0.0)
        assert len(recorder) == 1

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            Recorder(record_period=0.0)

    def test_reset(self):
        recorder = Recorder()
        recorder.maybe_record(0.0, 1.0, True, 1e-3, 1e-3, 0.0)
        recorder.reset()
        assert len(recorder) == 0


def make_result(trace="RF Cart", buffer="REACT", workload="SC", work=10.0, latency=1.0):
    return SimulationResult(
        trace_name=trace,
        buffer_name=buffer,
        workload_name=workload,
        simulated_time=400.0,
        trace_duration=313.0,
        latency=latency,
        on_time=200.0,
        active_time=50.0,
        enable_count=3,
        brownout_count=2,
        work_units=work,
        workload_metrics={"work_units": work},
        buffer_ledger={"offered": 1.0, "delivered": 0.5},
        energy_offered=1.0,
        energy_delivered_to_load=0.5,
    )


class TestResultsAndMetrics:
    def test_result_derived_properties(self):
        result = make_result()
        assert result.started
        assert result.duty_cycle == pytest.approx(0.5)
        assert result.end_to_end_efficiency == pytest.approx(0.5)
        assert result.on_time_during_trace_fraction <= 1.0
        row = result.as_dict()
        assert row["buffer"] == "REACT"
        assert row["workload_work_units"] == 10.0

    def test_never_started_result(self):
        result = make_result(latency=None, work=0.0)
        assert not result.started
        assert np.isnan(result.as_dict()["latency_s"])

    def test_normalize_to_reference(self):
        normalized = normalize_to_reference({"A": 5.0, "REACT": 10.0}, "REACT")
        assert normalized == {"A": 0.5, "REACT": 1.0}
        with pytest.raises(KeyError):
            normalize_to_reference({"A": 1.0}, "REACT")

    def test_normalize_with_zero_reference(self):
        assert normalize_to_reference({"A": 1.0, "REACT": 0.0}, "REACT") == {
            "A": 0.0,
            "REACT": 0.0,
        }

    def test_aggregate_and_mean_normalized(self):
        results = [
            make_result(buffer="770 uF", work=5.0),
            make_result(buffer="REACT", work=10.0),
            make_result(trace="RF Mobile", buffer="770 uF", work=2.0),
            make_result(trace="RF Mobile", buffer="REACT", work=4.0),
        ]
        pivot = aggregate_results(results)
        assert pivot["SC"]["RF Cart"]["REACT"] == 10.0
        summary = mean_normalized_performance(results, reference="REACT")
        assert summary["SC"]["770 uF"] == pytest.approx(0.5)
        assert summary["SC"]["REACT"] == pytest.approx(1.0)
