"""Vectorized multi-system batch engine: equivalence and infrastructure.

The batch engine's contract is that every batched lane reproduces the
scalar engine's results exactly (``tests/oracle.py``), against both
step-by-step execution and the scalar engine's default fast paths.  These
tests pin that contract on the full quick-mode grid for every batched
buffer (the statics and Dewdrop), exercise lane divergence and retirement,
each kernel's lane floor and the scalar tail hand-off it triggers, the step
limit, and the per-lane fallback for unbatchable buffers.  Tests set the
floors they need through the ``lane_floors`` fixture (``conftest.py``),
which also reports the kernels a test reached.
"""

import numpy as np
import pytest

from repro.buffers.capybara import CapybaraBuffer
from repro.buffers.dewdrop import DewdropBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBatchKernel, StaticBuffer
from repro.capacitors.leakage import (
    ConstantCurrentLeakage,
    NoLeakage,
    VoltageProportionalLeakage,
    stack_proportional_leakage,
)
from repro.exceptions import SimulationError
from repro.experiments.backends import BatchBackend
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    make_workload,
)
from repro.harvester.regulator import BoostRegulator, IdealRegulator, Regulator
from repro.harvester.trace import PowerTrace
from repro.platform.mcu import MSP430FR5994
from repro.sim.batch import (
    KERNEL_BUILDERS,
    BatchSimulator,
    _LockstepRun,
    lane_floor,
)
from repro.sim.engine import Simulator
from repro.sim.system import BatterylessSystem
from repro.units import microfarads, milliamps, millifarads

from oracle import assert_results_equivalent

QUICK = ExperimentSettings(quick=True)


def static_and_dewdrop_buffers():
    """The static-kernel buffers: the paper's statics plus Dewdrop."""
    return [
        StaticBuffer(microfarads(770.0), name="770 uF"),
        StaticBuffer(millifarads(10.0), name="10 mF"),
        StaticBuffer(millifarads(17.0), name="17 mF"),
        DewdropBuffer(millifarads(10.0)),
    ]


def morphy_variant_buffers():
    """Two topology-sharing Morphy arrays (one lockstep kernel, distinct
    electricals), so every trace group packs enough Morphy lanes to batch."""
    return [
        MorphyBuffer(),
        MorphyBuffer(unit_capacitance=millifarads(1.0), name="Morphy 1 mF"),
    ]


def react_variant_buffers():
    """Two config-sharing REACT adapters (one lockstep kernel, distinct
    polling hints), so every trace group packs enough REACT lanes to batch."""
    return [
        ReactBuffer(name="REACT"),
        ReactBuffer(name="REACT 3 mA", active_current_hint=milliamps(3.0)),
    ]


def mixed_kernel_buffers():
    """Static-kernel, Morphy-kernel and REACT-kernel lanes in one grid."""
    return (
        static_and_dewdrop_buffers()
        + morphy_variant_buffers()
        + react_variant_buffers()
    )


def simulator_kwargs(settings=QUICK):
    return dict(
        dt_on=settings.effective_dt_on,
        dt_off=settings.effective_dt_off,
        max_drain_time=settings.max_drain_time,
    )


def build_system(trace, buffer, workload_name, trace_name, regulator=None):
    return BatterylessSystem.build(
        trace,
        buffer,
        make_workload(workload_name, trace_name),
        mcu=MSP430FR5994(),
        regulator=regulator,
    )


class TestBatchability:
    def test_static_and_dewdrop_are_batchable(self):
        for buffer in static_and_dewdrop_buffers():
            assert buffer.can_batch()
            assert buffer.batch_key() == "static"

    def test_morphy_and_react_are_batchable(self):
        assert MorphyBuffer().can_batch()
        assert ReactBuffer().can_batch()
        assert ReactBuffer().batch_key() is not None

    def test_react_batch_key_groups_by_config(self):
        """Config-sharing REACT lanes batch; the polling hint may differ."""
        assert (
            ReactBuffer(active_current_hint=milliamps(0.5)).batch_key()
            == ReactBuffer(active_current_hint=milliamps(3.0)).batch_key()
        )
        slow = ReactBuffer()
        slow.controller.expansion_min_interval *= 2.0
        assert slow.batch_key() != ReactBuffer().batch_key()

    def test_react_history_recording_disables_batching(self):
        buffer = ReactBuffer()
        buffer.controller.record_history = True
        assert not buffer.can_batch()
        assert ReactBatchKernel.build([buffer]) is None

    def test_capybara_stays_scalar(self):
        """Capybara is a different architecture (base + task capacitor with
        software-directed surplus steering, no bank fabric): no lockstep
        kernel claims it, so its lanes always run the scalar engine."""
        buffer = CapybaraBuffer()
        assert not buffer.can_batch()
        assert buffer.batch_key() is None
        assert lane_floor(buffer) is None
        for kernel_class in KERNEL_BUILDERS:
            assert kernel_class.build([buffer]) is None

    def test_every_kernel_declares_its_own_lane_floor(self):
        """Each kernel's floor is its own measured crossover
        (``benchmarks/crossover.py``), never one inherited from a shared
        base, and :func:`lane_floor` maps each buffer family onto it."""
        for kernel_class in KERNEL_BUILDERS:
            assert "min_lanes" in vars(kernel_class), kernel_class.__name__
            assert isinstance(kernel_class.min_lanes, int)
            assert kernel_class.min_lanes >= 1
        assert lane_floor(StaticBuffer(1e-3)) == StaticBatchKernel.min_lanes
        assert lane_floor(DewdropBuffer(1e-3)) == StaticBatchKernel.min_lanes
        assert lane_floor(MorphyBuffer()) == MorphyBatchKernel.min_lanes
        assert lane_floor(ReactBuffer()) == ReactBatchKernel.min_lanes
        unbatchable = ReactBuffer()
        unbatchable.controller.record_history = True
        assert lane_floor(unbatchable) is None

    def test_benchmark_shapes_sit_on_their_side_of_the_floors(self):
        """perfbench's static capacitance sweep (64 lanes per trace group)
        stays a lockstep workload, its adaptive sweep (5 REACT and 5 Morphy
        lanes) a scalar one, and the sweep benchmark's 128 static, 48 Morphy
        and 80 REACT lanes per trace all batch."""
        assert StaticBatchKernel.min_lanes <= 64
        assert MorphyBatchKernel.min_lanes > 5 and ReactBatchKernel.min_lanes > 5
        assert MorphyBatchKernel.min_lanes <= 48
        assert ReactBatchKernel.min_lanes <= 80

    def test_morphy_batch_key_groups_by_topology(self):
        """Same topology batches together; unit capacitance may differ."""
        assert MorphyBuffer().batch_key() == MorphyBuffer(
            unit_capacitance=millifarads(1.0)
        ).batch_key()
        assert (
            MorphyBuffer().batch_key() != MorphyBuffer(cap_count=4).batch_key()
        )

    def test_exotic_leakage_disables_batching(self):
        buffer = StaticBuffer(
            millifarads(10.0), leakage=ConstantCurrentLeakage(1e-6)
        )
        assert not buffer.can_batch()
        assert StaticBatchKernel.build([buffer]) is None
        morphy = MorphyBuffer()
        morphy.leakage = ConstantCurrentLeakage(1e-6)
        assert not morphy.can_batch()
        assert MorphyBatchKernel.build([morphy]) is None

    def test_mixed_kernel_families_do_not_share_a_kernel(self):
        assert MorphyBatchKernel.build([MorphyBuffer(), StaticBuffer(1e-3)]) is None
        assert StaticBatchKernel.build([StaticBuffer(1e-3), MorphyBuffer()]) is None
        assert (
            MorphyBatchKernel.build([MorphyBuffer(), MorphyBuffer(cap_count=4)])
            is None
        )
        assert ReactBatchKernel.build([ReactBuffer(), MorphyBuffer()]) is None
        slow = ReactBuffer()
        slow.controller.expansion_min_interval *= 2.0
        assert ReactBatchKernel.build([ReactBuffer(), slow]) is None

    def test_leakage_stacking(self):
        stacked = stack_proportional_leakage(
            [VoltageProportionalLeakage(1e-6, 6.3), NoLeakage()]
        )
        assert stacked is not None
        rated_current, rated_voltage = stacked
        assert rated_current[0] == pytest.approx(1e-6)
        assert rated_current[1] == 0.0
        assert rated_voltage[0] == pytest.approx(6.3)
        assert stack_proportional_leakage([ConstantCurrentLeakage(1e-6)]) is None


class TestVectorizedPrimitives:
    def test_trace_powers_at_matches_scalar_lookup(self):
        trace = QUICK.trace("RF Cart")
        times = np.array([0.0, 0.37, 1.0, 5.5, trace.duration - 0.01,
                          trace.duration, trace.duration + 123.4])
        batched = trace.powers_at(times)
        for t, p in zip(times, batched):
            assert p == trace.power_at(float(t))

    def test_zero_order_hold_table_matches_powers_at(self):
        trace = QUICK.trace("RF Cart")
        padded, sentinel = trace.zero_order_hold_table()
        times = np.array([0.0, 0.37, 5.5, trace.duration - 0.01,
                          trace.duration, trace.duration + 123.4])
        indices = np.minimum(
            (times / trace.sample_period).astype(np.int64), sentinel
        )
        assert list(padded[indices]) == list(trace.powers_at(times))

    @pytest.mark.parametrize("regulator", [IdealRegulator(), BoostRegulator()])
    def test_regulator_batch_matches_scalar(self, regulator):
        powers = np.array([0.0, 1e-7, 5e-7, 2e-6, 1e-4, 3e-3])
        voltages = np.array([0.0, 1.0, 1.8, 2.5, 3.3, 3.6])
        batched = regulator.delivered_power_batch(powers, voltages)
        for p, v, d in zip(powers, voltages, batched):
            assert d == regulator.delivered_power(float(p), float(v))

    def test_regulator_batch_fallback_is_exact_for_subclasses(self):
        class Halving(Regulator):
            def efficiency(self, input_power, buffer_voltage):
                return 0.5

        regulator = Halving()
        powers = np.array([0.0, 1e-3, 2e-3])
        voltages = np.zeros(3)
        batched = regulator.delivered_power_batch(powers, voltages)
        assert list(batched) == [0.0, 0.5e-3, 1e-3]


class TestBatchSimulatorEquivalence:
    def test_bitwise_equal_to_step_by_step_engine(self, lane_floors):
        """Pure lockstep execution replays the scalar recurrence bit-for-bit."""
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        lanes = [
            ("770 uF", microfarads(770.0), "DE"), ("10 mF", millifarads(10.0), "SC")
        ]

        def systems():
            return [
                build_system(trace, StaticBuffer(c, name=n), w, "RF Cart")
                for n, c, w in lanes
            ]

        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in systems()
        ]
        batched = BatchSimulator(
            systems(), **simulator_kwargs()
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_lane_divergence_and_retirement(self, lane_floors):
        """Lanes with wildly different lifetimes retire independently."""
        lane_floors(1)
        trace = QUICK.trace("RF Obstruction")
        sizes = [
            ("tiny", microfarads(200.0)),
            ("small", microfarads(770.0)),
            ("large", millifarads(17.0)),
            ("never-starts", millifarads(300.0)),
        ]

        def systems():
            return [
                build_system(trace, StaticBuffer(c, name=n), "SC", "RF Obstruction")
                for n, c in sizes
            ]

        reference = [
            Simulator(system, **simulator_kwargs()).run() for system in systems()
        ]
        batched = BatchSimulator(
            systems(), **simulator_kwargs()
        ).run()
        assert reference[-1].latency is None  # the oversized lane never enables
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_scalar_tail_handoff_changes_nothing(self, lane_floors):
        trace = QUICK.trace("RF Cart")

        def systems():
            return [
                build_system(
                    trace, buffer, workload, "RF Cart"
                )
                for workload in ("DE", "SC")
                for buffer in static_and_dewdrop_buffers()
            ]

        lane_floors(1)
        pure = BatchSimulator(systems(), **simulator_kwargs()).run()
        lane_floors(5)
        with_tail = BatchSimulator(systems(), **simulator_kwargs()).run()
        assert lane_floors.entered() == {"StaticBatchKernel": 2}
        for ref, got in zip(pure, with_tail):
            assert_results_equivalent(ref, got)

    def test_tail_hands_off_once_live_lanes_drop_below_the_floor(
        self, lane_floors, monkeypatch
    ):
        """The kernel's floor decides both ends of the lockstep run: a batch
        narrower than the floor starts on the scalar engine, and a wider one
        runs lockstep until retirement leaves fewer live lanes than the
        floor, when the survivors finish on the scalar engine."""
        trace = QUICK.trace("RF Cart")

        def systems():
            return [
                build_system(trace, buffer, workload, "RF Cart")
                for workload in ("DE", "SC")
                for buffer in static_and_dewdrop_buffers()
            ]

        hand_offs = []  # (lockstep iterations run, live lanes) per hand-off
        hand_off_all = _LockstepRun.hand_off_all

        def recording_hand_off_all(run):
            hand_offs.append((run.iterations, len(run.lanes.time)))
            hand_off_all(run)

        monkeypatch.setattr(_LockstepRun, "hand_off_all", recording_hand_off_all)
        reference = [
            Simulator(system, **simulator_kwargs()).run() for system in systems()
        ]

        lane_floors(static=6)
        tail = BatchSimulator(systems(), **simulator_kwargs()).run()
        assert lane_floors.entered() == {"StaticBatchKernel": 1}
        [(iterations, live)] = hand_offs
        assert iterations > 0 and 1 <= live < 6

        hand_offs.clear()
        lane_floors(static=9)  # one more than the eight lanes
        narrow = BatchSimulator(systems(), **simulator_kwargs()).run()
        assert hand_offs == [(0, 8)]
        assert lane_floors.entered() == {"StaticBatchKernel": 1}  # unchanged
        for ref, with_tail, scalar in zip(reference, tail, narrow):
            assert_results_equivalent(ref, with_tail)
            assert_results_equivalent(ref, scalar)

    def test_fast_forward_false_threads_through_to_the_tail(self, lane_floors):
        """A step-by-step ablation is bit-exact end to end.

        The lockstep loop is always step-by-step arithmetic; with
        ``fast_forward=False`` the scalar tail hand-off is too, so every
        lane — including ledgers — must equal the step-by-step scalar
        engine bitwise even with the tail hand-off active.
        """
        lane_floors(5)
        trace = QUICK.trace("RF Cart")

        def systems():
            return [
                build_system(trace, buffer, workload, "RF Cart")
                for workload in ("DE", "SC")
                for buffer in static_and_dewdrop_buffers()
            ]

        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in systems()
        ]
        batched = BatchSimulator(
            systems(), fast_forward=False, **simulator_kwargs()
        ).run()
        assert lane_floors.entered() == {"StaticBatchKernel": 1}
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_single_lane_batch_delegates_to_scalar_engine(self):
        trace = QUICK.trace("RF Cart")
        reference = Simulator(
            build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart"),
            **simulator_kwargs(),
        ).run()
        batched = BatchSimulator(
            [build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")],
            **simulator_kwargs(),
        ).run()
        assert len(batched) == 1
        assert_results_equivalent(reference, batched[0])

    def test_precharged_lanes_enable_on_the_first_step(self, lane_floors):
        """A lane starting at the enable threshold matches scalar exactly.

        Exercises the zero-harvest enable-prediction path: with no power in
        the first trace sample, the voltage bound degenerates to the present
        voltage and the enabling step must still resolve at ``dt_on``.
        """
        lane_floors(1)
        trace = PowerTrace(
            np.concatenate([np.zeros(5), np.full(10, 2e-3)]),
            sample_period=1.0,
            name="dark-start",
        )

        def systems():
            built = []
            for voltage in (3.5, 2.0):
                buffer = StaticBuffer(millifarads(10.0), name=f"{voltage} V")
                buffer._capacitor.set_voltage(voltage)
                built.append(build_system(trace, buffer, "DE", "RF Cart"))
            return built

        reference = [
            Simulator(
                system, dt_on=0.02, dt_off=0.1, max_drain_time=20.0
            ).run()
            for system in systems()
        ]
        batched = BatchSimulator(
            systems(), dt_on=0.02, dt_off=0.1, max_drain_time=20.0
        ).run()
        assert reference[0].latency == pytest.approx(0.02)
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_boost_regulator_lanes_match_scalar(self, lane_floors):
        lane_floors(1)
        trace = QUICK.trace("RF Mobile")

        def systems():
            return [
                build_system(
                    trace,
                    StaticBuffer(millifarads(c)),
                    "DE",
                    "RF Mobile",
                    regulator=BoostRegulator(),
                )
                for c in (1.0, 10.0)
            ]

        reference = [
            Simulator(system, **simulator_kwargs()).run() for system in systems()
        ]
        batched = BatchSimulator(
            systems(), **simulator_kwargs()
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_raw_energy_counted_even_when_nothing_is_delivered(self, lane_floors):
        """The frontend's raw ledger must not depend on delivered power.

        A boost regulator delivers nothing below its quiescent power, but
        the raw harvested energy still exists and the scalar frontend
        counts it; batched lanes must agree exactly.
        """
        lane_floors(1)
        quiescent = BoostRegulator().quiescent_power
        trace = PowerTrace(
            np.full(30, quiescent * 0.5), sample_period=1.0, name="sub-quiescent"
        )

        def systems():
            return [
                build_system(
                    trace,
                    StaticBuffer(millifarads(c)),
                    "DE",
                    "RF Cart",
                    regulator=BoostRegulator(),
                )
                for c in (1.0, 10.0)
            ]

        scalar_systems = systems()
        for system in scalar_systems:
            Simulator(
                system, dt_on=0.02, dt_off=0.1, max_drain_time=5.0,
                fast_forward=False,
            ).run()
        batch_systems = systems()
        BatchSimulator(
            batch_systems, dt_on=0.02, dt_off=0.1, max_drain_time=5.0
        ).run()
        for ref, got in zip(scalar_systems, batch_systems):
            assert ref.frontend.raw_energy_offered > 0.0
            assert got.frontend.raw_energy_offered == ref.frontend.raw_energy_offered
            assert got.frontend.energy_delivered == ref.frontend.energy_delivered

    def test_mid_segment_retirement_mixed_lanes_bit_exact(self, lane_floors):
        """Lanes leaving mid-segment don't disturb fast-forwarding peers.

        A mixed batch — quiescent lanes deep inside skippable hint windows
        or off-phase charge segments alongside lanes that brown out,
        drain, and retire partway through those same trace segments —
        exercises the masked normal step (a fast-forwarded majority, a
        stepping minority) and retirement compaction while other lanes'
        skip windows are still pending.  Everything must stay bit-exact
        against the step-by-step scalar engine, ledgers included.
        """
        lane_floors(1)
        trace = QUICK.trace("RF Obstruction")
        lanes = [
            ("tiny", microfarads(200.0), "SC"),
            ("small", microfarads(770.0), "DE"),
            ("mid", millifarads(10.0), "SC"),
            ("large", millifarads(17.0), "DE"),
            ("never-starts", millifarads(300.0), "SC"),
        ]

        def systems():
            return [
                build_system(
                    trace, StaticBuffer(c, name=n), w, "RF Obstruction"
                )
                for n, c, w in lanes
            ]

        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in systems()
        ]
        batched = BatchSimulator(
            systems(), **simulator_kwargs()
        ).run()
        # The mix actually diverges: brownouts on the small lanes, none of
        # the oversized lane ever starting.
        assert any(r.brownout_count > 0 for r in reference)
        assert reference[-1].latency is None
        retire_times = {r.simulated_time for r in reference}
        assert len(retire_times) > 1  # lanes retire at different timestamps
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_retirement_inside_skipped_segment_with_and_without_ff(self, lane_floors):
        """Fast-forwarding must not shift when a lane retires.

        The same mixed batch with fast-forwarding disabled pins the
        retirement schedule; the default (fast-forwarding) batch must
        reproduce it lane for lane — a lane's drain termination or hard
        stop may not slip past a segment its neighbours skipped.
        """
        lane_floors(1)
        trace = QUICK.trace("Solar Campus")
        sizes = [microfarads(330.0), microfarads(770.0), millifarads(10.0)]

        def systems():
            return [
                build_system(
                    trace, StaticBuffer(c), w, "Solar Campus"
                )
                for w in ("DE", "SC")
                for c in sizes
            ]

        stepped = BatchSimulator(
            systems(), fast_forward=False, **simulator_kwargs()
        ).run()
        fast = BatchSimulator(
            systems(), **simulator_kwargs()
        ).run()
        for ref, got in zip(stepped, fast):
            assert_results_equivalent(ref, got)


class TestMorphyBatchEquivalence:
    """The Morphy lockstep kernel against the scalar engine.

    Same discipline as the static lanes: exact against both step-by-step
    execution and the scalar default fast path (counters, timestamps, *and*
    ledgers).  The lanes mix workloads and unit
    capacitances so configuration levels, poll schedules, and gate states
    all diverge across the batch.
    """

    def systems(self, trace, workloads=("DE", "SC")):
        return [
            build_system(trace, buffer, workload, trace.name)
            for workload in workloads
            for buffer in morphy_variant_buffers()
        ]

    def test_bitwise_equal_to_step_by_step_engine(self, lane_floors):
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in self.systems(trace)
        ]
        batched = BatchSimulator(
            self.systems(trace), **simulator_kwargs()
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_reconfiguration_heavy_lanes_match_bitwise(self, lane_floors):
        """Solar lanes drive the 10 Hz controller through many level changes."""
        lane_floors(1)
        trace = QUICK.trace("Solar Campus")
        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in self.systems(trace, workloads=("SC", "RT"))
        ]
        batched = BatchSimulator(
            self.systems(trace, workloads=("SC", "RT")),
            **simulator_kwargs(),
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_reconfiguration_counts_write_back(self, lane_floors):
        """The kernel's per-lane reconfiguration tally lands on the buffers."""
        lane_floors(1)
        trace = QUICK.trace("Solar Campus")
        scalar_systems = self.systems(trace, workloads=("SC",))
        for system in scalar_systems:
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
        batch_systems = self.systems(trace, workloads=("SC",))
        BatchSimulator(
            batch_systems, **simulator_kwargs()
        ).run()
        assert any(s.buffer.reconfiguration_count > 0 for s in scalar_systems)
        for ref, got in zip(scalar_systems, batch_systems):
            assert got.buffer.reconfiguration_count == ref.buffer.reconfiguration_count
            assert got.buffer.level == ref.buffer.level
            assert got.buffer._voltages == ref.buffer._voltages
            assert got.buffer._next_poll_time == ref.buffer._next_poll_time

    def test_scalar_tail_handoff_changes_nothing(self, lane_floors):
        trace = QUICK.trace("RF Cart")
        lane_floors(1)
        pure = BatchSimulator(self.systems(trace), **simulator_kwargs()).run()
        lane_floors(4)
        with_tail = BatchSimulator(self.systems(trace), **simulator_kwargs()).run()
        assert sum(lane_floors.entered().values()) == 2
        for ref, got in zip(pure, with_tail):
            assert_results_equivalent(ref, got)


class TestReactBatchEquivalence:
    """The REACT lockstep kernel against the scalar engine.

    Same discipline as the static and Morphy lanes: exact against both
    step-by-step execution and the scalar default fast path (counters,
    timestamps, *and* ledgers).  The lanes mix workloads
    and polling hints so poll schedules, bank states, and power-gate
    phases all diverge across the batch.
    """

    def systems(self, trace, workloads=("DE", "SC")):
        return [
            build_system(trace, buffer, workload, trace.name)
            for workload in workloads
            for buffer in react_variant_buffers()
        ]

    def test_bitwise_equal_to_step_by_step_engine(self, lane_floors):
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in self.systems(trace)
        ]
        batched = BatchSimulator(
            self.systems(trace), fast_forward=False,
            **simulator_kwargs(),
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_fast_forward_matches_scalar_fast_path(self, lane_floors):
        lane_floors(1)
        trace = QUICK.trace("RF Cart")
        reference = [
            Simulator(system, **simulator_kwargs()).run()
            for system in self.systems(trace)
        ]
        batched = BatchSimulator(
            self.systems(trace), **simulator_kwargs()
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_reconfiguration_heavy_lanes_match_bitwise(self, lane_floors):
        """Solar lanes drive the 10 Hz controller through many bank steps."""
        lane_floors(1)
        trace = QUICK.trace("Solar Campus")
        reference = [
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
            for system in self.systems(trace, workloads=("SC", "RT"))
        ]
        batched = BatchSimulator(
            self.systems(trace, workloads=("SC", "RT")),
            fast_forward=False,
            **simulator_kwargs(),
        ).run()
        for ref, got in zip(reference, batched):
            assert_results_equivalent(ref, got)

    def test_controller_and_fabric_state_write_back(self, lane_floors):
        """Finalized lanes land every counter on the live objects exactly:
        controller tallies, bank states and cell voltages, switch-pole
        actuation counts and energies, and the hardware loss counters."""
        lane_floors(1)
        trace = QUICK.trace("Solar Campus")
        scalar_systems = self.systems(trace, workloads=("SC",))
        for system in scalar_systems:
            Simulator(system, fast_forward=False, **simulator_kwargs()).run()
        batch_systems = self.systems(trace, workloads=("SC",))
        BatchSimulator(
            batch_systems, fast_forward=False,
            **simulator_kwargs(),
        ).run()
        assert any(
            s.buffer.controller.step_up_count > 0 for s in scalar_systems
        )
        for ref, got in zip(scalar_systems, batch_systems):
            ref_buffer, got_buffer = ref.buffer, got.buffer
            assert (
                got_buffer.controller.poll_count
                == ref_buffer.controller.poll_count
            )
            assert (
                got_buffer.controller.step_up_count
                == ref_buffer.controller.step_up_count
            )
            assert (
                got_buffer.controller.step_down_count
                == ref_buffer.controller.step_down_count
            )
            assert (
                got_buffer.controller._next_poll_time
                == ref_buffer.controller._next_poll_time
            )
            assert (
                got_buffer.hardware.monitor.last_signal
                is ref_buffer.hardware.monitor.last_signal
            )
            assert (
                got_buffer.hardware.energy_leaked
                == ref_buffer.hardware.energy_leaked
            )
            assert (
                got_buffer.hardware.transfer_loss
                == ref_buffer.hardware.transfer_loss
            )
            for ref_bank, got_bank in zip(
                ref_buffer.hardware.banks, got_buffer.hardware.banks
            ):
                assert got_bank.state is ref_bank.state
                assert got_bank.cell_voltage == ref_bank.cell_voltage
                assert (
                    got_bank.reconfiguration_count
                    == ref_bank.reconfiguration_count
                )
                for ref_pole, got_pole in (
                    (ref_bank.switch.pole_a, got_bank.switch.pole_a),
                    (ref_bank.switch.pole_b, got_bank.switch.pole_b),
                ):
                    assert got_pole.state is ref_pole.state
                    assert got_pole.actuation_count == ref_pole.actuation_count
                    assert got_pole.energy_spent == ref_pole.energy_spent

    def test_scalar_tail_handoff_changes_nothing(self, lane_floors):
        trace = QUICK.trace("RF Cart")
        lane_floors(1)
        pure = BatchSimulator(self.systems(trace), **simulator_kwargs()).run()
        lane_floors(4)
        with_tail = BatchSimulator(self.systems(trace), **simulator_kwargs()).run()
        assert sum(lane_floors.entered().values()) == 2
        for ref, got in zip(pure, with_tail):
            assert_results_equivalent(ref, got)


class TestBatchSimulatorValidation:
    def test_rejects_unbatchable_buffers(self):
        trace = QUICK.trace("RF Cart")
        with pytest.raises(SimulationError, match="batched kernel"):
            BatchSimulator(
                [build_system(trace, CapybaraBuffer(), "DE", "RF Cart")]
            )

    def test_rejects_mixed_kernel_families(self):
        trace = QUICK.trace("RF Cart")
        systems = [
            build_system(trace, MorphyBuffer(), "DE", "RF Cart"),
            build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart"),
        ]
        with pytest.raises(SimulationError, match="incompatible kernels"):
            BatchSimulator(systems)

    def test_rejects_mixed_traces(self):
        lane_a = build_system(
            QUICK.trace("RF Cart"), StaticBuffer(millifarads(10.0)), "DE", "RF Cart"
        )
        lane_b = build_system(
            QUICK.trace("Solar Commute"),
            StaticBuffer(millifarads(10.0)),
            "DE",
            "Solar Commute",
        )
        with pytest.raises(SimulationError, match="share one power trace"):
            BatchSimulator([lane_a, lane_b])

    def test_rejects_mixed_regulators(self):
        trace = QUICK.trace("RF Cart")
        lane_a = build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")
        lane_b = build_system(
            trace,
            StaticBuffer(millifarads(10.0)),
            "DE",
            "RF Cart",
            regulator=BoostRegulator(),
        )
        with pytest.raises(SimulationError, match="share one regulator"):
            BatchSimulator([lane_a, lane_b])

    def test_rejects_empty_batch_and_bad_steps(self):
        trace = QUICK.trace("RF Cart")
        system = build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")
        with pytest.raises(SimulationError):
            BatchSimulator([])
        with pytest.raises(SimulationError):
            BatchSimulator([system], dt_on=0.1, dt_off=0.05)
        with pytest.raises(SimulationError):
            BatchSimulator([system], max_drain_time=-1.0)

    @pytest.mark.parametrize("floor", [1, 3], ids=["lockstep", "scalar-tail"])
    def test_max_steps_guard(self, floor, lane_floors):
        """The step limit holds in the lockstep loop and, for a batch narrow
        enough to hand off, in the scalar tail."""
        lane_floors(floor)
        trace = QUICK.trace("RF Cart")
        systems = [
            build_system(trace, StaticBuffer(millifarads(10.0)), workload, "RF Cart")
            for workload in ("DE", "SC")
        ]
        simulator = BatchSimulator(systems, max_steps=10, **simulator_kwargs())
        with pytest.raises(SimulationError, match="exceeded"):
            simulator.run()

    def test_shared_trace_accepted_by_value(self):
        """Equal traces from different objects batch together."""
        trace_a = QUICK.trace("RF Cart")
        trace_b = QUICK.trace("RF Cart")
        systems = [
            build_system(trace_a, StaticBuffer(millifarads(10.0)), "DE", "RF Cart"),
            build_system(trace_b, StaticBuffer(millifarads(10.0)), "SC", "RF Cart"),
        ]
        assert len(BatchSimulator(systems, **simulator_kwargs()).run()) == 2

    def test_from_settings_threads_fidelity_and_overrides(self):
        trace = QUICK.trace("RF Cart")
        systems = [
            build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")
        ]
        simulator = BatchSimulator.from_settings(systems, QUICK, fast_forward=False)
        assert simulator.dt_on == QUICK.effective_dt_on
        assert simulator.dt_off == QUICK.effective_dt_off
        assert simulator.max_drain_time == QUICK.max_drain_time
        assert simulator.fast_forward is False


class TestFullGridEquivalence:
    """The acceptance gate: batched == scalar on the full quick-mode grid."""

    def test_full_quick_grid_static_and_dewdrop(self, lane_floors):
        """Sixteen static-kernel lanes per trace, exactly at their floor."""
        lane_floors(static=16)
        serial = ExperimentRunner(
            QUICK, buffer_factory=static_and_dewdrop_buffers
        ).run_grid()
        batched = ExperimentRunner(
            QUICK, buffer_factory=static_and_dewdrop_buffers, backend=BatchBackend()
        ).run_grid()
        assert len(serial) == len(batched) == 4 * 5 * 4  # workloads×traces×buffers
        assert lane_floors.entered() == {"StaticBatchKernel": 5}  # one per trace
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)

    def test_full_quick_grid_morphy(self, lane_floors):
        """The Morphy acceptance gate: batched == scalar on the full quick grid.

        Every workload × trace cell with two Morphy lanes each, so each
        trace group packs eight Morphy lanes, exactly at their floor, into
        one lockstep kernel.
        """
        lane_floors(morphy=8)
        serial = ExperimentRunner(
            QUICK, buffer_factory=morphy_variant_buffers
        ).run_grid()
        batched = ExperimentRunner(
            QUICK, buffer_factory=morphy_variant_buffers, backend=BatchBackend()
        ).run_grid()
        assert len(serial) == len(batched) == 4 * 5 * 2  # workloads×traces×buffers
        assert lane_floors.entered() == {"MorphyBatchKernel": 5}  # one per trace
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)

    def test_full_quick_grid_react(self, lane_floors):
        """The REACT acceptance gate: batched == scalar on the full quick grid.

        Every workload × trace cell with two config-sharing REACT lanes, so
        each trace group packs eight REACT lanes, exactly at their floor,
        into one lockstep kernel.
        """
        lane_floors(react=8)
        serial = ExperimentRunner(
            QUICK, buffer_factory=react_variant_buffers
        ).run_grid()
        batched = ExperimentRunner(
            QUICK, buffer_factory=react_variant_buffers, backend=BatchBackend()
        ).run_grid()
        assert len(serial) == len(batched) == 4 * 5 * 2  # workloads×traces×buffers
        assert lane_floors.entered() == {"ReactBatchKernel": 5}  # one per trace
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)

    def test_mixed_kernel_grid_batches_every_family(self, lane_floors):
        """Static, Morphy and REACT lanes of one trace batch in separate
        kernels (sixteen static, eight Morphy and eight REACT lanes)."""
        lane_floors(8)
        serial = ExperimentRunner(
            QUICK, buffer_factory=mixed_kernel_buffers
        ).run_grid(trace_names=("RF Cart",))
        batched = ExperimentRunner(
            QUICK, buffer_factory=mixed_kernel_buffers, backend=BatchBackend()
        ).run_grid(trace_names=("RF Cart",))
        assert len(serial) == len(batched) == 4 * 8
        assert lane_floors.entered() == {
            "StaticBatchKernel": 1,
            "MorphyBatchKernel": 1,
            "ReactBatchKernel": 1,
        }
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)

    def test_mixed_grid_falls_back_per_lane(self):
        """Capybara cells (and narrow kernel groups) run scalar, in serial order."""
        serial = ExperimentRunner(QUICK).run_grid(
            workloads=("SC",), trace_names=("RF Cart",)
        )
        seen = []
        batched = ExperimentRunner(QUICK, backend=BatchBackend()).run_grid(
            workloads=("SC",),
            trace_names=("RF Cart",),
            progress=lambda r: seen.append(r.buffer_name),
        )
        assert [r.buffer_name for r in batched] == [r.buffer_name for r in serial]
        assert seen == [r.buffer_name for r in batched]
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)

    def test_min_lanes_routes_everything_scalar(self, lane_floors):
        """Groups below their kernels' floors never build a kernel."""
        lane_floors(100)
        serial = ExperimentRunner(QUICK).run_grid(
            workloads=("DE",), trace_names=("RF Cart",)
        )
        batched = ExperimentRunner(QUICK, backend=BatchBackend()).run_grid(
            workloads=("DE",), trace_names=("RF Cart",)
        )
        assert not lane_floors.built()
        for ref, got in zip(serial, batched):
            assert_results_equivalent(ref, got)


class TestMidFlightScalarResume:
    """The engine hooks the tail hand-off relies on."""

    def test_start_time_resumes_accounting(self):
        trace = PowerTrace(np.full(20, 5e-3), sample_period=1.0, name="const")
        system = build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")
        result = Simulator(
            system, dt_on=0.02, dt_off=0.1, max_drain_time=5.0, start_time=18.0,
            initial_latency=3.21,
        ).run()
        assert result.latency == pytest.approx(3.21)
        assert result.simulated_time >= 18.0

    def test_negative_start_time_rejected(self):
        trace = PowerTrace([1e-3], sample_period=1.0)
        system = build_system(trace, StaticBuffer(millifarads(10.0)), "DE", "RF Cart")
        with pytest.raises(SimulationError):
            Simulator(system, start_time=-1.0)
