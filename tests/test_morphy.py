"""Morphy switched-capacitor buffer: configurations, physics, and policy."""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.base import EnergyBuffer
from repro.buffers.morphy import (
    MorphyBuffer,
    MorphyConfiguration,
    MorphyConfigurationTable,
)
from repro.capacitors.leakage import NoLeakage, VoltageProportionalLeakage
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.system import BatterylessSystem
from repro.units import millifarads
from repro.workloads.data_encryption import DataEncryption
from repro.workloads.sense_compute import SenseAndCompute

from oracle import assert_results_equivalent


class TestConfigurationTable:
    def test_default_table_has_eleven_configurations(self):
        table = MorphyConfigurationTable()
        assert table.max_level + 1 == 11

    def test_default_range_matches_paper(self):
        low, high = MorphyConfigurationTable().capacitance_range
        assert low == pytest.approx(250e-6, rel=1e-6)
        assert high == pytest.approx(16e-3, rel=1e-6)

    def test_levels_are_monotonically_increasing(self):
        levels = MorphyConfigurationTable().levels()
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_generic_fallback_for_other_sizes(self):
        table = MorphyConfigurationTable(cap_count=4, unit_capacitance=millifarads(1.0))
        assert table.equivalent_capacitance(0) == pytest.approx(0.25e-3)
        assert table.equivalent_capacitance(table.max_level) == pytest.approx(
            1e-3 / 1 + 3e-3
        )

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            MorphyConfiguration(groups=())
        with pytest.raises(ConfigurationError):
            MorphyConfiguration(groups=(0,))
        with pytest.raises(ConfigurationError):
            MorphyConfigurationTable(cap_count=1)
        with pytest.raises(ConfigurationError):
            MorphyConfigurationTable(
                cap_count=2, configurations=(MorphyConfiguration(groups=(3,)),)
            )

    def test_level_bounds_checked(self):
        table = MorphyConfigurationTable()
        with pytest.raises(ConfigurationError):
            table.configuration(99)


class TestReconfigurationPhysics:
    def test_paper_eight_capacitor_loss(self):
        """Leaving full parallel for 7-series + 1-across dissipates 56.25 %."""
        configurations = (
            MorphyConfiguration(groups=(1,) * 7, across=1),
            MorphyConfiguration(groups=(8,)),
        )
        buffer = MorphyBuffer(
            configurations=configurations,
            max_voltage=50.0,
            high_threshold=45.0,
            low_threshold=0.5,
            brownout_voltage=0.4,
        )
        buffer.set_state(1, [1.0] * 8)
        before = buffer.stored_energy
        dissipated = buffer.reconfigure(0)
        assert dissipated / before == pytest.approx(0.5625)

    def test_reconfiguration_leaves_across_caps_at_output_voltage(self):
        """After equalization every across capacitor sits at the output voltage."""
        buffer = MorphyBuffer()
        buffer.set_state(3, [0.7, 0.7, 0.9, 0.9, 1.1, 1.1, 1.3, 1.3])
        buffer.reconfigure(5)  # a configuration with capacitors across the output
        config = buffer.configuration
        groups, across, _ = buffer._membership(config)
        output = buffer.output_voltage
        assert across, "target configuration should place capacitors across the output"
        for index in across:
            assert buffer._voltages[index] == pytest.approx(output, rel=1e-9)

    def test_homogeneous_regrouping_of_equal_voltages_is_lossless(self):
        """Regrouping equal-voltage capacitors into equal groups moves no charge."""
        buffer = MorphyBuffer()
        buffer.set_state(0, [1.0] * 8)
        dissipated = buffer.reconfigure(3)  # (1x8) -> (2,2,2,2), all cells equal
        assert dissipated == pytest.approx(0.0, abs=1e-15)

    def test_reconfiguration_never_creates_energy(self):
        buffer = MorphyBuffer()
        buffer.set_state(2, [0.5, 1.0, 1.5, 2.0, 0.4, 0.8, 1.2, 1.6])
        before = buffer.stored_energy
        buffer.reconfigure(5)
        assert buffer.stored_energy <= before + 1e-12

    def test_same_level_reconfiguration_is_free(self):
        buffer = MorphyBuffer()
        buffer.set_state(2, [1.0] * 8)
        assert buffer.reconfigure(2) == 0.0

    def test_set_state_validation(self):
        buffer = MorphyBuffer()
        with pytest.raises(ConfigurationError):
            buffer.set_state(99, [1.0] * 8)
        with pytest.raises(ConfigurationError):
            buffer.set_state(0, [1.0] * 3)
        with pytest.raises(ConfigurationError):
            buffer.set_state(0, [-1.0] * 8)

    @given(
        level_from=st.integers(0, 10),
        level_to=st.integers(0, 10),
        voltage=st.floats(0.1, 3.5),
    )
    def test_arbitrary_reconfigurations_are_dissipative_only(
        self, level_from, level_to, voltage
    ):
        buffer = MorphyBuffer()
        buffer.set_state(level_from, [voltage] * 8)
        before = buffer.stored_energy
        buffer.reconfigure(level_to)
        assert buffer.stored_energy <= before + 1e-12
        assert all(v >= 0.0 for v in buffer._voltages)


class TestEnergyFlow:
    def test_harvest_raises_output_voltage(self):
        buffer = MorphyBuffer()
        buffer.harvest(1e-3, dt=1.0)
        assert buffer.output_voltage > 0.0

    def test_network_efficiency_charged_on_both_directions(self):
        buffer = MorphyBuffer(network_efficiency=0.9)
        buffer.harvest(1e-3, dt=1.0)
        assert buffer.ledger.stored == pytest.approx(0.9e-3, rel=1e-6)
        delivered = buffer.draw(current=1e-3, dt=1.0)
        assert buffer.ledger.switching_loss > 0.0
        assert delivered < buffer.ledger.stored

    def test_overvoltage_clipping(self):
        buffer = MorphyBuffer()
        buffer.harvest(10.0, dt=1.0)
        assert buffer.output_voltage <= buffer.max_voltage + 1e-9
        assert buffer.ledger.clipped > 0.0

    def test_policy_expands_on_high_voltage(self):
        buffer = MorphyBuffer()
        buffer.set_state(0, [3.55 / 8.0] * 8)  # output at 3.55 V, above the threshold
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == 1
        assert buffer.reconfiguration_count == 1

    def test_policy_steps_down_on_low_voltage(self):
        buffer = MorphyBuffer()
        buffer.set_state(2, [0.3] * 8)
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == 1

    def test_harvest_ledger_identity(self):
        """offered == stored + clipped + switching_loss, the statics' convention."""
        for energy in (1e-3, 10.0):  # below headroom, and heavily clipped
            buffer = MorphyBuffer(network_efficiency=0.95)
            buffer.harvest(energy, dt=1.0)
            ledger = buffer.ledger
            assert ledger.offered == pytest.approx(
                ledger.stored + ledger.clipped + ledger.switching_loss,
                rel=1e-12,
            )

    def test_clipped_energy_pays_no_conduction_loss(self):
        """Only energy that crosses the fabric is charged the network loss.

        The seed charged ``(1 - efficiency)`` of the *whole* input before
        clipping, so a full array burned conduction loss on energy that
        never entered the network; now switching loss is exactly the
        fabric's share of the stored energy.
        """
        buffer = MorphyBuffer(network_efficiency=0.95)
        buffer.harvest(10.0, dt=1.0)  # far beyond headroom: mostly clipped
        ledger = buffer.ledger
        assert ledger.clipped > 0.0
        crossing = ledger.stored / buffer.network_efficiency
        assert ledger.switching_loss == pytest.approx(
            crossing - ledger.stored, rel=1e-12
        )
        assert ledger.switching_loss < 10.0 * 0.05  # the seed's figure

    def test_lossless_network_matches_static_accounting(self):
        buffer = MorphyBuffer(network_efficiency=1.0)
        buffer.harvest(10.0, dt=1.0)
        ledger = buffer.ledger
        assert ledger.switching_loss == 0.0
        assert ledger.clipped == pytest.approx(10.0 - ledger.stored, rel=1e-12)

    def test_longevity_supported(self):
        buffer = MorphyBuffer()
        assert buffer.supports_longevity
        buffer.request_longevity(1e-3)
        assert not buffer.longevity_satisfied()

    def test_can_reach_voltage_accounts_for_reconfiguration(self):
        buffer = MorphyBuffer()
        buffer.set_state(buffer.table.max_level, [1.0] * 8)
        # At 16 mF the output is only 1 V, but concentrating the same energy
        # on 250 uF would exceed the enable voltage.
        assert buffer.output_voltage < 3.3
        assert buffer.can_reach_voltage(3.3)

    def test_reset(self):
        buffer = MorphyBuffer()
        buffer.harvest(1e-3, dt=1.0)
        buffer.reset()
        assert buffer.stored_energy == 0.0
        assert buffer.level == 0


class TestControllerPolicy:
    """The 10 Hz poll: hysteresis band, single-step moves, and scheduling."""

    def test_no_reconfiguration_inside_the_threshold_band(self):
        buffer = MorphyBuffer()  # thresholds 1.9 / 3.5
        # Level 2 chains six parallel groups, so equal cells at 2.5/6 V
        # put the output at ~2.5 V — inside the hysteresis band.
        buffer.set_state(2, [2.5 / 6.0] * 8)
        assert 1.9 < buffer.output_voltage < 3.5
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == 2
        assert buffer.reconfiguration_count == 0

    def test_one_level_per_poll_even_far_beyond_threshold(self):
        buffer = MorphyBuffer()
        buffer.set_state(0, [3.55 / 8.0] * 8)  # far above high on the smallest C
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == 1
        # A second call before the next poll period must not poll again.
        buffer.set_state(1, [3.55 / 8.0] * 8)
        buffer.housekeeping(time=0.05, dt=0.05, system_on=False)
        assert buffer.level == 1
        assert buffer.reconfiguration_count == 1

    def test_clamped_at_level_zero_and_max(self):
        buffer = MorphyBuffer()
        buffer.set_state(0, [0.1] * 8)  # below the low threshold, already at 0
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == 0
        assert buffer.reconfiguration_count == 0

        buffer = MorphyBuffer()
        top = buffer.table.max_level
        buffer.set_state(top, [3.55] * 8)  # above the high threshold at max C
        buffer.housekeeping(time=0.0, dt=0.1, system_on=False)
        assert buffer.level == top
        assert buffer.reconfiguration_count == 0

    def test_poll_times_snap_to_the_poll_period_grid(self):
        """Regression for the drift bug: intervals must not stretch by the
        step overshoot.  Stepping a 10 Hz controller with dt = 70 ms over
        ~1 s must poll once per 100 ms grid window that a step lands in
        (10 polls), not once per ~140 ms drifted interval (8 polls), and
        the schedule must always sit on an exact grid multiple.
        """
        buffer = MorphyBuffer(poll_rate_hz=10.0)
        polls = 0
        time = 0.0
        for _ in range(15):  # t = 0.0, 0.07, ..., 0.98
            before = buffer._next_poll_time
            buffer.housekeeping(time=time, dt=0.07, system_on=False)
            if buffer._next_poll_time != before:
                polls += 1
                ticks = buffer._next_poll_time / buffer.poll_period
                assert ticks == pytest.approx(round(ticks), abs=1e-9), (
                    "poll schedule left the 10 Hz grid"
                )
                assert buffer._next_poll_time > time
            time += 0.07
        assert polls == 10

    def test_poll_schedule_advances_past_fp_grid_points(self):
        """A step landing exactly on a grid point must not re-poll next step.

        4.3 / 0.1 floors to 42 in floating point, so the naive snap computes
        43 * 0.1 == 4.3 == time and the same 100 ms window polls twice.
        """
        buffer = MorphyBuffer(poll_rate_hz=10.0)
        buffer._next_poll_time = 4.3
        buffer.set_state(0, [3.55 / 8.0] * 8)  # above the high threshold
        buffer.housekeeping(time=4.3, dt=0.05, system_on=False)
        assert buffer._next_poll_time > 4.3
        assert buffer.reconfiguration_count == 1
        buffer.set_state(1, [3.55 / 8.0] * 8)  # still above: tempt a re-poll
        buffer.housekeeping(time=4.35, dt=0.05, system_on=False)
        assert buffer.reconfiguration_count == 1  # one level per poll period

    def test_poll_schedule_is_dt_independent(self):
        """Two different step sizes see polls at the same grid points."""

        def grid_points(dt, horizon=1.0):
            buffer = MorphyBuffer(poll_rate_hz=10.0)
            seen = []
            time = 0.0
            while time < horizon:
                before = buffer._next_poll_time
                buffer.housekeeping(time=time, dt=dt, system_on=False)
                if buffer._next_poll_time != before:
                    # The grid window this poll serviced.
                    seen.append(round(before / buffer.poll_period))
                time += dt
            return seen

        assert grid_points(0.01) == grid_points(0.07) == list(range(10))


def morphy_buffer(level, output, next_poll=0.0, totals=(0.0,) * 6, **options):
    """A Morphy array at ``level`` whose equal cells put the output at ``output``.

    ``totals`` seeds the six ledger entries; ``options`` go to the
    constructor.
    """
    buffer = MorphyBuffer(**options)
    buffer.set_state(level, [output / len(buffer._level_firsts[level])] * 8)
    buffer._next_poll_time = next_poll
    ledger = buffer.ledger
    (
        ledger.offered,
        ledger.stored,
        ledger.delivered,
        ledger.clipped,
        ledger.leaked,
        ledger.switching_loss,
    ) = totals
    return buffer


def morphy_state(buffer):
    """Every field a Morphy step can change."""
    return (
        list(buffer._voltages),
        buffer.level,
        buffer._next_poll_time,
        buffer.reconfiguration_count,
        buffer.ledger.as_dict(),
    )


def replay_both(buffer, on, *args, **bounds):
    """Run the fused replay on ``buffer`` and the generic hook loop on a copy.

    Both must commit the same steps to the same end time and leave every
    mutable field equal bit for bit (``repr`` tells signed zeros apart).
    Returns the fused run's ``(steps, end_time)``.
    """
    reference = copy.deepcopy(buffer)
    power, load, dt, *rest = args
    fused = buffer.fast_forward(*args, on, **bounds)
    generic = EnergyBuffer.replay_hooks(
        reference, power * dt, load, dt, *rest, on, **bounds
    )
    assert repr(fused) == repr(generic)
    assert repr(morphy_state(buffer)) == repr(morphy_state(reference))
    return fused


def optional(strategy):
    return st.none() | strategy


@st.composite
def replay_cases(draw):
    """A Morphy state, a constant-power segment, and its stop bounds."""
    options = dict(
        unit_capacitance=millifarads(draw(st.sampled_from((0.5, 2.0, 4.0)))),
        network_efficiency=draw(st.sampled_from((0.9, 0.95, 1.0))),
    )
    buffer = morphy_buffer(
        draw(st.integers(0, 10)),
        0.0,
        next_poll=draw(st.floats(0.0, 0.5)),
        totals=[
            # Totals near zero keep every addend's last bit visible.
            draw(st.sampled_from((-0.0, 0.0, 1e-9, 1e-3, 1.0))) * fraction
            for fraction in draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
        ],
        **options,
    )
    if draw(st.booleans()):
        buffer.leakage = NoLeakage()
    # Unequal cells around an output in [0, 3.8] V: a reconfiguration then
    # dissipates, and the poll can step either way.
    chain = len(buffer._level_firsts[buffer.level])
    output = draw(st.floats(0.0, 3.8))
    buffer._voltages = [
        draw(st.sampled_from((-0.0, 0.0)) | st.floats(0.0, 2.0)) * output / chain
        for _ in range(8)
    ]
    on = draw(st.booleans())
    args = (
        draw(st.floats(0.0, 0.05)),  # delivered power
        draw(st.floats(0.0, 0.01)),  # load current
        draw(st.sampled_from((0.001, 0.01, 0.02, 0.1))),
        draw(st.floats(0.0, 1.0)),  # start time
        draw(st.integers(0, 300)),
    )
    voltage = st.floats(0.0, 4.0)
    bounds = dict(
        stop_above=draw(optional(voltage)), stop_below=draw(optional(voltage))
    )
    if on:
        bounds["brownout_floor"] = draw(optional(voltage))
        bounds["wake_energy"] = draw(optional(st.floats(0.0, 0.05)))
    else:
        bounds["drain_floor"] = draw(optional(voltage))
    return buffer, on, args, bounds


class TestFusedReplay:
    """Morphy's ``fast_forward`` is the generic hook loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=replay_cases())
    def test_matches_the_generic_loop(self, case):
        buffer, on, args, bounds = case
        replay_both(buffer, on, *args, **bounds)

    def test_segment_ended_by_stop_above(self):
        buffer = morphy_buffer(3, 3.0)
        steps, _ = replay_both(
            buffer, False, 0.01, 0.0, 0.01, 0.0, 10_000, stop_above=3.3
        )
        assert 0 < steps < 10_000
        assert buffer.post_harvest_voltage_bound(0.01 * 0.01) >= 3.3

    def test_segment_ended_by_stop_below(self):
        buffer = morphy_buffer(3, 3.0, next_poll=math.inf)
        steps, _ = replay_both(
            buffer, True, 0.0, 5e-3, 0.01, 0.0, 10_000, stop_below=2.5
        )
        assert 0 < steps < 10_000
        assert buffer.output_voltage < 2.5

    def test_segment_ended_by_brownout_floor(self):
        buffer = morphy_buffer(3, 2.2)
        steps, _ = replay_both(
            buffer, True, 0.0, 5e-3, 0.01, 0.0, 10_000, brownout_floor=1.95
        )
        assert 0 < steps < 10_000
        assert buffer.output_voltage <= 1.95

    def test_segment_ended_by_wake_energy(self):
        buffer = morphy_buffer(3, 2.5)
        wake = buffer.usable_energy() + 1e-3
        steps, _ = replay_both(
            buffer, True, 0.02, 1e-3, 0.01, 0.0, 10_000, wake_energy=wake
        )
        assert 0 < steps < 10_000
        assert buffer.usable_energy() + 2.0 * 0.02 * 0.01 >= wake

    def test_segment_ended_by_drain_floor(self):
        buffer = morphy_buffer(0, 3.4)
        steps, _ = replay_both(
            buffer, False, 0.0, 1e-3, 0.01, 0.0, 10_000, drain_floor=3.3
        )
        assert 1 < steps < 10_000
        assert buffer.output_voltage < 3.3
        assert not buffer.can_reach_voltage(3.3)

    def test_segment_ended_by_max_steps(self):
        buffer = morphy_buffer(3, 2.5)
        steps, _ = replay_both(buffer, True, 1e-3, 1e-4, 0.01, 0.0, 50)
        assert steps == 50
        assert buffer._next_poll_time > 0.0

    def test_poll_steps_the_level_up_mid_segment(self):
        buffer = morphy_buffer(3, 3.45, next_poll=0.05)
        steps, _ = replay_both(buffer, True, 0.02, 1e-3, 0.01, 0.0, 200)
        assert steps == 200
        assert buffer.level > 3

    def test_poll_steps_the_level_down_mid_segment(self):
        buffer = morphy_buffer(3, 1.95, next_poll=0.1)
        steps, _ = replay_both(
            buffer, True, 0.0, 1e-3, 0.01, 0.0, 200, brownout_floor=1.6
        )
        assert buffer.level < 3
        assert steps > 11

    @pytest.mark.parametrize("on", [False, True])
    @pytest.mark.parametrize("variant", ["not_batch_exact", "custom_leakage"])
    def test_other_buffers_take_the_generic_loop(
        self, monkeypatch, short_rf_trace, variant, on
    ):
        def fresh_buffer():
            if variant == "not_batch_exact":
                return HookDriven()
            buffer = MorphyBuffer()
            buffer.leakage = CustomLeakage(rated_current=1e-6, rated_voltage=6.3)
            return buffer

        assert not fresh_buffer().follows_recurrence()
        assert fresh_buffer().batch_key() is None

        def fused(*args):
            raise AssertionError("the fused replay ran")

        monkeypatch.setattr(MorphyBuffer, "_replay", fused)
        buffer = fresh_buffer()
        buffer.set_state(3, [0.75] * 8)
        steps, _ = replay_both(buffer, on, 5e-3, 1e-3, 0.01, 0.0, 100)
        assert steps == 100

        def run(fast_forward):
            workload = SenseAndCompute() if on else DataEncryption()
            system = BatterylessSystem.build(short_rf_trace, fresh_buffer(), workload)
            return Simulator(
                system,
                dt_on=0.02,
                dt_off=0.1,
                max_drain_time=120.0,
                fast_forward=fast_forward,
            ).run()

        assert_results_equivalent(run(False), run(True))


class HookDriven(MorphyBuffer):
    """A subclass that does not vouch for its hooks."""

    batch_exact = False


class CustomLeakage(VoltageProportionalLeakage):
    """A leakage model the replay does not know."""
