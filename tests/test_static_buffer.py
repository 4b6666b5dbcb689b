"""Static buffer baseline and the related-work extensions (Capybara, Dewdrop)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import repro.buffers.static as static
from repro.buffers.base import EnergyBuffer
from repro.buffers.capybara import CapybaraBuffer
from repro.buffers.dewdrop import DewdropBuffer
from repro.buffers.static import StaticBuffer
from repro.capacitors.leakage import ConstantCurrentLeakage, NoLeakage
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.system import BatterylessSystem
from repro.units import capacitor_energy, microfarads, millifarads
from repro.workloads.data_encryption import DataEncryption
from repro.workloads.sense_compute import SenseAndCompute

from oracle import assert_results_equivalent


class TestStaticBuffer:
    def test_harvest_then_draw_round_trip(self):
        buffer = StaticBuffer(millifarads(1.0))
        stored = buffer.harvest(1e-3, dt=1.0)
        assert stored == pytest.approx(1e-3)
        delivered = buffer.draw(current=1e-3, dt=0.5)
        assert delivered > 0.0
        assert buffer.ledger.delivered == pytest.approx(delivered)

    def test_clipping_recorded(self):
        buffer = StaticBuffer(microfarads(770.0))
        buffer.harvest(1.0, dt=1.0)  # far beyond capacity
        assert buffer.output_voltage == pytest.approx(3.6)
        assert buffer.ledger.clipped > 0.0
        assert buffer.ledger.stored < 0.02 * buffer.ledger.offered

    def test_leakage_applied_in_housekeeping(self):
        buffer = StaticBuffer(millifarads(10.0))
        buffer.harvest(0.05, dt=1.0)
        before = buffer.stored_energy
        buffer.housekeeping(time=0.0, dt=100.0, system_on=False)
        assert buffer.stored_energy < before
        assert buffer.ledger.leaked > 0.0

    def test_usable_energy_excludes_below_brownout(self):
        buffer = StaticBuffer(millifarads(1.0), brownout_voltage=1.8)
        buffer.harvest(capacitor_energy(1e-3, 3.3), dt=1.0)
        expected = capacitor_energy(1e-3, 3.3) - capacitor_energy(1e-3, 1.8)
        assert buffer.usable_energy() == pytest.approx(expected, rel=1e-6)

    def test_does_not_support_longevity(self):
        assert StaticBuffer(millifarads(1.0)).supports_longevity is False

    def test_can_reach_voltage(self):
        buffer = StaticBuffer(millifarads(1.0))
        assert not buffer.can_reach_voltage(3.3)
        buffer.harvest(capacitor_energy(1e-3, 3.4), dt=1.0)
        assert buffer.can_reach_voltage(3.3)

    def test_reset(self):
        buffer = StaticBuffer(millifarads(1.0))
        buffer.harvest(1e-3, dt=1.0)
        buffer.reset()
        assert buffer.stored_energy == 0.0
        assert buffer.ledger.offered == 0.0

    def test_snapshot_keys(self):
        snapshot = StaticBuffer(millifarads(1.0)).snapshot()
        assert set(snapshot) >= {"voltage", "stored_energy", "capacitance"}

    def test_default_name_from_capacitance(self):
        assert StaticBuffer(microfarads(770.0)).name == "770 uF"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticBuffer(0.0)
        with pytest.raises(ConfigurationError):
            StaticBuffer(millifarads(1.0), max_voltage=1.0, brownout_voltage=1.8)


class TestCapybaraBuffer:
    def test_surplus_spills_into_task_capacitor(self):
        buffer = CapybaraBuffer(
            base_capacitance=microfarads(770.0), task_capacitance=millifarads(10.0)
        )
        buffer.harvest(0.02, dt=1.0)  # overfills the base capacitor
        assert buffer.snapshot()["task_voltage"] > 0.0
        assert buffer.stored_energy > capacitor_energy(770e-6, 3.6) * 0.99

    def test_longevity_dump_transfers_task_energy(self):
        buffer = CapybaraBuffer()
        buffer.harvest(0.05, dt=1.0)
        buffer.draw(current=5e-3, dt=100.0)  # drain the base capacitor
        buffer.request_longevity(1e-3)
        base_before = buffer.base.voltage
        buffer.housekeeping(time=0.0, dt=0.1, system_on=True)
        assert buffer.base.voltage > base_before
        assert buffer.ledger.switching_loss >= 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapybaraBuffer(max_voltage=1.0, brownout_voltage=1.8)


class TestDewdropBuffer:
    def test_required_voltage_grows_with_task_energy(self):
        buffer = DewdropBuffer(millifarads(2.0))
        small = buffer.required_voltage(1e-4)
        large = buffer.required_voltage(5e-3)
        assert large > small
        assert small == pytest.approx(buffer.minimum_enable_voltage)
        assert large <= buffer.max_voltage

    def test_longevity_satisfied_tracks_required_voltage(self):
        buffer = DewdropBuffer(millifarads(10.0))
        buffer.request_longevity(2e-3)
        assert not buffer.longevity_satisfied()
        buffer.harvest(0.06, dt=1.0)
        assert buffer.longevity_satisfied()

    def test_no_request_is_always_satisfied(self):
        assert DewdropBuffer(millifarads(1.0)).longevity_satisfied()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DewdropBuffer(millifarads(1.0), minimum_enable_voltage=1.0)

    def test_negative_task_energy_rejected(self):
        with pytest.raises(ValueError):
            DewdropBuffer(millifarads(1.0)).required_voltage(-1.0)


def seeded(buffer, voltage, totals=(0.0,) * 5):
    """``buffer`` at ``voltage`` with ``(offered, stored, clipped, delivered,
    leaked)`` ledger totals.

    The capacitor ledger is seeded with the same totals, as stepping keeps
    it: every harvest, draw and leak adds the same addend to both ledgers.
    """
    capacitor = buffer._capacitor
    capacitor._charge = capacitor.capacitance * voltage
    offered, stored, clipped, delivered, leaked = totals
    ledger = buffer.ledger
    ledger.offered, ledger.stored, ledger.clipped = offered, stored, clipped
    ledger.delivered, ledger.leaked = delivered, leaked
    capacitor.ledger.absorbed, capacitor.ledger.clipped = stored, clipped
    capacitor.ledger.delivered, capacitor.ledger.leaked = delivered, leaked
    return buffer


def static_state(buffer):
    """Every field a static step can change."""
    capacitor = buffer._capacitor
    return (
        capacitor._charge,
        buffer.ledger.as_dict(),
        capacitor.ledger.as_dict(),
    )


def replay_both(buffer, on, *args, **bounds):
    """Run ``fast_forward`` on ``buffer`` and the generic hook loop on a copy.

    Both must commit the same steps to the same end time and leave the
    charge and both ledgers equal bit for bit (``repr`` tells signed zeros
    apart).  Returns the ``fast_forward`` run's ``(steps, end_time)``.
    """
    reference = copy.deepcopy(buffer)
    power, load, dt, *rest = args
    fused = buffer.fast_forward(*args, on, **bounds)
    generic = EnergyBuffer.replay_hooks(
        reference, power * dt, load, dt, *rest, on, **bounds
    )
    assert repr(fused) == repr(generic)
    assert repr(static_state(buffer)) == repr(static_state(reference))
    return fused


def optional(strategy):
    return st.none() | strategy


#: The paper's three static buffer sizes.
PAPER_SIZES = (microfarads(770.0), millifarads(10.0), millifarads(17.0))


@st.composite
def replay_cases(draw):
    """A static capacitor's state, a constant-power segment, and its bounds."""
    buffer = StaticBuffer(draw(st.sampled_from(PAPER_SIZES)))
    if draw(st.booleans()):
        buffer._capacitor.leakage = NoLeakage()
    seeded(
        buffer,
        draw(st.just(0.0) | st.floats(0.0, 3.6)),
        [
            # Totals near zero keep every addend's last bit visible.
            draw(st.sampled_from((-0.0, 0.0, 1e-9, 1e-3, 1.0))) * fraction
            for fraction in draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
        ],
    )
    on = draw(st.booleans())
    args = (
        draw(st.just(0.0) | st.floats(0.0, 0.05)),  # delivered power
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
    """Static's ``fast_forward`` is the generic hook loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=replay_cases())
    def test_matches_the_generic_loop(self, case):
        buffer, on, args, bounds = case
        replay_both(buffer, on, *args, **bounds)

    def test_segment_ended_by_stop_above(self):
        buffer = seeded(StaticBuffer(millifarads(10.0)), 3.0)
        steps, _ = replay_both(
            buffer, False, 0.01, 0.0, 0.01, 0.0, 10_000, stop_above=3.3
        )
        assert 0 < steps < 10_000
        assert buffer.post_harvest_voltage_bound(0.01 * 0.01) >= 3.3

    def test_segment_ended_by_drain_floor(self):
        buffer = seeded(StaticBuffer(millifarads(10.0)), 3.0)
        steps, _ = replay_both(
            buffer, False, 0.0, 1e-3, 0.01, 0.0, 10_000, drain_floor=2.9
        )
        assert 0 < steps < 10_000
        assert not buffer.can_reach_voltage(2.9)

    def test_segment_ended_by_brownout_floor(self):
        buffer = seeded(StaticBuffer(microfarads(770.0)), 2.2)
        steps, _ = replay_both(
            buffer, True, 0.0, 5e-3, 0.001, 0.0, 10_000, brownout_floor=1.95
        )
        assert 0 < steps < 10_000
        assert buffer.output_voltage <= 1.95

    def test_pending_wake_energy_takes_the_hook_loop(self, monkeypatch):
        """No inline usable-energy guard: the hook loop, with no bound call
        the caller did not ask for."""

        def fused(*args):
            raise AssertionError("the fused replay ran")

        bound_calls = []
        real_bound = StaticBuffer.post_harvest_voltage_bound

        def bound(buffer, energy):
            bound_calls.append(energy)
            return real_bound(buffer, energy)

        monkeypatch.setattr(static, "replay_lane", fused)
        monkeypatch.setattr(StaticBuffer, "post_harvest_voltage_bound", bound)
        buffer = seeded(DewdropBuffer(millifarads(10.0)), 2.5)
        wake = buffer.usable_energy() + 0.01
        steps, _ = replay_both(
            buffer, True, 0.02, 1e-3, 0.01, 0.0, 10_000, wake_energy=wake
        )
        assert 0 < steps < 10_000
        assert buffer.usable_energy() + 2.0 * 0.02 * 0.01 >= wake
        assert bound_calls == []

    @pytest.mark.parametrize("on", [False, True])
    def test_dewdrop_takes_the_fused_replay(self, monkeypatch, on):
        calls = []
        real_replay = static.replay_lane

        def counted(*args):
            calls.append(args)
            return real_replay(*args)

        monkeypatch.setattr(static, "replay_lane", counted)
        buffer = seeded(DewdropBuffer(millifarads(10.0)), 2.5, (1e-3,) * 5)
        assert buffer.follows_recurrence()
        steps, _ = replay_both(buffer, on, 5e-3, 1e-3, 0.01, 0.0, 100)
        assert steps == 100
        assert len(calls) == 1

    @pytest.mark.parametrize("on", [False, True])
    def test_other_leakage_takes_the_generic_loop(
        self, monkeypatch, short_rf_trace, on
    ):
        assert not ConstantLeak(millifarads(10.0)).follows_recurrence()
        assert ConstantLeak(millifarads(10.0)).batch_key() is None

        def fused(*args):
            raise AssertionError("the fused replay ran")

        monkeypatch.setattr(StaticBuffer, "_replay", fused)
        buffer = seeded(ConstantLeak(millifarads(10.0)), 2.5)
        steps, _ = replay_both(buffer, on, 5e-3, 1e-3, 0.01, 0.0, 100)
        assert steps == 100

        def run(fast_forward):
            workload = SenseAndCompute() if on else DataEncryption()
            system = BatterylessSystem.build(
                short_rf_trace, ConstantLeak(millifarads(1.0)), workload
            )
            return Simulator(
                system,
                dt_on=0.02,
                dt_off=0.1,
                max_drain_time=120.0,
                fast_forward=fast_forward,
            ).run()

        assert_results_equivalent(run(False), run(True))


class ConstantLeak(StaticBuffer):
    """A static buffer whose leakage has no closed proportional form."""

    def __init__(self, capacitance):
        super().__init__(capacitance, leakage=ConstantCurrentLeakage(1e-6))
