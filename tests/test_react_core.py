"""REACT core: configuration, banks, sizing math, and reclamation accounting."""

import copy
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.buffers.react_adapter as react_adapter
from repro.buffers.base import EnergyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.capacitors.leakage import ConstantCurrentLeakage
from repro.core.bank import BankState, CapacitorBank
from repro.core.config import BankSpec, ReactConfig, table1_config
from repro.core.hardware import ReactHardware
from repro.core.reclamation import (
    reclamation_gain_factor,
    stranded_energy_with_reclamation,
    stranded_energy_without_reclamation,
)
from repro.core.sizing import (
    max_unit_capacitance,
    validate_bank_sizing,
    voltage_after_series_switch,
)
from repro.exceptions import BankStateError, ConfigurationError
from repro.experiments import sweep
from repro.experiments.runner import ExperimentSettings
from repro.platform.monitor import BufferSignal
from repro.units import microfarads


class TestConfig:
    def test_table1_capacitance_range(self):
        config = table1_config()
        assert config.minimum_capacitance == pytest.approx(770e-6)
        assert config.maximum_capacitance == pytest.approx(18.03e-3, rel=1e-3)

    def test_table1_bank_rows(self):
        rows = table1_config().describe_banks()
        assert rows[0]["capacitor_count"] == 1
        assert len(rows) == 6
        assert rows[5]["capacitor_size_uF"] == pytest.approx(5000.0)

    def test_capacitance_levels_are_monotone(self):
        levels = table1_config().capacitance_levels
        assert len(levels) == 11
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_software_overhead_fraction(self):
        config = table1_config()
        expected = config.poll_rate_hz * config.poll_active_time
        assert config.software_overhead_fraction(1.5e-3) == pytest.approx(expected)

    def test_overrides_forwarded(self):
        config = table1_config(high_threshold=3.4)
        assert config.high_threshold == 3.4
        assert len(config.banks) == 5

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ReactConfig(high_threshold=1.0, low_threshold=2.0)
        with pytest.raises(ConfigurationError):
            ReactConfig(enable_voltage=1.0, brownout_voltage=1.8)
        with pytest.raises(ConfigurationError):
            ReactConfig(high_threshold=4.0, max_voltage=3.6)

    def test_bank_spec_validation(self):
        with pytest.raises(ConfigurationError):
            BankSpec(unit_capacitance=0.0, count=3)
        with pytest.raises(ConfigurationError):
            BankSpec(unit_capacitance=1e-3, count=0)

    def test_bank_spec_derived_capacitances(self):
        spec = BankSpec(unit_capacitance=microfarads(220.0), count=3)
        assert spec.series_capacitance == pytest.approx(220e-6 / 3.0)
        assert spec.parallel_capacitance == pytest.approx(660e-6)


class TestCapacitorBank:
    def make_bank(self, count=3, unit=220e-6) -> CapacitorBank:
        return CapacitorBank(
            spec=BankSpec(unit_capacitance=unit, count=count), name="bank"
        )

    def test_state_machine_up_and_down(self):
        bank = self.make_bank()
        assert bank.state is BankState.DISCONNECTED
        bank.step_up()
        assert bank.state is BankState.SERIES
        bank.step_up()
        assert bank.state is BankState.PARALLEL
        bank.step_down()
        assert bank.state is BankState.SERIES
        bank.step_down()
        assert bank.state is BankState.DISCONNECTED

    def test_illegal_transitions_rejected(self):
        bank = self.make_bank()
        with pytest.raises(BankStateError):
            bank.to_parallel()
        with pytest.raises(BankStateError):
            bank.disconnect()
        bank.connect_series()
        with pytest.raises(BankStateError):
            bank.connect_series()
        bank.to_parallel()
        with pytest.raises(BankStateError):
            bank.step_up()

    def test_output_voltage_depends_on_configuration(self):
        bank = self.make_bank(count=3)
        bank.connect_series()
        bank.set_cell_voltage(1.0)
        assert bank.output_voltage == pytest.approx(3.0)
        assert bank.equivalent_capacitance == pytest.approx(220e-6 / 3.0)
        bank.to_parallel()
        assert bank.output_voltage == pytest.approx(1.0)
        assert bank.equivalent_capacitance == pytest.approx(660e-6)

    def test_reconfiguration_conserves_stored_energy(self):
        bank = self.make_bank()
        bank.connect_series()
        bank.set_cell_voltage(1.2)
        before = bank.stored_energy
        bank.to_parallel()
        assert bank.stored_energy == pytest.approx(before)
        bank.to_series()
        assert bank.stored_energy == pytest.approx(before)

    def test_absorb_energy_respects_output_clamp(self):
        bank = self.make_bank(count=3)
        bank.connect_series()
        stored = bank.absorb_energy(1.0, max_output_voltage=3.6)
        # In series the output clamp limits every cell to 1.2 V.
        assert bank.cell_voltage == pytest.approx(1.2)
        assert stored == pytest.approx(bank.stored_energy)

    def test_absorb_energy_disconnected_is_rejected_quietly(self):
        bank = self.make_bank()
        assert bank.absorb_energy(1e-3, 3.6) == 0.0

    def test_set_output_voltage(self):
        bank = self.make_bank(count=3)
        bank.connect_series()
        bank.set_output_voltage(3.0)
        assert bank.cell_voltage == pytest.approx(1.0)

    def test_leakage_reduces_cell_voltage(self):
        from repro.capacitors.leakage import ConstantCurrentLeakage

        bank = CapacitorBank(
            spec=BankSpec(unit_capacitance=220e-6, count=3),
            leakage=ConstantCurrentLeakage(1e-6),
        )
        bank.connect_series()
        bank.set_cell_voltage(2.0)
        leaked = bank.apply_leakage(10.0)
        assert leaked > 0.0
        assert bank.cell_voltage < 2.0

    def test_reset(self):
        bank = self.make_bank()
        bank.connect_series()
        bank.set_cell_voltage(1.0)
        bank.reset()
        assert bank.state is BankState.DISCONNECTED
        assert bank.cell_voltage == 0.0


class TestSizingMath:
    def test_equation1_matches_manual_redistribution(self):
        # 880 uF x3 bank reclaimed at 1.9 V onto a 770 uF last-level buffer.
        voltage = voltage_after_series_switch(3, 880e-6, 770e-6, 1.9)
        series_c = 880e-6 / 3.0
        expected = (3 * 1.9 * series_c + 1.9 * 770e-6) / (series_c + 770e-6)
        assert voltage == pytest.approx(expected)
        assert 1.9 < voltage < 3.5

    def test_equation2_binds_only_when_boost_exceeds_high_threshold(self):
        assert max_unit_capacitance(1, 770e-6, 3.5, 1.9) == float("inf")
        limit = max_unit_capacitance(3, 770e-6, 3.5, 1.9)
        assert limit > 0.0
        assert validate_bank_sizing(3, 880e-6, 770e-6, 3.5, 1.9)

    def test_equation2_consistency_with_equation1(self):
        """A bank exactly at the Eq. 2 limit produces exactly V_high in Eq. 1."""
        limit = max_unit_capacitance(3, 770e-6, 3.5, 1.9)
        voltage = voltage_after_series_switch(3, limit, 770e-6, 1.9)
        assert voltage == pytest.approx(3.5, rel=1e-9)

    def test_table1_banks_satisfy_equation2(self):
        config = table1_config()
        for bank in config.banks:
            assert validate_bank_sizing(
                bank.count,
                bank.unit_capacitance,
                config.last_level_capacitance,
                config.high_threshold,
                config.low_threshold,
            )

    def test_sizing_validation(self):
        with pytest.raises(ConfigurationError):
            voltage_after_series_switch(0, 1e-3, 1e-3, 2.0)
        with pytest.raises(ConfigurationError):
            max_unit_capacitance(3, 1e-3, 1.0, 2.0)

    @given(
        cells=st.integers(2, 6),
        unit=st.floats(10e-6, 5e-3),
        last=st.floats(100e-6, 5e-3),
        low=st.floats(1.0, 2.5),
    )
    def test_equation1_output_is_between_trigger_and_boost(
        self, cells, unit, last, low
    ):
        voltage = voltage_after_series_switch(cells, unit, last, low)
        assert low - 1e-9 <= voltage <= cells * low + 1e-9


class TestReclamation:
    def test_gain_factor_is_n_squared(self):
        assert reclamation_gain_factor(3) == 9.0
        assert reclamation_gain_factor(1) == 1.0

    def test_stranded_energy_ratio(self):
        without = stranded_energy_without_reclamation(3, 880e-6, 1.9)
        with_reclamation = stranded_energy_with_reclamation(3, 880e-6, 1.9)
        assert without / with_reclamation == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            reclamation_gain_factor(0)
        with pytest.raises(ConfigurationError):
            stranded_energy_without_reclamation(3, -1.0, 1.9)

    @given(cells=st.integers(1, 8), unit=st.floats(1e-6, 1e-2), low=st.floats(0.0, 4.0))
    def test_reclamation_never_negative(self, cells, unit, low):
        without = stranded_energy_without_reclamation(cells, unit, low)
        with_reclamation = stranded_energy_with_reclamation(cells, unit, low)
        assert without - with_reclamation >= -1e-15


# -- the fused whole-segment replay -------------------------------------------------


def react_buffer(
    ll_voltage,
    banks=(),
    next_poll=0.0,
    totals=(0.0,) * 13,
    buffer_class=ReactBuffer,
):
    """A Table-1 REACT buffer in a given mid-run state.

    ``banks`` gives ``(step-ups taken, output voltage)`` for the first banks
    (the rest stay disconnected and empty); ``totals`` seeds every running
    total: the six ledger entries, the three hardware loss counters (with
    their adapter baselines), and the last-level ledger's four entries.
    """
    buffer = buffer_class()
    hardware = buffer.hardware
    for bank, (code, output) in zip(hardware.banks, banks):
        for _ in range(code):
            bank.step_up()
        multiplier = bank.count if code == 1 else 1
        bank.set_cell_voltage(output / multiplier)
    hardware.last_level.set_voltage(ll_voltage)
    buffer.controller._next_poll_time = next_poll
    ledger = buffer.ledger
    (
        ledger.offered,
        ledger.stored,
        ledger.delivered,
        ledger.clipped,
        ledger.leaked,
        ledger.switching_loss,
    ) = totals[:6]
    hardware.energy_clipped = buffer._clip_baseline = totals[6]
    hardware.energy_leaked = buffer._leak_baseline = totals[7]
    hardware.transfer_loss = buffer._transfer_baseline = totals[8]
    ll_ledger = hardware.last_level.ledger
    (
        ll_ledger.absorbed,
        ll_ledger.delivered,
        ll_ledger.clipped,
        ll_ledger.leaked,
    ) = totals[9:]
    return buffer


def react_state(buffer):
    """Every field a REACT step can change."""
    hardware = buffer.hardware
    controller = buffer.controller
    return (
        hardware.last_level._charge,
        [
            (
                bank.state,
                bank.cell_voltage,
                bank.energy_leaked,
                bank.reconfiguration_count,
            )
            for bank in hardware.banks
        ],
        buffer.ledger.as_dict(),
        (buffer._clip_baseline, buffer._leak_baseline, buffer._transfer_baseline),
        (hardware.energy_clipped, hardware.energy_leaked, hardware.transfer_loss),
        hardware.last_level.ledger.as_dict(),
        (
            controller._next_poll_time,
            controller.poll_count,
            controller.step_up_count,
            controller.step_down_count,
            controller._last_expansion_time,
        ),
        hardware.monitor.last_signal,
    )


def poll_handed_off(buffer, time):
    """``ReactBuffer._poll``, checking that the replay had to hand it off.

    A poll that neither steps the fabric nor reads NEAR_EMPTY only advances
    the schedule, which the fused replay does inline.
    """
    controller = buffer.controller
    before = (controller.step_up_count, controller.step_down_count)
    ReactBuffer._poll(buffer, time)
    stepped = (controller.step_up_count, controller.step_down_count) != before
    signal = buffer.hardware.monitor.last_signal
    assert stepped or signal is BufferSignal.NEAR_EMPTY, "a do-nothing poll"


def no_usable_energy():
    raise AssertionError("the fused replay called usable_energy()")


def replay_both(buffer, on, *args, **bounds):
    """Run the fused replay on ``buffer`` and the generic hook loop on a copy.

    Both must commit the same steps to the same end time and leave every
    mutable field equal.  A buffer that follows the recurrence must also
    keep the replay's hand-off contract: it never computes
    ``usable_energy()`` and hands a poll back only when the poll steps the
    fabric or reads NEAR_EMPTY.  Returns the fused run's ``(steps,
    end_time)``.
    """
    reference = copy.deepcopy(buffer)
    watched = buffer.follows_recurrence()
    if watched:
        buffer._poll = lambda time: poll_handed_off(buffer, time)
        buffer.hardware.usable_energy = no_usable_energy
    power, load, dt, *rest = args
    try:
        fused = buffer.fast_forward(*args, on, **bounds)
        generic = EnergyBuffer.replay_hooks(
            reference, power * dt, load, dt, *rest, on, **bounds
        )
    finally:
        if watched:
            del buffer._poll
            del buffer.hardware.usable_energy
    assert fused == generic
    assert react_state(buffer) == react_state(reference)
    return fused


def optional(strategy):
    return st.none() | strategy


#: Outputs at and just below the 3.6 V clamp, for the last level and the
#: banks: the harvest fills one element and goes on in further rounds.
CLAMPED = (3.6, 3.6 - 1e-9, 3.6 - 1e-6, 3.599)


@st.composite
def replay_cases(draw):
    """A REACT state, a constant-power segment, and its stop bounds.

    Besides free states it draws the ones each inline path of the replay
    needs: banks tied in state and output (the harvest's first-lowest pick),
    all-parallel fabrics and a recent expansion (NEAR_FULL polls that do
    not step), a wake request around ``usable_energy() + 2·energy`` (the
    wake test), and a last level at its clamp (a harvest of several rounds).
    """
    bank = st.tuples(st.integers(0, 2), st.floats(0.0, 3.6) | st.sampled_from(CLAMPED))
    banks = draw(st.lists(bank, min_size=5, max_size=5))
    fabric = draw(st.sampled_from(("free", "tied", "parallel")))
    if fabric == "tied":
        for index in range(1, 5):
            if draw(st.booleans()):
                banks[index] = banks[index - 1]
    elif fabric == "parallel":
        banks = [(2, output) for _, output in banks]
    buffer = react_buffer(
        draw(st.floats(0.0, 3.6) | st.sampled_from(CLAMPED)),
        banks,
        next_poll=draw(st.floats(0.0, 0.5)),
        totals=[
            # Totals near zero keep every addend's last bit visible.
            draw(st.sampled_from((0.0, 1e-9, 1e-3, 1.0))) * fraction
            for fraction in draw(
                st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13)
            )
        ],
    )
    on = draw(st.booleans())
    args = (
        draw(st.floats(0.0, 0.05)),  # delivered power
        draw(st.floats(0.0, 0.01)),  # load current
        draw(st.sampled_from((0.001, 0.01, 0.02, 0.1))),
        draw(st.floats(0.0, 1.0)),  # start time
        draw(st.integers(0, 300)),
    )
    # No expansion yet, or one up to 0.6 s before the start (the rate
    # limit is 0.3 s).
    buffer.controller._last_expansion_time = draw(
        st.just(-math.inf) | st.floats(args[3] - 0.6, args[3])
    )
    voltage = st.floats(0.0, 4.0)
    bounds = dict(
        stop_above=draw(optional(voltage)), stop_below=draw(optional(voltage))
    )
    if on:
        bounds["brownout_floor"] = draw(optional(voltage))
        wake = draw(st.sampled_from(("none", "free", "near")))
        if wake == "free":
            bounds["wake_energy"] = draw(st.floats(0.0, 0.2))
        elif wake == "near":
            energy = args[0] * args[2]
            offset = draw(st.just(0.0) | st.floats(-2.0, 2.0)) * energy
            bounds["wake_energy"] = buffer.usable_energy() + 2.0 * energy + offset
    else:
        bounds["drain_floor"] = draw(optional(voltage))
    return buffer, on, args, bounds


class TestFusedReplay:
    """REACT's ``fast_forward`` is the generic hook loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=replay_cases())
    def test_matches_the_generic_loop(self, case):
        buffer, on, args, bounds = case
        replay_both(buffer, on, *args, **bounds)

    def test_segment_ended_by_stop_above(self):
        buffer = react_buffer(3.0)
        energy = 0.01 * 0.01
        steps, _ = replay_both(
            buffer, False, 0.01, 0.0, 0.01, 0.0, 10_000, stop_above=3.3
        )
        assert 0 < steps < 10_000
        assert buffer.post_harvest_voltage_bound(energy) >= 3.3

    def test_segment_ended_by_stop_below(self):
        buffer = react_buffer(3.0, next_poll=math.inf)
        steps, _ = replay_both(
            buffer, True, 0.0, 5e-3, 0.01, 0.0, 10_000, stop_below=2.5
        )
        assert 0 < steps < 10_000
        assert buffer.output_voltage < 2.5

    def test_segment_ended_by_brownout_floor(self):
        buffer = react_buffer(2.2)
        steps, _ = replay_both(
            buffer, True, 0.0, 5e-3, 0.01, 0.0, 10_000, brownout_floor=1.95
        )
        assert 0 < steps < 10_000
        assert buffer.output_voltage <= 1.95

    def test_segment_ended_by_wake_energy(self):
        buffer = react_buffer(3.0, banks=[(2, 3.0), (1, 3.0)])
        wake = buffer.usable_energy() + 0.01
        steps, _ = replay_both(
            buffer, True, 0.02, 1e-3, 0.01, 0.0, 10_000, wake_energy=wake
        )
        assert 0 < steps < 10_000
        assert buffer.usable_energy() + 2.0 * 0.02 * 0.01 >= wake

    def test_segment_ended_by_drain_floor(self):
        buffer = react_buffer(3.0, banks=[(0, 0.0)] * 4 + [(2, 3.5)])
        steps, _ = replay_both(
            buffer, False, 0.0, 1e-3, 0.01, 0.0, 10_000, drain_floor=3.3
        )
        assert 1 < steps < 10_000
        assert buffer.output_voltage < 3.3
        assert not buffer.can_reach_voltage(3.3)

    def test_segment_ended_by_max_steps(self):
        buffer = react_buffer(2.5, banks=[(1, 2.5)])
        steps, _ = replay_both(buffer, True, 1e-3, 1e-4, 0.01, 0.0, 50)
        assert steps == 50
        assert buffer.controller.poll_count > 0

    def test_poll_steps_a_bank_up_mid_segment(self):
        buffer = react_buffer(3.45, banks=[(1, 3.45)], next_poll=0.05)
        steps, _ = replay_both(buffer, True, 0.02, 1e-3, 0.01, 0.0, 200)
        assert steps == 200
        assert buffer.controller.step_up_count > 0

    def test_poll_steps_a_bank_down_mid_segment(self):
        buffer = react_buffer(2.0, banks=[(2, 2.0)], next_poll=0.1)
        steps, _ = replay_both(
            buffer, True, 0.0, 2e-3, 0.01, 0.0, 200, brownout_floor=1.8
        )
        assert buffer.controller.step_down_count > 0
        assert steps > 11

    def test_replenished_bank_takes_the_next_harvest(self):
        """A bank at its clamp is no harvest target until it replenishes."""
        buffer = react_buffer(0.0, banks=[(0, 0.0)] * 4 + [(1, 3.6)])
        steps, _ = replay_both(buffer, True, 0.03125, 0.0078125, 0.001, 0.0, 28)
        assert steps == 28
        assert buffer.hardware.banks[4].output_voltage < 3.6 - 1e-9

    def test_near_full_polls_that_cannot_step_stay_inline(self):
        """All-parallel, or inside the expansion rate limit: no hand-off."""
        for banks, last_expansion in (([(2, 3.55)] * 5, -math.inf), ([], 0.0)):
            buffer = react_buffer(3.55, banks=banks)
            buffer.controller._last_expansion_time = last_expansion
            steps, _ = replay_both(buffer, True, 0.01, 1e-3, 0.01, 0.0, 25)
            assert steps == 25
            assert buffer.controller.poll_count == 3
            assert buffer.hardware.monitor.last_signal is BufferSignal.NEAR_FULL
            assert buffer.controller.step_up_count == 0

    @pytest.mark.parametrize("on", [False, True])
    @pytest.mark.parametrize("variant", ["not_batch_exact", "custom_leakage"])
    def test_other_buffers_take_the_generic_loop(self, monkeypatch, variant, on):
        if variant == "not_batch_exact":
            buffer = react_buffer(3.0, banks=[(2, 3.0)], buffer_class=HookDriven)
        else:
            buffer = react_buffer(3.0, banks=[(2, 3.0)])
            buffer.hardware.banks[1].leakage = CustomLeakage(1e-6)
        assert buffer.batch_key() is None

        def fused(*args):
            raise AssertionError("the fused replay ran")

        monkeypatch.setattr(ReactBuffer, "_replay", fused)
        steps, _ = replay_both(buffer, on, 5e-3, 1e-3, 0.01, 0.0, 100)
        assert steps == 100


#: perfbench's ``paper_grid_serial`` settings: quick fidelity, 300 s
#: traces, seed 0.
PAPER_GRID = ExperimentSettings(quick=True, quick_trace_cap=300.0, seed=0)

#: What the replay does on the grid's four REACT cells (RF Cart, serial).
#: Segments run up to the step that straddles a trace-sample edge, and RT's
#: and PF's in-flight radio bursts replay too.  Before the fused replay the
#: grid ran ``_replay_run`` 7425 times (2796 poll and 2878 wake-test
#: hand-offs) and called ``usable_energy()`` 2878 times.
REACT_GRID_REPLAY = {
    "segments": 2282,
    "runs": 2411,
    "poll hand-offs": 129,
    "usable_energy calls": 0,
}


class TestReplayHandOffs:
    """A replay leaves its flat-float loop only for polls it cannot do inline."""

    def test_paper_grid_react_cells(self, monkeypatch):
        counts = Counter()
        inside = []
        real_segment = react_adapter.replay_segment
        real_run = react_adapter._replay_run
        real_usable = ReactHardware.usable_energy

        def segment(buffer, *args):
            counts["segments"] += 1
            inside.append(buffer)
            try:
                return real_segment(buffer, *args)
            finally:
                inside.pop()

        def run(*args):
            counts["runs"] += 1
            return real_run(*args)

        def poll(buffer, time):
            if inside:
                counts["poll hand-offs"] += 1
                poll_handed_off(buffer, time)
            else:
                ReactBuffer._poll(buffer, time)

        def usable_energy(hardware):
            if inside:
                counts["usable_energy calls"] += 1
            return real_usable(hardware)

        class Watched(ReactBuffer):
            """The paper grid's REACT buffer, counting its poll hand-offs."""

            _poll = poll
            _replay = segment

        monkeypatch.setattr(react_adapter, "_replay_run", run)
        monkeypatch.setattr(ReactHardware, "usable_energy", usable_energy)
        results = sweep(
            workloads=("DE", "SC", "RT", "PF"),
            trace_names=("RF Cart",),
            settings=PAPER_GRID,
            buffer_factory=lambda: [Watched()],
        ).results
        assert [result.buffer_name for result in results] == ["REACT"] * 4
        assert {key: counts[key] for key in REACT_GRID_REPLAY} == REACT_GRID_REPLAY


class HookDriven(ReactBuffer):
    """A subclass that does not vouch for its hooks."""

    batch_exact = False


class CustomLeakage(ConstantCurrentLeakage):
    """A leakage model the replay does not know."""
