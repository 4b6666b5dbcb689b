"""REACT exposed through the common :class:`EnergyBuffer` interface.

:class:`ReactBuffer` glues the hardware fabric model and the software
controller together so the simulator can drive REACT exactly like any
static buffer: harvest, draw, housekeeping.  The adapter is also where
REACT's measured overheads (per-bank quiescent power and the 10 Hz polling
cost) are charged against the system.

Its scalar fast paths run :func:`replay_segment`, one whole-segment replay
of those three hooks on flat floats, bit-identical to the hook-based
:meth:`~repro.buffers.base.EnergyBuffer.fast_forward` loops it replaces.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from repro.buffers.base import EnergyBuffer
from repro.capacitors.leakage import (
    ConstantCurrentLeakage,
    VoltageProportionalLeakage,
)
from repro.core.bank import BankState
from repro.core.config import ReactConfig, table1_config
from repro.core.controller import ReactController
from repro.core.hardware import ReactHardware
from repro.platform.monitor import BufferSignal
from repro.units import milliamps

_INF = float("inf")

#: Harvest target marker for the last-level buffer in :func:`replay_segment`.
_LAST_LEVEL = object()

#: Why :func:`_replay_run` stopped short of its bounds: a poll whose signal
#: is not OK, or a step start the scalar stop checks must look at.
_POLL = "poll"
_CHECK = "check"


def replay_segment(
    buffer: "ReactBuffer",
    energy: float,
    load: float,
    dt: float,
    time: float,
    max_steps: int,
    system_on: bool,
    stop_above: float,
    stop_below: float,
    brownout_floor: float,
    drain_floor: float,
    wake_energy: Optional[float],
) -> Tuple[int, float]:
    """Replay up to ``max_steps`` harvest → draw → housekeeping steps of REACT.

    The whole-segment recurrence behind :meth:`ReactBuffer.fast_forward`
    and :meth:`ReactBuffer.fast_forward_on`: it commits exactly the steps
    :meth:`EnergyBuffer.fast_forward` / :meth:`EnergyBuffer.fast_forward_on`
    would, with the same trajectory, ledgers and controller state, but runs
    them on flat floats (see :func:`_replay_run`) instead of through the
    object model.  Bounds are floats (``±inf`` for none); ``wake_energy``
    is the pending longevity request, or None.

    Three events go back to the object model after a write-back, so their
    policy keeps one copy: a controller poll whose signal is not OK (the
    rest of that step runs through the powered tail of
    :meth:`ReactBuffer.housekeeping`), the drain reachability test
    (:meth:`ReactBuffer.can_reach_voltage`) and the longevity wake test
    (:meth:`ReactBuffer.usable_energy`).

    Returns ``(steps, end_time)``; ``end_time`` adds ``dt`` once per
    committed step, the engine's additive accumulation.
    """
    steps = 0
    checked = -1  # step count at which the scalar stop checks last passed
    while True:
        steps, time, handoff = _replay_run(
            buffer,
            energy,
            load,
            dt,
            time,
            steps,
            max_steps,
            system_on,
            stop_above,
            stop_below,
            brownout_floor,
            drain_floor,
            wake_energy is not None,
            checked,
        )
        if handoff is _POLL:
            # Finish the interrupted step through the scalar hooks.
            buffer._poll(time)
            buffer._sync_ledger()
            time += dt
            steps += 1
            if buffer.output_voltage < stop_below:
                break
        elif handoff is _CHECK:
            if (
                wake_energy is not None
                and buffer.usable_energy() + 2.0 * energy >= wake_energy
            ):
                break
            if (
                steps
                and buffer.output_voltage < drain_floor
                and not buffer.can_reach_voltage(drain_floor)
            ):
                break
            checked = steps
        else:
            break
    return steps, time


def _replay_run(
    buffer,
    energy,
    load,
    dt,
    time,
    steps,
    max_steps,
    system_on,
    stop_above,
    stop_below,
    brownout_floor,
    drain_floor,
    waking,
    checked,
):
    """Replay steps on flat state until a bound or a hand-off; write back.

    Each step reproduces :meth:`ReactBuffer.harvest`, :meth:`~ReactBuffer.draw`
    (with :meth:`~ReactBuffer.overhead_current`) and
    :meth:`~ReactBuffer.housekeeping` — the hardware's harvest scan,
    ``Capacitor`` charge/discharge/leakage, bank absorb/leakage,
    replenishment and the controller's OK poll — expression for expression,
    adding each addend to its running total in the step path's order, so the
    committed state is bit-identical to stepping.

    Returns ``(steps, time, handoff)``: ``handoff`` is None at a bound,
    ``_CHECK`` before a step whose start the wake or drain test must see,
    and ``_POLL`` in the middle of a step whose due poll reads a non-OK
    signal (after the step's harvest, draw, replenishment and leakage; its
    ``time`` and ``steps`` are not yet advanced).
    """
    hardware = buffer.hardware
    last_level = hardware.last_level
    monitor = hardware.monitor
    config = buffer.config
    capacitance = last_level.capacitance
    rated = last_level.rated_voltage
    ll_max_energy = 0.5 * capacitance * rated * rated
    max_voltage = config.max_voltage
    ll_threshold = max_voltage - 1e-9
    ll_leak_current = last_level.leakage.rated_current
    ll_leak_voltage = last_level.leakage.rated_voltage
    leaks = []
    for bank in hardware.banks:
        leakage = bank.leakage
        if type(leakage) is ConstantCurrentLeakage:
            rates = (leakage.leakage_current, None)
        else:
            rates = (leakage.rated_current, leakage.rated_voltage)
        leaks.append((bank.spec.count, bank.spec.unit_capacitance) + rates)
    rounds = 1 + len(leaks)
    high = monitor.high_threshold
    low = monitor.low_threshold
    period = buffer.controller.config.poll_period
    brownout = config.brownout_voltage
    software = buffer._software_overhead_current
    sqrt = math.sqrt

    charge, cells, bank_leaked, connected, totals = _load(buffer)
    hw_clipped, hw_leaked, hw_transfer, clip_base, leak_base, transfer_base = totals[:6]
    ll_absorbed, ll_delivered, ll_clipped, ll_leaked = totals[6:10]
    next_poll, poll_count = totals[10:12]
    offered, stored, delivered, clipped, leaked, switching, signal = totals[12:]
    hardware_power = (
        config.instrumentation_power + len(connected) * config.per_bank_overhead_power
    )
    handoff = None
    while steps < max_steps:
        voltage = charge / capacitance
        if voltage <= brownout_floor or voltage >= stop_above:
            break
        if (
            energy > 0.0
            and sqrt(voltage * voltage + 2.0 * energy / capacitance) >= stop_above
        ):
            break
        if steps > checked and (waking or (steps and voltage < drain_floor)):
            handoff = _CHECK
            break

        # -- harvest: the input diodes feed the lowest-voltage element.
        offered += energy
        remaining = energy
        stored_total = 0.0
        for _ in range(rounds):
            if remaining <= 0.0:
                break
            target = None
            best = 0.0
            voltage = charge / capacitance
            if voltage < ll_threshold:
                target = _LAST_LEVEL
                best = voltage
            for bank in connected:
                output = cells[bank[0]] * bank[1]
                if output < bank[3] and (target is None or output < best):
                    target = bank
                    best = output
            if target is None:
                break
            if target is _LAST_LEVEL:
                present = 0.5 * capacitance * voltage * voltage
                new_energy = present + remaining
                if new_energy > ll_max_energy:
                    new_energy = ll_max_energy
                absorbed = new_energy - present
                ll_absorbed += absorbed
                ll_clipped += remaining - absorbed
                charge = capacitance * sqrt(2.0 * new_energy / capacitance)
                voltage = charge / capacitance
                gained = 0.5 * capacitance * voltage * voltage - present
            else:
                index, _, _, _, count, unit, count_unit, ceiling = target
                cell = cells[index]
                present = count * (0.5 * unit * cell * cell)
                room = ceiling - present
                if not room > 0.0:
                    room = 0.0
                gained = room if room < remaining else remaining
                if gained <= 0.0:
                    break
                cells[index] = sqrt(2.0 * (present + gained) / count_unit)
            if gained <= 0.0:
                break
            stored_total += gained
            remaining -= gained
        if remaining > 0.0:
            hw_clipped += remaining
        stored += stored_total
        clipped += hw_clipped - clip_base
        clip_base = hw_clipped

        # -- draw: the load plus REACT's own overhead, off the last level.
        voltage = charge / capacitance
        overhead = hardware_power / (brownout if brownout > voltage else voltage)
        if system_on:
            overhead = overhead + software
        current = load + overhead
        before = 0.5 * capacitance * voltage * voltage
        charge = charge - current * dt
        if charge < 0.0:
            charge = 0.0
        voltage = charge / capacitance
        drawn = before - 0.5 * capacitance * voltage * voltage
        ll_delivered += drawn
        delivered += drawn

        # -- housekeeping: replenish, leak, poll (powered only), replenish.
        if connected:
            charge, hw_clipped, hw_transfer = _replenish(
                charge,
                cells,
                connected,
                capacitance,
                max_voltage,
                hw_clipped,
                hw_transfer,
            )
        voltage = charge / capacitance
        lost = 0.0
        if voltage > 0.0:
            lost = ll_leak_current * (voltage / ll_leak_voltage) * dt
        if charge < lost:
            lost = charge
        before = 0.5 * capacitance * voltage * voltage
        charge -= lost
        voltage = charge / capacitance
        step_leaked = before - 0.5 * capacitance * voltage * voltage
        ll_leaked += step_leaked
        for index, (count, unit, rate, rated_voltage) in enumerate(leaks):
            cell = cells[index]
            if cell <= 0.0:
                continue
            before = count * (0.5 * unit * cell * cell)
            if rated_voltage is None:
                lost = rate * dt
            else:
                lost = rate * (cell / rated_voltage) * dt
            cell_charge = unit * cell - lost
            if cell_charge < 0.0:
                cell_charge = 0.0
            cell = cell_charge / unit
            cells[index] = cell
            amount = before - count * (0.5 * unit * cell * cell)
            bank_leaked[index] += amount
            step_leaked += amount
        hw_leaked += step_leaked
        if system_on:
            if time >= next_poll:
                voltage = charge / capacitance
                if voltage >= high or voltage <= low:
                    handoff = _POLL
                    break
                next_poll = time + period
                poll_count += 1
                signal = BufferSignal.OK
            if connected:
                charge, hw_clipped, hw_transfer = _replenish(
                    charge,
                    cells,
                    connected,
                    capacitance,
                    max_voltage,
                    hw_clipped,
                    hw_transfer,
                )
        leaked += hw_leaked - leak_base
        leak_base = hw_leaked
        switching += hw_transfer - transfer_base
        transfer_base = hw_transfer
        clipped += hw_clipped - clip_base
        clip_base = hw_clipped

        time += dt
        steps += 1
        if charge / capacitance < stop_below:
            break
    totals = (hw_clipped, hw_leaked, hw_transfer, clip_base, leak_base, transfer_base)
    totals += (ll_absorbed, ll_delivered, ll_clipped, ll_leaked, next_poll, poll_count)
    totals += (offered, stored, delivered, clipped, leaked, switching, signal)
    _store(buffer, charge, cells, bank_leaked, totals)
    return steps, time, handoff


def _replenish(charge, cells, connected, capacitance, max_voltage, clipped, transfer):
    """:meth:`ReactHardware.replenish` on flat state, expression for expression.

    Returns ``(charge, clipped, transfer)``; bank cells update in place.
    """
    rounds = len(cells)
    for _ in range(rounds):
        source = None
        source_voltage = 0.0
        for bank in connected:
            voltage = cells[bank[0]] * bank[1]
            if source is None or voltage > source_voltage:
                source = bank
                source_voltage = voltage
        sink_voltage = charge / capacitance
        if source_voltage <= sink_voltage + 1e-9:
            break
        source_capacitance = source[2]
        total_capacitance = source_capacitance + capacitance
        final_voltage = (
            source_capacitance * source_voltage + capacitance * sink_voltage
        ) / total_capacitance
        initial_energy = (
            0.5 * source_capacitance * source_voltage * source_voltage
            + 0.5 * capacitance * sink_voltage * sink_voltage
        )
        dissipated = initial_energy - (
            0.5 * total_capacitance * final_voltage * final_voltage
        )
        if dissipated < 0.0:
            dissipated = 0.0
        if final_voltage > max_voltage:
            before = (
                0.5 * source_capacitance * final_voltage * final_voltage
                + 0.5 * capacitance * final_voltage * final_voltage
            )
            final_voltage = max_voltage
            after = (
                0.5 * source_capacitance * final_voltage * final_voltage
                + 0.5 * capacitance * final_voltage * final_voltage
            )
            excess = before - after
            if excess > 0.0:
                clipped += excess
        cells[source[0]] = final_voltage / source[1]
        charge = capacitance * final_voltage
        transfer += dissipated
    return charge, clipped, transfer


def _load(buffer: "ReactBuffer") -> tuple:
    """The flat state :func:`replay_segment` advances, read from ``buffer``.

    Returns ``(charge, cells, bank_leaked, connected, totals)``: the
    last-level charge, each bank's cell voltage and cumulative leakage
    (lists, updated in place), one constants tuple per connected bank in
    bank order — ``(index, multiplier, capacitance, threshold, count,
    unit, count * unit, absorb ceiling)`` with ``multiplier`` the cell
    count in series and 1 in parallel, so ``cell * multiplier`` is the
    bank output exactly — and, in :func:`_store`'s order, every running
    total, the controller's poll schedule and the monitor's latched signal.
    """
    hardware = buffer.hardware
    last_level = hardware.last_level
    max_voltage = buffer.config.max_voltage
    connected = []
    for index, bank in enumerate(hardware.banks):
        state = bank.state
        if state is BankState.DISCONNECTED:
            continue
        spec = bank.spec
        count = spec.count
        unit = spec.unit_capacitance
        if state is BankState.SERIES:
            multiplier = count
            capacitance = spec.series_capacitance
            ceiling = bank.rated_cell_voltage * count
        else:
            multiplier = 1
            capacitance = spec.parallel_capacitance
            ceiling = bank.rated_cell_voltage
        # The clamp of _lowest_voltage_element and absorb_energy.
        clamp = max_voltage if max_voltage < ceiling else ceiling
        clamp_cell = clamp / multiplier
        connected.append(
            (
                index,
                multiplier,
                capacitance,
                clamp - 1e-9,
                count,
                unit,
                count * unit,
                count * (0.5 * unit * clamp_cell * clamp_cell),
            )
        )
    ll_ledger = last_level.ledger
    ledger = buffer.ledger
    controller = buffer.controller
    totals = (
        hardware.energy_clipped,
        hardware.energy_leaked,
        hardware.transfer_loss,
        buffer._clip_baseline,
        buffer._leak_baseline,
        buffer._transfer_baseline,
        ll_ledger.absorbed,
        ll_ledger.delivered,
        ll_ledger.clipped,
        ll_ledger.leaked,
        controller._next_poll_time,
        controller.poll_count,
        ledger.offered,
        ledger.stored,
        ledger.delivered,
        ledger.clipped,
        ledger.leaked,
        ledger.switching_loss,
        hardware.monitor.last_signal,
    )
    return (
        last_level._charge,
        [bank.cell_voltage for bank in hardware.banks],
        [bank.energy_leaked for bank in hardware.banks],
        connected,
        totals,
    )


def _store(buffer, charge, cells, bank_leaked, totals) -> None:
    """Write :func:`replay_segment`'s flat state back to ``buffer``."""
    hardware = buffer.hardware
    last_level = hardware.last_level
    last_level._charge = charge
    for bank, cell, leaked in zip(hardware.banks, cells, bank_leaked):
        bank.cell_voltage = cell
        bank.energy_leaked = leaked
    ll_ledger = last_level.ledger
    ledger = buffer.ledger
    controller = buffer.controller
    (
        hardware.energy_clipped,
        hardware.energy_leaked,
        hardware.transfer_loss,
        buffer._clip_baseline,
        buffer._leak_baseline,
        buffer._transfer_baseline,
        ll_ledger.absorbed,
        ll_ledger.delivered,
        ll_ledger.clipped,
        ll_ledger.leaked,
        controller._next_poll_time,
        controller.poll_count,
        ledger.offered,
        ledger.stored,
        ledger.delivered,
        ledger.clipped,
        ledger.leaked,
        ledger.switching_loss,
        hardware.monitor.last_signal,
    ) = totals


class ReactBuffer(EnergyBuffer):
    """Energy-adaptive buffer built from REACT's reconfigurable bank fabric."""

    supports_longevity = True

    #: The adapter vouches that its harvest/draw/housekeeping hooks are the
    #: exact arithmetic the lockstep kernel and :func:`replay_segment`
    #: mirror (see :meth:`~repro.buffers.static.StaticBuffer.batch_key`);
    #: a subclass that changes them sets this False.
    batch_exact = True

    def __init__(
        self,
        config: Optional[ReactConfig] = None,
        name: str = "REACT",
        active_current_hint: float = milliamps(1.5),
    ) -> None:
        super().__init__()
        self.config = config or table1_config()
        self.hardware = ReactHardware(self.config)
        self.controller = ReactController(self.hardware, self.config)
        self._software_overhead_current = 0.0
        self.name = name
        self.active_current_hint = active_current_hint
        self._leak_baseline = 0.0
        self._transfer_baseline = 0.0
        self._clip_baseline = 0.0

    @property
    def active_current_hint(self) -> float:
        """MCU active current the polling-overhead model assumes."""
        return self._active_current_hint

    @active_current_hint.setter
    def active_current_hint(self, value: float) -> None:
        self._active_current_hint = value
        # The polling overhead for a fixed hint is a constant that the
        # simulator asks for every step; cache it alongside the hint.
        self._software_overhead_current = self.controller.software_overhead_current(
            value
        )

    # -- telemetry ----------------------------------------------------------------

    @property
    def output_voltage(self) -> float:
        return self.hardware.output_voltage

    @property
    def stored_energy(self) -> float:
        return self.hardware.stored_energy

    @property
    def capacitance(self) -> float:
        return self.hardware.equivalent_capacitance

    @property
    def max_capacitance(self) -> float:
        return self.config.maximum_capacitance

    @property
    def capacitance_level(self) -> int:
        """Number of bank expansion steps currently applied."""
        return self.hardware.capacitance_level

    def usable_energy(self) -> float:
        return self.hardware.usable_energy()

    def can_reach_voltage(self, voltage: float) -> bool:
        """The output can only rise (without input) via bank replenishment.

        Charge stranded on banks below the target voltage cannot lift the
        last-level buffer above it, so once the highest bank output falls
        below the enable voltage a powered-off REACT system stays off.
        """
        if self.hardware.output_voltage >= voltage:
            return True
        return any(
            bank.output_voltage > voltage for bank in self.hardware.connected_banks
        )

    def snapshot(self) -> Dict[str, float]:
        snapshot = super().snapshot()
        snapshot["capacitance_level"] = float(self.capacitance_level)
        snapshot["connected_banks"] = float(len(self.hardware.connected_banks))
        return snapshot

    # -- multi-system batching ------------------------------------------------------

    def batch_key(self) -> Optional[Hashable]:
        """Lockstep-compatibility key for the REACT batch kernel.

        Lanes can share one
        :class:`~repro.buffers.react_batch.ReactBatchKernel` when they share
        the full :class:`~repro.core.config.ReactConfig` (bank fabric shape,
        thresholds, poll rate, overhead powers) and the controller's
        expansion rate limit, because the kernel vectorizes per-bank updates
        over a uniform ``(lanes, bank_count)`` array with shared clamp and
        leakage constants.  Requires the class to vouch for its hooks
        (:attr:`batch_exact`), the stock leakage models the kernel
        vectorizes, and history recording to be off (per-step history is a
        scalar-engine feature).
        """
        if not self.batch_exact:
            return None
        if self.controller.record_history:
            return None
        hardware = self.hardware
        if type(hardware.last_level.leakage) is not VoltageProportionalLeakage:
            return None
        for bank in hardware.banks:
            if type(bank.leakage) not in (
                VoltageProportionalLeakage,
                ConstantCurrentLeakage,
            ):
                return None
        return ("react", self.config, self.controller.expansion_min_interval)

    # -- fast forwarding -----------------------------------------------------------

    def post_harvest_voltage_bound(self, energy: float) -> float:
        """Upper bound: all harvested energy lands on the last-level buffer.

        The input diodes steer charge to the *lowest*-voltage element, so
        routing any of it to a bank instead of the last-level buffer can
        only reduce the post-harvest output voltage; the all-to-last-level
        case is therefore a true bound.  (Replenishment can also lift the
        output, but it runs in housekeeping, and every fast path re-checks
        the output voltage at the next step start.)  The base-class
        default would use the *equivalent* capacitance, which understates
        the voltage rise when banks are connected — hence this override.
        """
        if energy <= 0.0:
            return self.output_voltage
        voltage = self.hardware.output_voltage
        capacitance = self.hardware.last_level.capacitance
        return math.sqrt(voltage * voltage + 2.0 * energy / capacitance)

    def fast_forward(
        self,
        delivered_power: float,
        quiescent_current: float,
        dt: float,
        start_time: float,
        max_steps: int,
        stop_above: Optional[float] = None,
        stop_below: Optional[float] = None,
        drain_floor: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Exact off-phase replay through :func:`replay_segment`.

        Buffers whose hooks are not that recurrence (:meth:`batch_key` is
        None) take the hook-based :meth:`EnergyBuffer.fast_forward`.
        """
        if self.batch_key() is None:
            return super().fast_forward(
                delivered_power,
                quiescent_current,
                dt,
                start_time,
                max_steps,
                stop_above,
                stop_below,
                drain_floor,
            )
        return replay_segment(
            self,
            delivered_power * dt,
            quiescent_current,
            dt,
            start_time,
            max_steps,
            False,
            _INF if stop_above is None else stop_above,
            -_INF if stop_below is None else stop_below,
            -_INF,
            -_INF if drain_floor is None else drain_floor,
            None,
        )

    def fast_forward_on(
        self,
        delivered_power: float,
        load_current: float,
        dt: float,
        start_time: float,
        max_steps: int,
        stop_above: Optional[float] = None,
        stop_below: Optional[float] = None,
        brownout_floor: Optional[float] = None,
        wake_energy: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Exact on-phase replay through :func:`replay_segment`.

        Buffers whose hooks are not that recurrence (:meth:`batch_key` is
        None) take the hook-based :meth:`EnergyBuffer.fast_forward_on`.
        """
        if self.batch_key() is None:
            return super().fast_forward_on(
                delivered_power,
                load_current,
                dt,
                start_time,
                max_steps,
                stop_above,
                stop_below,
                brownout_floor,
                wake_energy,
            )
        return replay_segment(
            self,
            delivered_power * dt,
            load_current,
            dt,
            start_time,
            max_steps,
            True,
            _INF if stop_above is None else stop_above,
            -_INF if stop_below is None else stop_below,
            -_INF if brownout_floor is None else brownout_floor,
            -_INF,
            wake_energy,
        )

    # -- energy flow ----------------------------------------------------------------

    def harvest(self, energy: float, dt: float) -> float:
        self.ledger.offered += energy
        stored = self.hardware.harvest(energy)
        self.ledger.stored += stored
        clipped_now = self.hardware.energy_clipped - self._clip_baseline
        self._clip_baseline = self.hardware.energy_clipped
        self.ledger.clipped += clipped_now
        return stored

    def draw(self, current: float, dt: float) -> float:
        delivered = self.hardware.draw(current, dt)
        self.ledger.delivered += delivered
        return delivered

    def housekeeping(self, time: float, dt: float, system_on: bool) -> None:
        # Diode-gated replenishment of the last-level buffer is a passive
        # hardware path: it happens whether or not the MCU is awake.
        self.hardware.replenish()
        self.hardware.apply_leakage(dt)
        if system_on:
            self._poll(time)
        self._sync_ledger()

    def _poll(self, time: float) -> None:
        """The powered half of :meth:`housekeeping`: poll, then replenish.

        The controller is software on the target MCU, so bank stepping
        only happens while the platform is powered.
        """
        self.controller.poll(time)
        self.hardware.replenish()

    def _sync_ledger(self) -> None:
        leaked_now = self.hardware.energy_leaked - self._leak_baseline
        self._leak_baseline = self.hardware.energy_leaked
        self.ledger.leaked += leaked_now
        transfer_now = self.hardware.transfer_loss - self._transfer_baseline
        self._transfer_baseline = self.hardware.transfer_loss
        self.ledger.switching_loss += transfer_now
        clipped_now = self.hardware.energy_clipped - self._clip_baseline
        self._clip_baseline = self.hardware.energy_clipped
        self.ledger.clipped += clipped_now

    def overhead_current(self, system_on: bool) -> float:
        """REACT's own power cost, expressed as a current on the buffer."""
        voltage = max(self.hardware.output_voltage, self.config.brownout_voltage)
        # Inlined ReactController.hardware_overhead_power (hot path: the
        # simulator evaluates the overhead every step).
        hardware_power = (
            self.config.instrumentation_power
            + len(self.hardware.connected_banks) * self.config.per_bank_overhead_power
        )
        hardware_current = hardware_power / voltage
        if not system_on:
            return hardware_current
        return hardware_current + self._software_overhead_current

    # -- longevity guarantees -----------------------------------------------------------

    def request_longevity(self, energy: float) -> None:
        super().request_longevity(energy)
        self.controller.set_minimum_energy(energy)

    def longevity_satisfied(self) -> bool:
        return self.controller.longevity_satisfied()

    def clear_longevity(self) -> None:
        super().clear_longevity()
        self.controller.clear_minimum_energy()

    # -- lifecycle ------------------------------------------------------------------------

    def reset(self) -> None:
        self.hardware.reset()
        self.controller.reset()
        self._leak_baseline = 0.0
        self._transfer_baseline = 0.0
        self._clip_baseline = 0.0
        self._reset_base()
