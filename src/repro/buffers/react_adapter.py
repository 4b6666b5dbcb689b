"""REACT exposed through the common :class:`EnergyBuffer` interface.

:class:`ReactBuffer` glues the hardware fabric model and the software
controller together so the simulator can drive REACT exactly like any
static buffer: harvest, draw, housekeeping.  The adapter is also where
REACT's measured overheads (per-bank quiescent power and the 10 Hz polling
cost) are charged against the system.

Its scalar fast path, :meth:`~repro.buffers.base.EnergyBuffer.fast_forward`,
runs :func:`replay_segment`, one whole-segment replay of those three hooks
on flat floats, bit-identical to the hook loop
(:meth:`~repro.buffers.base.EnergyBuffer.replay_hooks`) it replaces.
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
from repro.units import capacitor_energy, milliamps

_INF = float("inf")

#: Why :func:`_replay_run` stopped short of its bounds: a due poll that steps
#: the fabric or reads NEAR_EMPTY, or an off-phase step start below the
#: drain floor.
_POLL = "poll"
_DRAIN = "drain"


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

    REACT's fused replay (``ReactBuffer._replay``, the signature of
    :meth:`EnergyBuffer._replay`), which
    :meth:`EnergyBuffer.fast_forward` runs for both phases: it commits
    exactly the steps the hook loop :meth:`EnergyBuffer.replay_hooks`
    would, with the same trajectory, ledgers and controller state, but runs
    them on flat floats (see :func:`_replay_run`) instead of through the
    object model.  Bounds are floats (``±inf`` for none); ``wake_energy``
    is the pending longevity request, or None.

    Two events go back to the object model after a write-back, so the
    controller's stepping policy and the drain test keep one copy each: a
    due poll that steps the fabric or reads NEAR_EMPTY (the rest of that
    step runs through the powered tail of :meth:`ReactBuffer.housekeeping`)
    and the drain reachability test (:meth:`ReactBuffer.can_reach_voltage`).
    Polls that only advance the schedule and the longevity wake test
    (:meth:`ReactBuffer.usable_energy`) run inside the replay.

    Returns ``(steps, end_time)``; ``end_time`` adds ``dt`` once per
    committed step, the engine's additive accumulation.
    """
    steps = 0
    checked = -1  # step count at which the drain test last passed
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
            wake_energy,
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
        elif handoff is _DRAIN:
            if not buffer.can_reach_voltage(drain_floor):
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
    wake_energy,
    checked,
):
    """Replay steps on flat state until a bound or a hand-off; write back.

    Each step reproduces :meth:`ReactBuffer.harvest`, :meth:`~ReactBuffer.draw`
    (with :meth:`~ReactBuffer.overhead_current`) and
    :meth:`~ReactBuffer.housekeeping` — the hardware's harvest scan,
    ``Capacitor`` charge/discharge/leakage, bank absorb/leakage,
    replenishment and every controller poll that does not step the fabric
    — expression for expression, adding each addend to its running total in
    the step path's order, so the committed state is bit-identical to
    stepping.  The wake test is :meth:`ReactHardware.usable_energy` on the
    flat state.

    One pass over the banks per step, the leakage loop, also yields the
    largest connected output (:func:`_replenish` runs only when it exceeds
    the last level by more than the diode's 1e-9 V) and the harvest's
    lowest eligible bank.
    :func:`_scan` redoes them only when a bank absorbs harvest and the
    harvest goes on, or when the powered replenishment moves charge.

    Returns ``(steps, time, handoff)``: ``handoff`` is None at a bound,
    ``_DRAIN`` before a step that starts below ``drain_floor`` (and has not
    passed the drain test), and ``_POLL`` in the middle of a step whose due
    poll steps the fabric or reads NEAR_EMPTY (after the step's harvest,
    draw, replenishment and leakage; its ``time`` and ``steps`` are not yet
    advanced).
    """
    (
        connected,
        leaks,
        can_step_up,
        hardware_power,
        capacitance,
        ll_max_energy,
        max_voltage,
        ll_leak_current,
        ll_leak_voltage,
        brownout,
        ll_floor,
    ) = _fabric(buffer)
    hardware = buffer.hardware
    last_level = hardware.last_level
    monitor = hardware.monitor
    controller = buffer.controller
    ll_ledger = last_level.ledger
    ledger = buffer.ledger
    high = monitor.high_threshold
    low = monitor.low_threshold
    period = controller.config.poll_period
    expansion_interval = controller.expansion_min_interval
    last_expansion = controller._last_expansion_time
    software = buffer._software_overhead_current
    ll_threshold = max_voltage - 1e-9
    rounds = 1 + len(leaks)
    # A finite post-harvest voltage never reaches +inf: skip that bound.
    bounded = energy > 0.0 and stop_above < _INF
    boost = 2.0 * energy / capacitance
    waking = wake_energy is not None
    wake_boost = 2.0 * energy
    sqrt = math.sqrt

    charge = last_level._charge
    cells = [bank.cell_voltage for bank in hardware.banks]
    bank_leaked = [bank.energy_leaked for bank in hardware.banks]
    hw_clipped = hardware.energy_clipped
    hw_leaked = hardware.energy_leaked
    hw_transfer = hardware.transfer_loss
    clip_base = buffer._clip_baseline
    leak_base = buffer._leak_baseline
    transfer_base = buffer._transfer_baseline
    ll_absorbed = ll_ledger.absorbed
    ll_delivered = ll_ledger.delivered
    ll_clipped = ll_ledger.clipped
    ll_leaked = ll_ledger.leaked
    next_poll = controller._next_poll_time
    poll_count = controller.poll_count
    offered = ledger.offered
    stored = ledger.stored
    delivered = ledger.delivered
    clipped = ledger.clipped
    leaked = ledger.leaked
    switching = ledger.switching_loss
    signal = monitor.last_signal
    lowest, lowest_output, highest = _scan(cells, connected)
    handoff = None
    while steps < max_steps:
        voltage = charge / capacitance
        if voltage <= brownout_floor or voltage >= stop_above:
            break
        if bounded and sqrt(voltage * voltage + boost) >= stop_above:
            break
        if waking:
            # ReactHardware.usable_energy, connected banks in bank order.
            usable = 0.5 * capacitance * voltage * voltage - ll_floor
            usable = usable if usable > 0.0 else 0.0
            for bank in connected:
                cell = cells[bank[0]]
                surplus = bank[4] * (bank[5] * cell * cell) - bank[8]
                usable += surplus if surplus > 0.0 else 0.0
            if usable + wake_boost >= wake_energy:
                break
        if voltage < drain_floor and steps and steps > checked:
            handoff = _DRAIN
            break

        # -- harvest: the input diodes feed the lowest-voltage element
        # (the last level on a tie: it comes first in the scan).
        offered += energy
        remaining = energy
        stored_total = 0.0
        absorbed_by_bank = False
        for _ in range(rounds):
            if remaining <= 0.0:
                break
            if absorbed_by_bank:
                lowest, lowest_output, highest = _scan(cells, connected)
                absorbed_by_bank = False
            voltage = charge / capacitance
            if lowest is not None and (
                voltage >= ll_threshold or lowest_output < voltage
            ):
                index, multiplier, _, _, count, half, count_unit, ceiling, _ = lowest
                cell = cells[index]
                present = count * (half * cell * cell)
                room = ceiling - present
                if not room > 0.0:
                    room = 0.0
                gained = room if room < remaining else remaining
                if gained <= 0.0:
                    break
                cell = sqrt(2.0 * (present + gained) / count_unit)
                cells[index] = cell
                # Only this bank moved, so the next round rescans for the
                # lowest, and ``highest`` stays an upper bound on the
                # largest output, all the replenishment test needs.
                output = cell * multiplier
                if output > highest:
                    highest = output
                absorbed_by_bank = True
            elif voltage < ll_threshold:
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
                if gained <= 0.0:
                    break
            else:
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
        if highest > charge / capacitance + 1e-9:
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
        lowest = None
        lowest_output = _INF
        highest = -_INF
        for index, count, unit, half_unit, rate, rated_voltage, bank in leaks:
            cell = cells[index]
            if cell > 0.0:
                before = count * (half_unit * cell * cell)
                if rated_voltage is None:
                    lost = rate * dt
                else:
                    lost = rate * (cell / rated_voltage) * dt
                cell_charge = unit * cell - lost
                if cell_charge < 0.0:
                    cell_charge = 0.0
                cell = cell_charge / unit
                cells[index] = cell
                amount = before - count * (half_unit * cell * cell)
                bank_leaked[index] += amount
                step_leaked += amount
            if bank is not None:
                output = cell * bank[1]
                if output > highest:
                    highest = output
                if output < bank[3] and output < lowest_output:
                    lowest = bank
                    lowest_output = output
        hw_leaked += step_leaked
        if system_on:
            if time >= next_poll:
                voltage = charge / capacitance
                if voltage >= high:
                    # ReactController.poll steps up only when a bank can,
                    # and only past the expansion rate limit.
                    if can_step_up and time - last_expansion >= expansion_interval:
                        handoff = _POLL
                        break
                    signal = BufferSignal.NEAR_FULL
                elif voltage <= low:
                    handoff = _POLL
                    break
                else:
                    signal = BufferSignal.OK
                next_poll = time + period
                poll_count += 1
            if highest > charge / capacitance + 1e-9:
                charge, hw_clipped, hw_transfer = _replenish(
                    charge,
                    cells,
                    connected,
                    capacitance,
                    max_voltage,
                    hw_clipped,
                    hw_transfer,
                )
                lowest, lowest_output, highest = _scan(cells, connected)
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

    last_level._charge = charge
    for bank, cell, bank_total in zip(hardware.banks, cells, bank_leaked):
        bank.cell_voltage = cell
        bank.energy_leaked = bank_total
    hardware.energy_clipped = hw_clipped
    hardware.energy_leaked = hw_leaked
    hardware.transfer_loss = hw_transfer
    buffer._clip_baseline = clip_base
    buffer._leak_baseline = leak_base
    buffer._transfer_baseline = transfer_base
    ll_ledger.absorbed = ll_absorbed
    ll_ledger.delivered = ll_delivered
    ll_ledger.clipped = ll_clipped
    ll_ledger.leaked = ll_leaked
    controller._next_poll_time = next_poll
    controller.poll_count = poll_count
    ledger.offered = offered
    ledger.stored = stored
    ledger.delivered = delivered
    ledger.clipped = clipped
    ledger.leaked = leaked
    ledger.switching_loss = switching
    monitor.last_signal = signal
    return steps, time, handoff


def _scan(cells, connected):
    """The harvest's lowest eligible bank and the largest connected output.

    Returns ``(lowest, its output, largest output)``:
    :meth:`ReactHardware._lowest_voltage_element`'s bank scan (first strict
    minimum below the clamp, in bank order; None and ``+inf`` with no
    eligible bank) and the largest output (``-inf`` with no connected bank).
    """
    lowest = None
    lowest_output = _INF
    highest = -_INF
    for bank in connected:
        output = cells[bank[0]] * bank[1]
        if output > highest:
            highest = output
        if output < bank[3] and output < lowest_output:
            lowest = bank
            lowest_output = output
    return lowest, lowest_output, highest


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


def _fabric(buffer: "ReactBuffer") -> Optional[tuple]:
    """The replay's per-fabric constants, or None if a leakage model is unknown.

    Cached on the buffer and rebuilt only after a topology change (a new
    :attr:`ReactHardware.connected_banks` list: every change drops the
    hardware's cached one, and the cache here keeps the old list alive, so
    identity cannot be reused) or when a leakage model object changes, so a
    short segment pays one list comparison for them.
    The replay knows a voltage-proportional last level and
    voltage-proportional or constant-current banks, as the lockstep
    kernel does.

    The tuple holds the connected-bank rows, one per connected bank in
    bank order — ``(index, multiplier, capacitance, threshold, count,
    0.5 * unit, count * unit, absorb ceiling, stranded floor)`` with
    ``multiplier`` the cell count in series and 1 in parallel, so ``cell *
    multiplier`` is the bank output exactly — the leak rows, one per bank
    — ``(index, count, unit, 0.5 * unit, rate, rated voltage or None,
    connected row or None)`` — whether any bank can step up, the hardware
    overhead power, and the last level's capacitance, clamp energy, clamp
    voltage, leakage rates, brown-out voltage and brown-out energy.  A cell
    energy ``count * (0.5 * unit * cell * cell)`` evaluates left to right,
    so ``count * (half_unit * cell * cell)`` is the same float.
    """
    hardware = buffer.hardware
    models = [bank.leakage for bank in hardware.banks]
    models.append(hardware.last_level.leakage)
    banks = hardware.connected_banks
    cached = buffer._fabric_cache
    if cached is not None and cached[0] is banks and cached[1] == models:
        return cached[2]
    fabric = _build_fabric(buffer)
    buffer._fabric_cache = (banks, models, fabric)
    return fabric


def _build_fabric(buffer: "ReactBuffer") -> Optional[tuple]:
    """Compute what :func:`_fabric` caches."""
    hardware = buffer.hardware
    last_level = hardware.last_level
    config = buffer.config
    if type(last_level.leakage) is not VoltageProportionalLeakage:
        return None
    max_voltage = config.max_voltage
    connected = []
    leaks = []
    can_step_up = False
    for index, bank in enumerate(hardware.banks):
        leakage = bank.leakage
        if type(leakage) is ConstantCurrentLeakage:
            rates = (leakage.leakage_current, None)
        elif type(leakage) is VoltageProportionalLeakage:
            rates = (leakage.rated_current, leakage.rated_voltage)
        else:
            return None
        state = bank.state
        can_step_up = can_step_up or bank.can_step_up
        spec = bank.spec
        count = spec.count
        unit = spec.unit_capacitance
        row = None
        if state is not BankState.DISCONNECTED:
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
            row = (
                index,
                multiplier,
                capacitance,
                clamp - 1e-9,
                count,
                0.5 * unit,
                count * unit,
                count * (0.5 * unit * clamp_cell * clamp_cell),
                hardware._stranded_floor[index],
            )
            connected.append(row)
        leaks.append((index, count, unit, 0.5 * unit) + rates + (row,))
    capacitance = last_level.capacitance
    rated = last_level.rated_voltage
    brownout = config.brownout_voltage
    return (
        tuple(connected),
        tuple(leaks),
        can_step_up,
        config.instrumentation_power + len(connected) * config.per_bank_overhead_power,
        capacitance,
        0.5 * capacitance * rated * rated,
        max_voltage,
        last_level.leakage.rated_current,
        last_level.leakage.rated_voltage,
        brownout,
        capacitor_energy(capacitance, brownout),
    )


class ReactBuffer(EnergyBuffer):
    """Energy-adaptive buffer built from REACT's reconfigurable bank fabric."""

    supports_longevity = True

    #: The adapter vouches that its harvest/draw/housekeeping hooks, its
    #: :meth:`usable_energy` (the replay's inline wake test) and the
    #: controller's stepping rule (the replay decides inline that a NEAR_FULL
    #: poll cannot step: no bank can step up, or the expansion rate limit)
    #: are the exact arithmetic the lockstep kernel and
    #: :func:`replay_segment` mirror (see :meth:`follows_recurrence`); a
    #: subclass that changes any of them sets this False.
    batch_exact = True

    #: The fused whole-segment replay (see :meth:`follows_recurrence`).
    _replay = replay_segment

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
        #: :func:`_fabric`'s cache of the replay's per-fabric constants.
        self._fabric_cache = None

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

    def follows_recurrence(self) -> bool:
        """Whether this buffer's steps are the recurrence the fast paths implement.

        True when the class vouches for its hooks, :meth:`usable_energy` and
        the controller's stepping rule (:attr:`batch_exact`; an override of
        any of them that keeps it True drifts from the hook loop without an
        error), history recording is off (per-poll history is a stepped-engine
        feature) and every leakage model is a stock one: voltage-proportional
        on the last level, voltage-proportional or constant-current on the
        banks.  Both the lockstep kernel (:meth:`batch_key`) and the scalar
        whole-segment replay (:func:`replay_segment`) require it.
        """
        return (
            self.batch_exact
            and not self.controller.record_history
            and _fabric(self) is not None
        )

    def batch_key(self) -> Optional[Hashable]:
        """Lockstep-compatibility key for the REACT batch kernel.

        Lanes can share one
        :class:`~repro.buffers.react_batch.ReactBatchKernel` when they share
        the full :class:`~repro.core.config.ReactConfig` (bank fabric shape,
        thresholds, poll rate, overhead powers) and the controller's
        expansion rate limit, because the kernel vectorizes per-bank updates
        over a uniform ``(lanes, bank_count)`` array with shared clamp and
        leakage constants.  Requires :meth:`follows_recurrence`.
        """
        if not self.follows_recurrence():
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
