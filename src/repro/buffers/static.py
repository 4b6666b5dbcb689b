"""Fixed-size (static) buffer capacitor — the conventional baseline.

A static buffer is a single capacitor sized at design time.  Its behaviour
embodies the reactivity/longevity/efficiency tradeoff the paper analyzes in
§2: a small capacitor charges quickly but clips harvested energy whenever
input power exceeds demand; a large one captures surplus energy but enables
late and loses more cold-start energy to leakage.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.buffers.base import EnergyBuffer, LockstepKernel
from repro.capacitors.array import CapacitorArray
from repro.capacitors.capacitor import Capacitor
from repro.capacitors.leakage import (
    LeakageModel,
    VoltageProportionalLeakage,
    proportional_leakage,
)
from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy

#: Default leakage density: amperes of leakage per farad at the rated voltage.
#: Chosen to match "typical" (not worst-case datasheet) figures for the
#: ceramic / electrolytic parts the paper's prototypes use.
DEFAULT_LEAKAGE_PER_FARAD = 3e-3

_INF = float("inf")

#: Running ``(offered, stored, clipped, delivered, leaked)`` ledger totals.
LaneLedger = Tuple[float, float, float, float, float]


def replay_lane(
    charge: float,
    capacitance: float,
    max_energy: float,
    leak_current: float,
    leak_voltage: float,
    energy_in: float,
    load: float,
    dt: float,
    time: float,
    max_steps: int,
    stop_above: float,
    stop_below: float,
    brownout_floor: float,
    drain_floor: float,
    ledger: LaneLedger,
) -> Tuple[int, float, float, LaneLedger]:
    """Replay up to ``max_steps`` harvest → draw → leak steps of one capacitor.

    The one copy of the static buffer's whole-segment recurrence: the
    scalar fast paths (:meth:`StaticBuffer.fast_forward`,
    :meth:`StaticBuffer.fast_forward_on`) and the batch kernel's per-lane
    replay (:meth:`StaticBatchKernel._replay`) all run through it.  Each
    step reproduces :meth:`~repro.capacitors.capacitor.Capacitor.charge_with_energy`,
    :meth:`~repro.capacitors.capacitor.Capacitor.discharge_current` (no
    floor) and :meth:`~repro.capacitors.capacitor.Capacitor.apply_leakage`
    under a proportional leakage model expression for expression, on
    Python floats (IEEE-754 doubles, like the numpy kernels), and adds each
    step's ledger addends to the running ``ledger`` totals in the step
    path's order, so both the trajectory and the ledger are bit-identical
    to stepping.

    Every bound is a float (``±inf`` for none).  The replay stops without
    committing a step that starts at or below ``brownout_floor``, starts at
    or above ``stop_above``, or whose post-harvest voltage would reach
    ``stop_above``; it stops after a step that ends below ``stop_below``, or
    that ends drained: below ``drain_floor`` with too little stored energy
    to reach it (the engine's drain termination test).

    Returns ``(steps, end_time, charge, ledger)``; ``end_time`` adds ``dt``
    once per committed step, the engine's additive accumulation.
    """
    offered, stored, clipped, delivered, leaked = ledger
    needed = 0.5 * capacitance * drain_floor * drain_floor
    sqrt = math.sqrt
    steps = 0
    while steps < max_steps:
        voltage = charge / capacitance
        if voltage <= brownout_floor or voltage >= stop_above:
            break
        if energy_in > 0.0:
            present = 0.5 * capacitance * voltage * voltage
            new_energy = present + energy_in
            if new_energy > max_energy:
                new_energy = max_energy
            post_charge = capacitance * sqrt(2.0 * new_energy / capacitance)
            if post_charge / capacitance >= stop_above:
                break
            absorbed = new_energy - present
            offered += energy_in
            stored += absorbed
            clipped += energy_in - absorbed
            charge = post_charge
            voltage = charge / capacitance
        # Load draw (charge domain, floored at zero).
        before = 0.5 * capacitance * voltage * voltage
        charge -= load * dt
        if charge < 0.0:
            charge = 0.0
        voltage = charge / capacitance
        energy = 0.5 * capacitance * voltage * voltage
        delivered += before - energy
        # Leakage (the proportional model's charge_lost, capped at the charge).
        if voltage > 0.0:
            lost = leak_current * (voltage / leak_voltage) * dt
            if lost > charge:
                lost = charge
            charge -= lost
            voltage = charge / capacitance
            before = energy
            energy = 0.5 * capacitance * voltage * voltage
            leaked += before - energy
        time += dt
        steps += 1
        if voltage < stop_below:
            break
        if voltage < drain_floor and not energy >= needed:
            break
    return steps, time, charge, (offered, stored, clipped, delivered, leaked)


class StaticBuffer(EnergyBuffer):
    """A single fixed buffer capacitor behind the harvester.

    Parameters
    ----------
    capacitance:
        Buffer size in farads (the paper evaluates 770 µF, 10 mF, 17 mF).
    max_voltage:
        Overvoltage-protection clamp; harvested energy beyond this point is
        burned off as heat (3.6 V in the testbed).
    brownout_voltage:
        Voltage below which stored energy cannot power the platform; used
        for the ``usable_energy`` surrogate.
    leakage:
        Optional explicit leakage model; by default leakage scales with the
        capacitance (bigger banks leak more).
    """

    supports_longevity = False

    #: Whether this class's energy-flow hooks are exactly the single-capacitor
    #: recurrence of :func:`replay_lane`.  Subclasses that override
    #: ``harvest`` / ``draw`` / ``housekeeping`` / ``overhead_current`` with
    #: different dynamics must set this False so their lanes fall back to the
    #: scalar engine and fast-forward through their own hooks (DewdropBuffer
    #: keeps it: its adaptation lives entirely in the longevity API, which
    #: the batch engine services through the synced scalar object).
    batch_exact = True

    def __init__(
        self,
        capacitance: float,
        max_voltage: float = 3.6,
        brownout_voltage: float = 1.8,
        leakage: LeakageModel | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if capacitance <= 0.0:
            raise ConfigurationError(f"capacitance must be positive, got {capacitance}")
        if max_voltage <= brownout_voltage:
            raise ConfigurationError(
                "max voltage must exceed the brown-out voltage "
                f"({max_voltage} <= {brownout_voltage})"
            )
        if leakage is None:
            leakage = VoltageProportionalLeakage(
                rated_current=DEFAULT_LEAKAGE_PER_FARAD * capacitance,
                rated_voltage=6.3,
            )
        self.brownout_voltage = brownout_voltage
        self._capacitor = Capacitor(
            capacitance=capacitance,
            rated_voltage=max_voltage,
            leakage=leakage,
            name=name or "static",
        )
        self.name = name or f"{capacitance * 1e6:.0f} uF"

    # -- telemetry -----------------------------------------------------------------

    @property
    def output_voltage(self) -> float:
        return self._capacitor.voltage

    @property
    def stored_energy(self) -> float:
        return self._capacitor.energy

    @property
    def capacitance(self) -> float:
        return self._capacitor.capacitance

    @property
    def max_capacitance(self) -> float:
        return self._capacitor.capacitance

    @property
    def max_voltage(self) -> float:
        """Overvoltage clamp of the buffer."""
        return self._capacitor.rated_voltage

    def usable_energy(self) -> float:
        floor = capacitor_energy(self._capacitor.capacitance, self.brownout_voltage)
        return max(0.0, self._capacitor.energy - floor)

    # -- energy flow -------------------------------------------------------------------

    def harvest(self, energy: float, dt: float) -> float:
        self.ledger.offered += energy
        stored = self._capacitor.charge_with_energy(energy)
        self.ledger.stored += stored
        self.ledger.clipped += energy - stored
        return stored

    def draw(self, current: float, dt: float) -> float:
        delivered = self._capacitor.discharge_current(current, dt)
        self.ledger.delivered += delivered
        return delivered

    def housekeeping(self, time: float, dt: float, system_on: bool) -> None:
        self.ledger.leaked += self._capacitor.apply_leakage(dt)

    # -- multi-system batching -------------------------------------------------------

    def batch_key(self) -> Optional[str]:
        """``"static"`` when this buffer's dynamics vectorize exactly.

        Requires the class to vouch for its hooks (:attr:`batch_exact`) and
        the leakage model to be one the capacitor layer can stack into
        closed-form arrays.  All static lanes share one key — the
        :class:`StaticBatchKernel` handles heterogeneous capacitances and
        leakage parameters per lane.
        """
        if self.batch_exact and proportional_leakage(self._capacitor.leakage):
            return "static"
        return None

    # -- off-phase fast forwarding ---------------------------------------------------

    def post_harvest_voltage_bound(self, energy: float) -> float:
        """Exact post-harvest voltage: all harvested energy lands on the cap."""
        if energy <= 0.0:
            return self._capacitor.voltage
        capacitance = self._capacitor.capacitance
        new_energy = min(self._capacitor.energy + energy, self._capacitor.max_energy)
        return math.sqrt(2.0 * new_energy / capacitance)

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
        """Exact off-phase replay through :func:`replay_lane`.

        A single static capacitor has no controllers to poll, so the whole
        off interval reduces to the inlined harvest → draw → leak
        recurrence.  Buffers whose hooks are not that recurrence
        (:meth:`batch_key` is None) take the hook-based
        :meth:`EnergyBuffer.fast_forward` instead.
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
        return self._replay(
            delivered_power * dt,
            quiescent_current + self.overhead_current(False),
            dt,
            start_time,
            max_steps,
            stop_above,
            stop_below,
            None,
            drain_floor,
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
        """Exact on-phase replay through :func:`replay_lane`.

        The load is the workload's constant demand plus this buffer's
        on-overhead, and the brown-out floor is checked at each step start
        (see :meth:`EnergyBuffer.fast_forward_on`).  A pending longevity
        request without a wake voltage (``wake_energy``) and buffers whose
        hooks are not the inlined recurrence take the hook-based
        :meth:`EnergyBuffer.fast_forward_on` instead.
        """
        if wake_energy is not None or self.batch_key() is None:
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
        return self._replay(
            delivered_power * dt,
            load_current + self.overhead_current(True),
            dt,
            start_time,
            max_steps,
            stop_above,
            stop_below,
            brownout_floor,
            None,
        )

    def _replay(self, energy_in, load, dt, time, budget, above, below, floor, drain):
        """:func:`replay_lane` on this capacitor, with None bounds as ``±inf``.

        The step path adds the same addends to the buffer ledger and the
        capacitor ledger, so the buffer's running totals seed the replay
        and its end totals are written to both.
        """
        cap = self._capacitor
        leak_current, leak_voltage = proportional_leakage(cap.leakage)
        ledger = self.ledger
        steps, time, cap._charge, totals = replay_lane(
            cap._charge,
            cap.capacitance,
            cap.max_energy,
            leak_current,
            leak_voltage,
            energy_in,
            load,
            dt,
            time,
            budget,
            _INF if above is None else above,
            -_INF if below is None else below,
            -_INF if floor is None else floor,
            -_INF if drain is None else drain,
            (
                ledger.offered,
                ledger.stored,
                ledger.clipped,
                ledger.delivered,
                ledger.leaked,
            ),
        )
        ledger.offered, ledger.stored, ledger.clipped = totals[:3]
        ledger.delivered, ledger.leaked = totals[3:]
        cap.ledger.absorbed, cap.ledger.clipped = totals[1:3]
        cap.ledger.delivered, cap.ledger.leaked = totals[3:]
        return steps, time

    # -- lifecycle ----------------------------------------------------------------------

    def reset(self) -> None:
        self._capacitor.reset()
        self._reset_base()


class StaticBatchKernel(LockstepKernel):
    """Vectorized lockstep state for N static-capacitor buffer lanes.

    One kernel instance backs every batchable lane of a
    :class:`~repro.sim.batch.BatchSimulator`: the per-lane
    :class:`StaticBuffer` (or :class:`~repro.buffers.dewdrop.DewdropBuffer`)
    objects stay alive for workload-facing APIs (longevity requests, the
    ``ctx.buffer`` telemetry workloads read) while the electrical state
    advances through a shared :class:`~repro.capacitors.array.CapacitorArray`.
    Buffer-level accounting mirrors :meth:`StaticBuffer.harvest` /
    :meth:`~StaticBuffer.draw` / :meth:`~StaticBuffer.housekeeping`: the
    capacitor ledger entries are the buffer ledger entries for a single-cap
    design, with ``offered`` tracked separately.
    """

    #: The per-lane inlined replay below costs a handful of float ops per
    #: lane-step, so fast-forwarding pays off for any lane-group size.
    fast_forward_needs_full_batch = False

    #: The buffer class whose lanes this kernel hosts.
    buffer_type = StaticBuffer

    #: Narrowest lane group worth a lockstep batch (see
    #: :func:`repro.sim.batch.lane_floor`).  ``benchmarks/crossover.py``,
    #: 2-core host, batch/serial median (wins of 5): 20 lanes 1.41 (0) on
    #: RF Cart and 1.28 (0) on RF Mobile; 40 lanes 1.03 (1) and 0.92 (4);
    #: 80 lanes 0.95 (5) and 0.74 (5).  The strict crossover is 80, but
    #: 40 lanes already break even on RF Cart and win on RF Mobile, and the
    #: floor must stay at or below perfbench's 64-lane capacitance sweep.
    min_lanes = 40

    def __init__(self, buffers: Sequence[StaticBuffer], caps: CapacitorArray) -> None:
        self.buffers = list(buffers)
        self.caps = caps
        self.offered = np.zeros(len(self.buffers))

    @classmethod
    def build(cls, buffers: Sequence[EnergyBuffer]) -> Optional["StaticBatchKernel"]:
        """A kernel over ``buffers``, or None if any lane is unbatchable."""
        if not all(isinstance(b, cls.buffer_type) and b.can_batch() for b in buffers):
            return None
        caps = CapacitorArray.from_capacitors([b._capacitor for b in buffers])
        if caps is None:
            return None
        return cls(buffers, caps)

    def __len__(self) -> int:
        return len(self.buffers)

    @property
    def voltage(self) -> np.ndarray:
        """Per-lane output voltages."""
        return self.caps.voltage

    def post_harvest_voltage_bound(self, energy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`StaticBuffer.post_harvest_voltage_bound`."""
        caps = self.caps
        voltage = caps.voltage
        present = caps.energy(voltage)
        new_energy = np.minimum(present + energy, caps.max_energy)
        return np.where(
            energy > 0.0, np.sqrt(2.0 * new_energy / caps.capacitance), voltage
        )

    def _post_harvest_voltage(self, energy: np.ndarray) -> np.ndarray:
        """Exact post-harvest output voltage, making segment replay exact.

        :meth:`~repro.capacitors.array.CapacitorArray.charge_with_energy`
        stores ``C * sqrt(2 E / C)`` as the new charge and the gate then
        observes ``charge / C``; evaluating that same round trip here (not
        the bound's bare ``sqrt``, which can differ in the last ulp) makes
        the fast-forward ``stop_above`` decision identical to the voltage
        the lockstep gate check would see, so whole-segment replay commits
        exactly the steps normal stepping would.
        """
        caps = self.caps
        capacitance = caps.capacitance
        voltage = caps.voltage
        present = caps.energy(voltage)
        new_energy = np.minimum(present + energy, caps.max_energy)
        post_charge = capacitance * np.sqrt(2.0 * new_energy / capacitance)
        return np.where(energy > 0.0, post_charge / capacitance, voltage)

    def harvest(self, energy: np.ndarray) -> None:
        """Vectorized :meth:`StaticBuffer.harvest` for one lockstep step."""
        self.offered += energy
        self.caps.charge_with_energy(energy)

    def draw(self, current: np.ndarray, dt: np.ndarray) -> None:
        """Vectorized :meth:`StaticBuffer.draw` for one lockstep step."""
        self.caps.discharge_current(current, dt)

    def housekeeping(self, time: np.ndarray, dt: np.ndarray) -> None:
        """Vectorized :meth:`StaticBuffer.housekeeping` (leakage only).

        ``time`` is part of the shared kernel interface (the Morphy kernel
        schedules its 10 Hz controller poll off it); a static capacitor has
        no controller, so only leakage applies here.
        """
        self.caps.apply_leakage(dt)

    def drained_mask(self, enable_voltage: np.ndarray) -> np.ndarray:
        """Which powered-off lanes can never re-enable without new input.

        Mirrors the scalar drain test: output voltage below the enable
        threshold and stored energy below what the enable voltage requires
        on the present capacitance
        (:meth:`~repro.buffers.base.EnergyBuffer.can_reach_voltage`).
        """
        caps = self.caps
        voltage = caps.voltage
        stored = caps.energy(voltage)
        needed = 0.5 * caps.capacitance * enable_voltage * enable_voltage
        return (voltage < enable_voltage) & ~(stored >= needed)

    # -- whole-segment replay ------------------------------------------------

    def fast_forward(self, energy_in, load, dt, times, plan):
        """Per-lane off-phase replay (see :meth:`_replay`)."""
        return self._replay(energy_in, load, dt, times, plan, None)

    def fast_forward_on(self, energy_in, load, dt, times, plan, brownout_floor):
        """Per-lane on-phase replay (see :meth:`_replay`)."""
        return self._replay(energy_in, load, dt, times, plan, brownout_floor)

    def _replay(self, energy_in, load, dt, times, plan, brownout_floor):
        """Whole-segment replay, one :func:`replay_lane` call per lane.

        Overrides the generic :class:`~repro.buffers.base.LockstepKernel`
        array replay: a static lane's per-step update is only a handful of
        float operations, so replaying each lane on local Python floats
        beats per-step vectorized dispatch on every batch width that fits
        in memory.  :func:`replay_lane` reproduces
        :class:`~repro.capacitors.array.CapacitorArray` operation for
        operation with running-total ledgers, so the committed trajectory
        and ledger stay bit-identical to lockstep stepping, and its stop
        set is the generic replay's.
        """
        max_steps = plan.steps
        consumed = np.zeros(len(max_steps), dtype=np.int64)
        times = times.copy()
        lanes = np.nonzero(max_steps > 0)[0].tolist()
        if not lanes:
            return consumed, times
        caps = self.caps
        capacitance = caps.capacitance.tolist()
        max_energy = caps.max_energy.tolist()
        leak_current = caps.leak_rated_current.tolist()
        leak_voltage = caps.leak_rated_voltage.tolist()
        charge = caps.charge.tolist()
        ledgers = list(
            zip(
                self.offered.tolist(),
                caps.absorbed.tolist(),
                caps.clipped.tolist(),
                caps.delivered.tolist(),
                caps.leaked.tolist(),
            )
        )
        energy = np.asarray(energy_in).tolist()
        current = np.asarray(load).tolist()
        budget = max_steps.tolist()
        above = plan.stop_above.tolist()
        below = plan.stop_below.tolist()
        drain = plan.drain_floor.tolist()
        if brownout_floor is None:
            floor = [-_INF] * len(budget)
        else:
            floor = np.asarray(brownout_floor).tolist()
        start = times.tolist()
        dt = float(dt)
        for i in lanes:
            consumed[i], times[i], caps.charge[i], totals = replay_lane(
                charge[i],
                capacitance[i],
                max_energy[i],
                leak_current[i],
                leak_voltage[i],
                energy[i],
                current[i],
                dt,
                start[i],
                budget[i],
                above[i],
                below[i],
                floor[i],
                drain[i],
                ledgers[i],
            )
            (
                self.offered[i],
                caps.absorbed[i],
                caps.clipped[i],
                caps.delivered[i],
                caps.leaked[i],
            ) = totals
        return consumed, times

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired lanes from the shared arrays."""
        self.buffers = [b for b, k in zip(self.buffers, keep) if k]
        self.offered = self.offered[keep]
        self.caps.compact(keep)

    def sync_lane(self, index: int) -> None:
        """Refresh lane ``index``'s buffer object so Python code can read it."""
        self.caps.sync_charge(index)

    def sync_lanes(self, indices: Sequence[int]) -> None:
        """Refresh every buffer object in ``indices`` in one pass."""
        self.caps.sync_charges(indices)

    def finalize_lane(self, index: int) -> StaticBuffer:
        """Write lane ``index`` back into its buffer object and return it."""
        buffer = self.buffers[index]
        caps = self.caps
        caps.writeback(index)
        buffer.ledger.offered += float(self.offered[index])
        buffer.ledger.stored += float(caps.absorbed[index])
        buffer.ledger.clipped += float(caps.clipped[index])
        buffer.ledger.delivered += float(caps.delivered[index])
        buffer.ledger.leaked += float(caps.leaked[index])
        return buffer
