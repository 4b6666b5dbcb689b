"""Common interface for all energy-buffer architectures.

The simulator interacts with a buffer through four operations per step —
harvest, draw, housekeeping, and telemetry — plus the longevity-guarantee
API that longevity-aware software (the RT and PF workloads) uses on buffers
that support it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

_INF = float("inf")


@dataclass
class BufferLedger:
    """Cumulative energy accounting for a whole buffer architecture.

    The end-to-end efficiency experiments reduce to comparing these fields:
    energy the environment offered, energy actually stored, energy delivered
    to the load, and the three loss channels (overvoltage clipping, leakage,
    and internal switching/transfer dissipation).
    """

    offered: float = 0.0
    stored: float = 0.0
    delivered: float = 0.0
    clipped: float = 0.0
    leaked: float = 0.0
    switching_loss: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "stored": self.stored,
            "delivered": self.delivered,
            "clipped": self.clipped,
            "leaked": self.leaked,
            "switching_loss": self.switching_loss,
        }


class LockstepKernel:
    """Shared contract and segment replay of the batch lockstep kernels.

    A lockstep kernel (:class:`~repro.buffers.static.StaticBatchKernel`,
    :class:`~repro.buffers.morphy_batch.MorphyBatchKernel`,
    :class:`~repro.buffers.react_batch.ReactBatchKernel`) advances many
    lanes of one buffer family per step through shared numpy arrays,
    mirroring the scalar :class:`EnergyBuffer` arithmetic bit for bit.
    :class:`~repro.sim.batch.BatchSimulator` drives every kernel through
    the same protocol, the way :class:`~repro.sim.engine.Simulator` drives
    every buffer:

    * ``build(buffers)`` (classmethod) — a kernel over ``buffers``, or None
      when some lane does not fit; ``buffer_type`` is the hosted buffer
      class and ``min_lanes`` the narrowest lane group worth batching.
    * ``voltage`` — per-lane output voltage;
      ``post_harvest_voltage_bound(energy)`` — its vectorized bound.
    * ``harvest(energy)``, ``draw(current, dt)`` and
      ``housekeeping(time, dt, system_on)`` — one step of the scalar
      hooks; ``system_on`` is the per-lane power-gate mask (or one bool
      for a whole replay phase).
    * :meth:`overhead_current` — the buffer's own load current, added
      last to the platform load, as the scalar engine does.
    * ``drained_mask(enable_voltage)`` — lanes that can no longer restart.
    * ``compact(keep)`` — drop retired lanes from the shared arrays.
    * ``sync_lanes(indices)`` — refresh those lanes' buffer objects so
      Python code (workloads) can read them; ``finalize_lane(index)``
      writes the lane's full state back and returns its buffer.

    This base class adds the vectorized counterparts of the scalar
    :meth:`EnergyBuffer.fast_forward` entry point, one per phase
    (``fast_forward`` off, ``fast_forward_on`` on): given a
    :class:`~repro.sim.segments.LaneSegmentPlan`, each lane replays up to
    its per-lane step budget of whole-segment steps through the kernel's
    own hooks, with lanes that stopped (or never started) masked to exact
    no-op inputs — zero energy, zero load, zero ``dt``, and a ``-inf``
    housekeeping timestamp so no controller poll can fire for a frozen lane.

    Because the replay goes through the same hooks as the lockstep main
    loop, a fast-forwarded lane's trajectory and ledger are bit-identical
    to stepping it normally; the speedup comes from collapsing whole
    segments of the batch engine's per-iteration Python dispatch (workload
    hint checks, gating, retirement scans) into this tight loop.  The
    pre-commit ``stop_above`` check reads the kernel's
    ``post_harvest_voltage_bound``, an upper bound, so a lane may stop a
    step early and resume under normal stepping — never skipping past a
    transition.  The static kernel does not use this replay: it overrides
    ``fast_forward``/``fast_forward_on`` with one
    :func:`~repro.buffers.static.replay_lane` call per lane.
    """

    #: Replay economics hint for the batch engine: when True, only plans
    #: covering *every* lane are worth executing through this kernel.  The
    #: generic array replay below pays one full-width vectorized step per
    #: committed step — about the price of a lockstep main-loop step — so
    #: it only wins when it replaces main-loop iterations outright (all
    #: lanes skipping together); replaying a partial lane group would run
    #: the heavy hooks twice per simulated step.  Kernels with a cheap
    #: per-lane replay (the static kernel's inlined float loop) leave this
    #: False and profit from any group size.
    fast_forward_needs_full_batch = True

    #: Housekeeping timestamp for masked lanes: no poll schedule can be due
    #: at ``-inf``, so a frozen lane's controller never runs.
    _NEVER = float("-inf")

    def overhead_current(self, system_on):
        """Per-lane buffer overhead current (amperes); none by default.

        Mirrors :meth:`EnergyBuffer.overhead_current`: ``system_on`` is
        the engine's per-lane enabled mask, or one bool during a replay
        phase.  Kernels whose buffers override the scalar hook override
        this too (REACT's tracks live buffer state).
        """
        return 0.0

    def fast_forward(self, energy_in, load, dt, times, plan):
        """Advance off-phase lanes through whole-segment replay.

        ``energy_in`` / ``load`` are per-lane constants over the planned
        segments (delivered energy per step, gate quiescent current); each
        step draws ``load + overhead_current(False)``, the scalar off-phase
        load.  ``times`` is the per-lane clock array, which is
        not mutated — a fresh array with ``dt`` added once per committed
        step (the scalar engine's additive accumulation) is returned along
        with the per-lane committed step counts.
        """
        max_steps = plan.steps
        stop_above = plan.stop_above
        stop_below = plan.stop_below
        drain_floor = plan.drain_floor
        check_drain = bool(np.isfinite(drain_floor).any())
        harvesting = bool(np.any(energy_in > 0.0))
        stepping = max_steps > 0
        consumed = np.zeros(len(max_steps), dtype=np.int64)
        times = times.copy()
        never = np.full(len(max_steps), self._NEVER)
        while True:
            # Pre-commit: no committed step's post-harvest voltage may
            # reach stop_above (the gate would engage / the efficiency
            # region would change on a step the engine must run normally).
            stepping &= self.voltage < stop_above
            if harvesting and stepping.any():
                energy = np.where(stepping, energy_in, 0.0)
                stepping &= self.post_harvest_voltage_bound(energy) < stop_above
            if not stepping.any():
                break
            if harvesting:
                self.harvest(np.where(stepping, energy_in, 0.0))
            masked_dt = np.where(stepping, dt, 0.0)
            current = load + self.overhead_current(False)
            self.draw(np.where(stepping, current, 0.0), masked_dt)
            self.housekeeping(np.where(stepping, times, never), masked_dt, False)
            times = np.where(stepping, times + dt, times)
            consumed += stepping
            # Post-commit: the committed step used the correct pre-crossing
            # power; a lane that ended below an efficiency breakpoint (or
            # past the drain termination test) stops here.
            stepping &= ~(self.voltage < stop_below)
            if check_drain:
                stepping &= ~self.drained_mask(drain_floor)
            stepping &= consumed < max_steps
        return consumed, times

    def fast_forward_on(self, energy_in, load, dt, times, plan, brownout_floor):
        """Advance quiescent on-phase lanes through whole-segment replay.

        The on-phase analogue of :meth:`fast_forward`: ``load`` is each
        lane's promised constant demand (MCU mode + peripherals + gate
        quiescent, as cached by the batch engine's hint masks), each step
        adds ``overhead_current(True)``, and the stop set swaps the drain
        test for the gate's brown-out floor, checked at each step *start* —
        harvesting can only raise the voltage, so a step starting above
        the floor cannot brown out mid-step, while a step starting at or
        below it might and is left to the engine's exact machinery to
        resolve.
        """
        max_steps = plan.steps
        stop_above = plan.stop_above
        stop_below = plan.stop_below
        harvesting = bool(np.any(energy_in > 0.0))
        stepping = max_steps > 0
        consumed = np.zeros(len(max_steps), dtype=np.int64)
        times = times.copy()
        never = np.full(len(max_steps), self._NEVER)
        while True:
            voltage = self.voltage
            stepping &= ~(voltage <= brownout_floor)
            stepping &= voltage < stop_above
            if harvesting and stepping.any():
                energy = np.where(stepping, energy_in, 0.0)
                stepping &= self.post_harvest_voltage_bound(energy) < stop_above
            if not stepping.any():
                break
            if harvesting:
                self.harvest(np.where(stepping, energy_in, 0.0))
            masked_dt = np.where(stepping, dt, 0.0)
            current = load + self.overhead_current(True)
            self.draw(np.where(stepping, current, 0.0), masked_dt)
            self.housekeeping(np.where(stepping, times, never), masked_dt, True)
            times = np.where(stepping, times + dt, times)
            consumed += stepping
            stepping &= ~(self.voltage < stop_below)
            stepping &= consumed < max_steps
        return consumed, times


class EnergyBuffer(ABC):
    """Abstract energy buffer between the harvester and the platform."""

    #: Human-readable name used in result tables ("770 uF", "REACT", ...).
    name: str = "buffer"

    #: Whether software can set longevity guarantees on this buffer.
    supports_longevity: bool = False

    def __init__(self) -> None:
        self.ledger = BufferLedger()
        self._longevity_request: float = 0.0

    # -- telemetry ------------------------------------------------------------

    @property
    @abstractmethod
    def output_voltage(self) -> float:
        """Voltage presented to the power gate / computational backend."""

    @property
    @abstractmethod
    def stored_energy(self) -> float:
        """Total energy currently stored anywhere in the buffer (joules)."""

    @property
    @abstractmethod
    def capacitance(self) -> float:
        """Present equivalent capacitance seen at the buffer output (farads)."""

    def snapshot(self) -> Dict[str, float]:
        """Per-step telemetry for the recorder."""
        return {
            "voltage": self.output_voltage,
            "stored_energy": self.stored_energy,
            "capacitance": self.capacitance,
        }

    # -- energy flow ----------------------------------------------------------

    @abstractmethod
    def harvest(self, energy: float, dt: float) -> float:
        """Absorb up to ``energy`` joules offered by the harvester.

        Returns the energy actually stored; the difference is clipped.
        Implementations must update :attr:`ledger`.
        """

    @abstractmethod
    def draw(self, current: float, dt: float) -> float:
        """Supply the load with ``current`` amperes for ``dt`` seconds.

        Returns the energy delivered.  Implementations must update
        :attr:`ledger`.
        """

    @abstractmethod
    def housekeeping(self, time: float, dt: float, system_on: bool) -> None:
        """Apply leakage and run any controller logic for this step."""

    def overhead_current(self, system_on: bool) -> float:
        """Extra load current the buffer's own circuitry adds (amperes)."""
        return 0.0

    # -- multi-system batching ------------------------------------------------

    def batch_key(self) -> Optional[Hashable]:
        """Lockstep-compatibility key for batched execution, or None.

        Batched execution replays the exact per-step ``harvest`` / ``draw`` /
        ``housekeeping`` arithmetic of the scalar engine across many systems
        through shared numpy state arrays, so it is only available to buffer
        architectures that export a vectorized kernel.  Lanes whose keys
        compare equal (and that share a power trace) can run inside one
        kernel instance of a :class:`~repro.sim.batch.BatchSimulator`; the
        experiment layer partitions grid cells on this key.  ``None`` means
        no batched kernel exists for this buffer and its lanes fall back to
        the scalar engine (see
        :meth:`~repro.buffers.static.StaticBuffer.batch_key`,
        :meth:`~repro.buffers.morphy.MorphyBuffer.batch_key` and
        :meth:`~repro.buffers.react_adapter.ReactBuffer.batch_key` for the
        in-tree kernels).
        """
        return None

    def can_batch(self) -> bool:
        """Whether a :class:`~repro.sim.batch.BatchSimulator` lane can host this buffer."""
        return self.batch_key() is not None

    # -- whole-segment fast forwarding ------------------------------------------

    def post_harvest_voltage_bound(self, energy: float) -> float:
        """Upper bound on the output voltage right after absorbing ``energy``.

        Used by the simulator to (a) stop the off-phase fast path before a
        harvest step could lift the output to the gate's enable voltage and
        (b) drop to the fine on-phase timestep for the step on which the
        gate engages.  The contract: the returned value must be ≥ the true
        post-harvest output voltage; being loose only costs a few extra
        fine-grained steps near the threshold, while being tight risks the
        fast path skipping over an enable transition.  The default assumes
        the whole energy lands on the *present output capacitance* — exact
        for a single capacitor, conservative for designs that split or
        attenuate the inflow, but **an underestimate** for designs whose
        harvest can charge a smaller capacitance than the reported
        equivalent (REACT's last-level buffer is the in-tree example, and
        overrides this accordingly).  Such designs must override.
        """
        if energy <= 0.0:
            return self.output_voltage
        voltage = self.output_voltage
        return math.sqrt(voltage * voltage + 2.0 * energy / self.capacitance)

    def follows_recurrence(self) -> bool:
        """Whether this buffer's steps are the recurrence its :meth:`_replay` inlines.

        False by default, and then :meth:`fast_forward` runs the generic
        :meth:`replay_hooks` loop.  Buffers with a fused replay
        (:class:`~repro.buffers.static.StaticBuffer`,
        :class:`~repro.buffers.morphy.MorphyBuffer` and
        :class:`~repro.buffers.react_adapter.ReactBuffer`) return True when
        their hooks are exactly the arithmetic that replay runs.
        """
        return False

    def _replay(
        self,
        energy: float,
        load_current: float,
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
        """The buffer's fused replay: :meth:`replay_hooks`, bit for bit.

        :meth:`fast_forward` calls it only when :meth:`follows_recurrence`
        is True, with the per-step ``energy`` and every bound a float
        (``±inf`` for none) except ``wake_energy`` (None for none).
        """
        raise NotImplementedError

    def fast_forward(
        self,
        delivered_power: float,
        load_current: float,
        dt: float,
        start_time: float,
        max_steps: int,
        system_on: bool,
        *,
        stop_above: Optional[float] = None,
        stop_below: Optional[float] = None,
        brownout_floor: Optional[float] = None,
        drain_floor: Optional[float] = None,
        wake_energy: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Advance up to ``max_steps`` constant-power steps of size ``dt``.

        Replays the exact per-step sequence the simulator would execute —
        harvest ``delivered_power * dt``, draw ``load_current`` plus
        :meth:`overhead_current`, then run :meth:`housekeeping` — but in a
        tight loop free of the engine's per-step frontend/workload/gate/
        recorder dispatch.  ``system_on`` names the phase.  While the gate
        is disconnected ``load_current`` is its quiescent current; while
        the workload has declared a
        :class:`~repro.workloads.base.QuiescenceHint` it is the promised
        constant demand (MCU mode + peripherals + gate quiescent current).
        Buffers whose :meth:`follows_recurrence` is True run their fused
        :meth:`_replay`; every other buffer runs :meth:`replay_hooks`.
        Both commit the same steps with the same bits.

        Stop conditions, all conservative (an un-consumed step is simply
        executed by the engine's exact per-step machinery):

        * ``brownout_floor`` (on phase) — checked against the voltage at
          each step *start* (equal to the previous step's end): harvesting
          can only raise the voltage, so a step starting above the floor
          cannot brown out mid-step, while a step starting at or below it
          might (the gate tests the post-harvest voltage) and is left to
          the engine's exact machinery to resolve.
        * ``stop_above`` — the gate's enable voltage, a wake voltage or the
          next regulator efficiency breakpoint above; checked against the
          present voltage and the :meth:`post_harvest_voltage_bound`
          *before* committing a step, so no committed step's observation
          point (post-harvest) can have crossed it.
        * ``wake_energy`` (on phase) — a pending longevity request with no
          expressible wake voltage; the loop stops before any step whose
          harvest could lift :meth:`usable_energy` to the request.  Harvest
          raises the usable energy by at most the offered energy, and a
          double margin absorbs both float rounding and housekeeping-driven
          jumps (which are caught at the next iteration's re-check, after
          they happen).
        * ``stop_below`` — the regulator's efficiency region changed; the
          committed step still used the correct (pre-crossing) power.
        * ``drain_floor`` (off phase) — after a committed step, the buffer
          can no longer restart the platform (the post-trace drain
          termination test).

        Returns ``(steps_consumed, end_time)`` where ``end_time`` is
        ``start_time`` advanced by ``dt`` per consumed step using the same
        additive accumulation the step-by-step engine performs, so
        downstream time-keyed behaviour (trace sample indexing, controller
        poll schedules) sees bit-identical timestamps.
        """
        energy = delivered_power * dt
        if self.follows_recurrence():
            return self._replay(
                energy,
                load_current,
                dt,
                start_time,
                max_steps,
                system_on,
                _INF if stop_above is None else stop_above,
                -_INF if stop_below is None else stop_below,
                -_INF if brownout_floor is None else brownout_floor,
                -_INF if drain_floor is None else drain_floor,
                wake_energy,
            )
        return self.replay_hooks(
            energy,
            load_current,
            dt,
            start_time,
            max_steps,
            system_on,
            stop_above,
            stop_below,
            brownout_floor,
            drain_floor,
            wake_energy,
        )

    def replay_hooks(
        self,
        energy: float,
        load_current: float,
        dt: float,
        start_time: float,
        max_steps: int,
        system_on: bool,
        stop_above: Optional[float] = None,
        stop_below: Optional[float] = None,
        brownout_floor: Optional[float] = None,
        drain_floor: Optional[float] = None,
        wake_energy: Optional[float] = None,
    ) -> Tuple[int, float]:
        """The generic replay: :meth:`fast_forward`'s loop through the hooks.

        Takes the per-step harvested ``energy`` and the bounds of
        :meth:`fast_forward`, None for none; a None bound costs no call
        (no :meth:`post_harvest_voltage_bound`, :meth:`usable_energy` or
        :meth:`can_reach_voltage`).  It is exact by construction for any
        buffer implemented through ``harvest`` / ``draw`` /
        ``housekeeping``, and it is the reference every fused
        :meth:`_replay` is tested against.
        """
        time = start_time
        steps = 0
        while steps < max_steps:
            voltage = self.output_voltage
            if brownout_floor is not None and voltage <= brownout_floor:
                break
            if stop_above is not None:
                if voltage >= stop_above:
                    break
                if self.post_harvest_voltage_bound(energy) >= stop_above:
                    break
            if (
                wake_energy is not None
                and self.usable_energy() + 2.0 * energy >= wake_energy
            ):
                break
            self.harvest(energy, dt)
            self.draw(load_current + self.overhead_current(system_on), dt)
            self.housekeeping(time, dt, system_on)
            time += dt
            steps += 1
            if stop_below is not None and self.output_voltage < stop_below:
                break
            if drain_floor is not None and self.output_voltage < drain_floor:
                if not self.can_reach_voltage(drain_floor):
                    break
        return steps, time

    # -- longevity guarantees --------------------------------------------------

    def request_longevity(self, energy: float) -> None:
        """Ask the buffer to accumulate ``energy`` joules before proceeding.

        Only meaningful when :attr:`supports_longevity` is True; the base
        implementation records the request so subclasses can honour it.
        """
        if energy < 0.0:
            raise ValueError(f"requested energy must be non-negative, got {energy}")
        self._longevity_request = energy

    def longevity_satisfied(self) -> bool:
        """True when the pending longevity request (if any) is met."""
        return self.usable_energy() >= self._longevity_request

    def clear_longevity(self) -> None:
        """Drop any pending longevity request."""
        self._longevity_request = 0.0

    @property
    def longevity_request(self) -> float:
        """The currently requested reserve energy in joules (0 when none)."""
        return self._longevity_request

    def longevity_wake_voltage(self) -> Optional[float]:
        """Output voltage at which the pending longevity request is met.

        When a buffer's :meth:`longevity_satisfied` condition is exactly a
        threshold on the output voltage (Dewdrop's adaptive enable point is
        the in-tree case), returning that threshold lets the simulator
        fast-forward a waiting workload right up to it.  The returned value
        must be exact or conservative (never above the true flip voltage
        while a lower output could already satisfy the request — the
        fast path skips *until* the voltage reaches it).  ``None`` (the
        default) means the condition has no output-voltage equivalent; the
        simulator then falls back to a usable-energy guard on the pending
        request, which is conservative for every buffer whose harvest
        raises :meth:`usable_energy` by at most the offered energy.
        """
        return None

    def usable_energy(self) -> float:
        """Energy extractable before the platform would brown out.

        Subclasses refine this; the default is the total stored energy,
        which is an optimistic surrogate.
        """
        return self.stored_energy

    def can_reach_voltage(self, voltage: float) -> bool:
        """Whether the output could still reach ``voltage`` without new input.

        Used by the simulator's post-trace drain logic to decide when the
        system can no longer restart.  The default assumes all stored energy
        could be concentrated onto the present output capacitance, which is
        a safe (conservative-toward-continuing) over-approximation.
        """
        if voltage <= 0.0:
            return True
        needed = 0.5 * self.capacitance * voltage * voltage
        return self.stored_energy >= needed

    # -- lifecycle ----------------------------------------------------------------

    @abstractmethod
    def reset(self) -> None:
        """Restore the buffer to its cold-start state for a fresh run."""

    def _reset_base(self) -> None:
        """Helper for subclasses: clear the ledger and longevity state."""
        self.ledger = BufferLedger()
        self._longevity_request = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"V={self.output_voltage:.3f} V, C={self.capacitance * 1e3:.3f} mF)"
        )
