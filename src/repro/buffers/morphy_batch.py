"""Vectorized lockstep kernel for Morphy switched-capacitor lanes.

:class:`MorphyBatchKernel` is the Morphy counterpart of
:class:`~repro.buffers.static.StaticBatchKernel`: it advances N
trace-sharing :class:`~repro.buffers.morphy.MorphyBuffer` lanes through one
``(lanes, cap_count)`` voltage array, mirroring every scalar expression of
``harvest`` / ``draw`` / ``housekeeping`` operation for operation so the
per-lane trajectory is bit-identical to the scalar engine.

Layout
------

All lanes share one switch topology (enforced through
:meth:`~repro.buffers.morphy.MorphyBuffer.batch_key`): the same capacitor
count and the same (groups, across) structure at every configuration level.
That makes every per-capacitor update expressible with *per-level constant*
index masks over the capacitor axis, while everything scalar — unit
capacitance, thresholds, poll period, network efficiency, leakage
parameters, and the per-level equivalent/chain capacitances derived from
them — varies per lane as plain parameter arrays.

Lanes diverge in configuration *level* (each lane's 10 Hz controller polls
on its own clock), but levels change only at a reconfiguring poll — a few
times per simulated second against hundreds of steps — so every
level-dependent quantity the hot path needs (equivalent and chain
capacitance, half-capacitance energy factors, the chain/across masks and
charge-split denominators, the lane partition by level) is cached by
:meth:`_refresh_level_cache` and rebuilt only when some lane's level
actually moves.  The hot-path cost per step is then a fixed handful of
elementwise array ops, independent of how the lanes are distributed over
levels.

Bit-equality notes
------------------

Floating-point addition is not associative, so everywhere the scalar code
accumulates a Python ``sum()`` over capacitors (output voltage over the
chain groups' first members, stored energy, group equalization means) this
kernel adds the same columns *sequentially in the same order* rather than
calling ``numpy.sum`` (whose pairwise summation would round differently).
Products the scalar code forms left-to-right (``0.5 * C * v * v``) are
precomputed only up to the per-lane constant prefix (``0.5 * C``), keeping
the per-element operation sequence identical.  The cached output voltage is
recomputed from the cell voltages after every mutation a reader can
observe, exactly as the scalar ``output_voltage`` property re-derives it on
every read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.buffers.base import EnergyBuffer, LockstepKernel
from repro.buffers.morphy import MorphyBuffer
from repro.capacitors.leakage import stack_proportional_leakage


class MorphyBatchKernel(LockstepKernel):
    """Vectorized lockstep state for N topology-sharing Morphy lanes.

    The per-lane :class:`~repro.buffers.morphy.MorphyBuffer` objects stay
    alive for workload-facing APIs (longevity requests, the ``ctx.buffer``
    telemetry workloads read) while the electrical state advances through
    the shared arrays; :meth:`sync_lanes` / :meth:`finalize_lane` write
    lanes' array state back into their buffer objects.

    Segment fast-forwarding (:meth:`~repro.buffers.base.LockstepKernel.fast_forward`
    and its on-phase twin) is inherited in its *conservative* form: the
    pre-commit ``stop_above`` check uses :meth:`post_harvest_voltage_bound`
    rather than the exact post-harvest output (which for Morphy emerges
    from the charge split across the switch network and has no cheap
    closed form), so a lane may leave fast-forward a step early and resume
    under normal stepping — the same conservatism the scalar
    :func:`~repro.buffers.morphy.replay_segment` applies.  Controller polls
    still run on schedule inside the replay (the masked housekeeping
    timestamps are each stepping lane's own clock), so reconfigurations
    land on exactly the step they would under normal stepping; a
    reconfiguration that jumps the output voltage is caught by the next
    iteration's pre-commit checks, again exactly like the scalar fast path.

    The inherited ``fast_forward_needs_full_batch = True`` stays in force:
    Morphy's per-step hooks sweep the whole ``lanes × caps`` state, so a
    replayed step costs about a lockstep main-loop step and only a plan
    covering every lane (the batch engine then skips its iteration
    entirely) can come out ahead; partial lane groups step normally under
    the hint masks instead.
    """

    #: The buffer class whose lanes this kernel hosts.
    buffer_type = MorphyBuffer

    #: Narrowest lane group worth a lockstep batch (see
    #: :func:`repro.sim.batch.lane_floor`): the crossover
    #: ``benchmarks/crossover.py`` measured on a 2-core host against the
    #: scalar fast path's flat-float replay
    #: (:func:`~repro.buffers.morphy.replay_segment`), batch/serial median
    #: (wins of 5) 1.06 (0) on RF Cart and 0.79 (5) on RF Mobile at 20
    #: lanes, 0.57 (5) and 0.47 (5) at 40 lanes.  Those rows time DE lanes
    #: only, with every floor forced to 1, so they never see SC lanes or the
    #: scalar-tail hand-off this floor triggers.  On the 48-lane DE+SC
    #: benchmark grid (RF Cart, quick) the measured margin over serial is
    #: only ~1.2×: batch 5.57 s at floor 40 against 6.63 s serial.
    min_lanes = 40

    def __init__(self, buffers: Sequence[MorphyBuffer]) -> None:
        self.buffers: List[MorphyBuffer] = list(buffers)
        template = self.buffers[0]
        n = len(self.buffers)
        cap_count = template.cap_count
        n_levels = template.table.max_level + 1
        self._cap_count = cap_count
        self._max_level = n_levels - 1

        # Shared topology (identical across lanes by construction): group
        # membership per level, plus per-level constant masks over the
        # capacitor axis for the vectorized output-terminal charge split.
        self._level_groups = template._level_groups
        self._level_across = template._level_across
        self._level_firsts = template._level_firsts
        chain_mask = np.zeros((n_levels, cap_count), dtype=bool)
        across_mask = np.zeros((n_levels, cap_count), dtype=bool)
        # Group size at chain-member positions; 1.0 elsewhere so the masked
        # division never divides by zero.
        chain_denom = np.ones((n_levels, cap_count))
        for level in range(n_levels):
            for group in self._level_groups[level]:
                for index in group:
                    chain_mask[level, index] = True
                    chain_denom[level, index] = float(len(group))
            for index in self._level_across[level]:
                across_mask[level, index] = True
        self._chain_mask = chain_mask
        self._across_mask = across_mask
        self._chain_denom = chain_denom

        # Per-lane scalar parameters.
        self._unit = np.array([b.unit_capacitance for b in self.buffers])
        self._eta = np.array([b.network_efficiency for b in self.buffers])
        self._vmax = np.array([b.max_voltage for b in self.buffers])
        self._high = np.array([b.high_threshold for b in self.buffers])
        self._low = np.array([b.low_threshold for b in self.buffers])
        self._period = np.array([b.poll_period for b in self.buffers])
        stacked = stack_proportional_leakage([b.leakage for b in self.buffers])
        assert stacked is not None  # guaranteed by build()/batch_key()
        self._rated_current, self._rated_voltage = stacked
        # Per-lane per-level capacitance caches, copied verbatim from the
        # buffers' own topology caches so the gathered values are the very
        # floats the scalar hot paths read.
        self._level_cap = np.array([b._level_capacitance for b in self.buffers])
        self._chain_cap = np.array(
            [b._level_chain_capacitance for b in self.buffers]
        )
        self._min_cap = self._level_cap[:, 0].copy()

        # Per-lane state.
        self._V = np.array([b._voltages for b in self.buffers])
        self._level = np.array([b.level for b in self.buffers], dtype=np.int64)
        self._next_poll = np.array([b._next_poll_time for b in self.buffers])
        self._reconfigurations = np.zeros(n, dtype=np.int64)

        # Per-lane ledger accumulators, folded into the buffer ledgers at
        # retirement.
        self.offered = np.zeros(n)
        self.stored = np.zeros(n)
        self.clipped = np.zeros(n)
        self.delivered = np.zeros(n)
        self.leaked = np.zeros(n)
        self.switching = np.zeros(n)

        self._refresh_lane_cache()
        self._refresh_level_cache()
        self._recompute_output()

    @classmethod
    def build(cls, buffers: Sequence[EnergyBuffer]) -> Optional["MorphyBatchKernel"]:
        """A kernel over ``buffers``, or None if they cannot share one."""
        if not all(isinstance(b, cls.buffer_type) and b.can_batch() for b in buffers):
            return None
        if len({b.batch_key() for b in buffers}) != 1:
            return None  # mixed topologies cannot share the masks
        return cls(buffers)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self.buffers)

    # -- caches ------------------------------------------------------------------

    def _refresh_lane_cache(self) -> None:
        """Rebuild the per-lane constants (after construction/compaction)."""
        self._rows = np.arange(len(self.buffers))
        self._unit_col = self._unit[:, None]
        self._half_unit_col = 0.5 * self._unit_col
        self._rated_current_col = self._rated_current[:, None]
        self._rated_voltage_col = self._rated_voltage[:, None]

    def _refresh_level_cache(self) -> None:
        """Rebuild everything derived from the per-lane configuration level.

        Levels move only at a reconfiguring controller poll, so the hot
        paths read these caches instead of re-gathering per step.  Each
        cached product keeps the scalar's left-to-right evaluation prefix
        (``0.5 * C`` for the energy factors, ``group_size * unit`` for the
        charge-split denominator, ``chain_C / C`` for the chain's charge
        share), so downstream expressions stay bit-identical.
        """
        level = self._level
        rows = self._rows
        cap = self._level_cap[rows, level]
        self._cap_now = cap
        self._half_cap_now = 0.5 * cap
        self._max_energy_now = self._half_cap_now * self._vmax * self._vmax
        self._chain_frac_now = self._chain_cap[rows, level] / cap
        self._denom_unit_now = self._chain_denom[level] * self._unit_col
        self._chain_mask_now = self._chain_mask[level]
        self._across_mask_now = self._across_mask[level]
        unique = np.unique(level)
        if len(unique) == 1:
            self._single_level: Optional[int] = int(unique[0])
            self._level_rows: List[Tuple[int, np.ndarray]] = []
        else:
            self._single_level = None
            self._level_rows = [
                (int(lvl), np.nonzero(level == lvl)[0]) for lvl in unique
            ]

    # -- telemetry ---------------------------------------------------------------

    @property
    def voltage(self) -> np.ndarray:
        """Per-lane output voltages (a snapshot: safe to hold across steps)."""
        return self._out

    def _recompute_output(self) -> None:
        """Re-derive the cached output voltage from the cell voltages.

        Mirrors the scalar ``output_voltage`` property: the sum of each
        chain group's first member, added in group order (sequential column
        adds, not a pairwise ``numpy.sum``).  Produces a fresh array so
        snapshots handed out earlier keep their pre-mutation values.
        """
        voltages = self._V
        if self._single_level is not None:
            firsts = self._level_firsts[self._single_level]
            acc = voltages[:, firsts[0]].copy()
            for first in firsts[1:]:
                acc = acc + voltages[:, first]
            self._out = acc
            return
        out = np.empty(len(self.buffers))
        for lvl, rows in self._level_rows:
            firsts = self._level_firsts[lvl]
            acc = voltages[rows, firsts[0]]
            for first in firsts[1:]:
                acc = acc + voltages[rows, first]
            out[rows] = acc
        self._out = out

    def _stored_energy(self) -> np.ndarray:
        """Per-lane stored energy, summed over cells in index order."""
        energy = self._half_unit_col * self._V * self._V
        acc = energy[:, 0]
        for j in range(1, self._cap_count):
            acc = acc + energy[:, j]
        return acc

    # -- energy flow -------------------------------------------------------------

    def post_harvest_voltage_bound(self, energy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`MorphyBuffer.post_harvest_voltage_bound`."""
        voltage = self._out
        usable = energy * self._eta
        headroom = self._max_energy_now - self._half_cap_now * voltage * voltage
        stored = np.minimum(usable, np.maximum(0.0, headroom))
        return np.where(
            energy > 0.0,
            np.sqrt(voltage * voltage + 2.0 * stored / self._cap_now),
            voltage,
        )

    def harvest(self, energy: np.ndarray) -> None:
        """Vectorized :meth:`MorphyBuffer.harvest` for one lockstep step.

        Lanes with zero energy take the scalar early-return path exactly:
        every ledger add degenerates to ``+= 0.0`` and the shift is a
        zero-delta no-op.
        """
        self.offered += energy
        eta = self._eta
        usable = energy * eta
        voltage = self._out
        headroom = self._max_energy_now - self._half_cap_now * voltage * voltage
        capped = np.maximum(0.0, headroom)
        no_clip = usable <= capped
        stored = np.where(no_clip, usable, capped)
        new_output = np.sqrt(voltage * voltage + 2.0 * stored / self._cap_now)
        self._shift_output_voltage(
            np.where(stored > 0.0, new_output - voltage, 0.0)
        )
        self._recompute_output()
        crossing = stored / eta
        self.stored += stored
        self.switching += np.where(no_clip, energy - usable, crossing - stored)
        self.clipped += np.where(no_clip, 0.0, energy - crossing)

    def draw(self, current: np.ndarray, dt: np.ndarray) -> None:
        """Vectorized :meth:`MorphyBuffer.draw` for one lockstep step.

        Assumes positive ``dt`` (the engine's invariant); a zero-current
        lane takes the scalar early-return path exactly.  The output cache
        is *not* refreshed here — :meth:`housekeeping` always follows in
        the same engine step and recomputes it before the next reader.
        """
        active = current > 0.0
        eta = self._eta
        charge = current * dt / eta
        voltage = self._out
        available_charge = self._cap_now * voltage
        charge = np.minimum(charge, available_charge)
        before = self._half_cap_now * voltage * voltage
        new_output = (available_charge - charge) / self._cap_now
        self._shift_output_voltage(np.where(active, new_output - voltage, 0.0))
        removed = before - self._half_cap_now * new_output * new_output
        delivered = removed * eta
        self.switching += np.where(active, removed - delivered, 0.0)
        self.delivered += np.where(active, delivered, 0.0)

    def _shift_output_voltage(self, delta_v: np.ndarray) -> None:
        """Vectorized :meth:`MorphyBuffer._shift_output_voltage`.

        The charge moving through the output splits between the chain and
        the across capacitors in proportion to capacitance; zero-delta
        lanes see an exact no-op (``V + 0.0`` then ``max(0, V)``, both
        identities for the non-negative cell voltages).
        """
        charge = delta_v * self._cap_now
        chain_charge = charge * self._chain_frac_now
        chain_delta = chain_charge[:, None] / self._denom_unit_now
        update = np.where(
            self._chain_mask_now,
            chain_delta,
            np.where(self._across_mask_now, delta_v[:, None], 0.0),
        )
        self._V = np.maximum(0.0, self._V + update)

    # -- housekeeping (leakage + controller poll) --------------------------------

    def housekeeping(self, time: np.ndarray, dt: np.ndarray, system_on) -> None:
        """Vectorized :meth:`MorphyBuffer.housekeeping` for one lockstep step.

        ``system_on`` is unused: Morphy's controller is separately powered
        and polls whether or not the platform is on.
        """
        voltages = self._V
        lost_charge = (
            self._rated_current_col
            * (voltages / self._rated_voltage_col)
            * dt[:, None]
        )
        new_voltages = np.maximum(0.0, voltages - lost_charge / self._unit_col)
        half_unit = self._half_unit_col
        drop = (
            half_unit * voltages * voltages
            - half_unit * new_voltages * new_voltages
        )
        acc = drop[:, 0]
        for j in range(1, self._cap_count):
            acc = acc + drop[:, j]
        self.leaked += acc
        self._V = new_voltages
        self._recompute_output()

        due = time >= self._next_poll
        if due.any():
            # Elementwise mirror of :func:`repro.units.next_grid_time`
            # (snap to the poll-period grid, then guard the fp edge where a
            # grid-point quotient floored low would re-poll next step).
            snapped = (np.floor(time / self._period) + 1.0) * self._period
            snapped = np.where(snapped <= time, snapped + self._period, snapped)
            self._next_poll = np.where(due, snapped, self._next_poll)
            out = self._out
            level = self._level
            step_up = due & (out >= self._high) & (level < self._max_level)
            step_down = due & (out <= self._low) & (level > 0)
            moving = step_up | step_down
            if moving.any():
                target = np.where(step_up, level + 1, level - 1)
                for new_level in np.unique(target[moving]):
                    self._reconfigure_rows(
                        moving & (target == new_level), int(new_level)
                    )
                self._refresh_level_cache()
                self._recompute_output()

    def _reconfigure_rows(self, mask: np.ndarray, new_level: int) -> None:
        """Vectorized :meth:`MorphyBuffer.reconfigure` for one target level.

        All lanes in ``mask`` step to the same ``new_level``, so the group
        structure is shared and each equalization phase runs as column
        arithmetic over the masked rows, in the scalar operation order.
        """
        voltages = self._V[mask]
        unit = self._unit[mask]
        half_unit = 0.5 * unit

        def stored_energy() -> np.ndarray:
            acc = half_unit * voltages[:, 0] * voltages[:, 0]
            for j in range(1, self._cap_count):
                acc = acc + half_unit * voltages[:, j] * voltages[:, j]
            return acc

        energy_before = stored_energy()
        groups = self._level_groups[new_level]
        across = self._level_across[new_level]

        # Phase 1: members of each new parallel group equalize.
        for group in groups:
            acc = voltages[:, group[0]]
            for index in group[1:]:
                acc = acc + voltages[:, index]
            mean_voltage = acc / len(group)
            for index in group:
                voltages[:, index] = mean_voltage

        # Phase 2: the chain and every across capacitor equalize at the output.
        chain_capacitance = self._chain_cap[mask, new_level]
        chain_output = voltages[:, groups[0][0]]
        for group in groups[1:]:
            chain_output = chain_output + voltages[:, group[0]]
        across_sum = np.zeros(len(unit))
        for index in across:
            across_sum = across_sum + voltages[:, index]
        numerator = chain_capacitance * chain_output + unit * across_sum
        denominator = chain_capacitance + unit * len(across)
        final_voltage = numerator / denominator
        chain_delta_charge = (final_voltage - chain_output) * chain_capacitance
        for group in groups:
            delta = chain_delta_charge / (len(group) * unit)
            for index in group:
                voltages[:, index] = np.maximum(0.0, voltages[:, index] + delta)
        for index in across:
            voltages[:, index] = final_voltage

        dissipated = np.maximum(0.0, energy_before - stored_energy())
        self.switching[mask] += dissipated
        self._V[mask] = voltages
        self._level[mask] = new_level
        self._reconfigurations[mask] += 1

    # -- retirement --------------------------------------------------------------

    def drained_mask(self, enable_voltage: np.ndarray) -> np.ndarray:
        """Which powered-off lanes can never re-enable without new input.

        Mirrors :meth:`MorphyBuffer.can_reach_voltage`: even reconfigured
        onto the smallest equivalent capacitance, the stored charge cannot
        lift the output to the enable threshold.
        """
        stored = self._stored_energy()
        best_voltage = np.sqrt(2.0 * stored / self._min_cap)
        return (self._out < enable_voltage) & ~(best_voltage >= enable_voltage)

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired lanes from the shared arrays."""
        self.buffers = [b for b, k in zip(self.buffers, keep) if k]
        for name in (
            "_unit", "_eta", "_vmax", "_high", "_low", "_period",
            "_rated_current", "_rated_voltage", "_level_cap", "_chain_cap",
            "_min_cap", "_V", "_level", "_next_poll", "_reconfigurations",
            "offered", "stored", "clipped", "delivered", "leaked",
            "switching", "_out",
        ):
            setattr(self, name, getattr(self, name)[keep])
        self._refresh_lane_cache()
        self._refresh_level_cache()

    def sync_lanes(self, indices: Sequence[int]) -> None:
        """Refresh every buffer object in ``indices`` in one pass."""
        indices = list(indices)  # a tuple would index numpy as one key
        voltages = self._V[indices].tolist()
        levels = self._level[indices].tolist()
        buffers = self.buffers
        for position, index in enumerate(indices):
            buffer = buffers[index]
            buffer._voltages = voltages[position]
            buffer.level = int(levels[position])

    def finalize_lane(self, index: int) -> MorphyBuffer:
        """Write lane ``index`` back into its buffer object and return it.

        After this the buffer is indistinguishable from one the scalar
        engine advanced to the same timestamp: cell voltages, level, the
        poll schedule, the reconfiguration counter, and the energy ledger
        all carry forward (the scalar tail hand-off resumes from them).
        """
        buffer = self.buffers[index]
        self.sync_lanes((index,))
        buffer._next_poll_time = float(self._next_poll[index])
        buffer.reconfiguration_count += int(self._reconfigurations[index])
        ledger = buffer.ledger
        ledger.offered += float(self.offered[index])
        ledger.stored += float(self.stored[index])
        ledger.clipped += float(self.clipped[index])
        ledger.delivered += float(self.delivered[index])
        ledger.leaked += float(self.leaked[index])
        ledger.switching_loss += float(self.switching[index])
        return buffer
