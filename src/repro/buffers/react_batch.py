"""Vectorized lockstep kernel for batches of REACT lanes.

:class:`ReactBatchKernel` advances N config-sharing
:class:`~repro.buffers.react_adapter.ReactBuffer` systems per step through
shared numpy state arrays, one row per lane: the last-level buffer lives in
a ``(lanes,)`` charge array and the reconfigurable fabric in
``(lanes, bank_count)`` cell-voltage / state-code arrays, so the per-step
harvest / draw / leakage / replenishment arithmetic and the controller's
10 Hz poll all vectorize across lanes.

Why this shape: profiling the scalar REACT quick cells (PR 10 prelude)
puts ~80 % of the wall-clock in bank-array stepping —
``ReactHardware.replenish`` (~2.4 s cumulative over 4 cells),
``harvest``/``_lowest_voltage_element`` (~3.4 s) and ``apply_leakage``
(~1.2 s) against ~0.2 s for ``ReactController.poll`` — so the kernel
vectorizes the per-step electrical recurrences wholesale and runs the
(rare, per-lane-divergent) controller policy as masked lane-group updates
on the shared poll grid.

Layout
------

* ``_ll_charge (lanes,)`` — last-level buffer charge (coulombs; the scalar
  :class:`~repro.capacitors.capacitor.Capacitor` is charge-domain, so the
  kernel is too — every voltage read mirrors its ``charge / capacitance``).
* ``_cell_v (lanes, B)`` / ``_state (lanes, B)`` — per-bank cell voltage
  and connection state (0 = disconnected, 1 = series, 2 = parallel; the
  scalar state machine's step_up/step_down become masked ``±1`` column
  updates).
* controller state (``_next_poll``, ``_last_expansion``, ``_last_signal``)
  and integer action counters as per-lane arrays, written back as deltas.
* hardware loss counters (``energy_clipped`` / ``energy_leaked`` /
  ``transfer_loss``) as *absolute* per-lane arrays plus the adapter's
  baseline arrays: the adapter's baseline-delta dance
  (``clipped_now = counter - baseline; baseline = counter``) is not
  bitwise reproducible from deltas alone (``(c + x) - c != x``), so the
  kernel replicates the absolute arithmetic exactly.

Bit-equality notes
------------------

Every expression mirrors its scalar counterpart operation for operation
(the repo-wide discipline the differential suite pins):

* **Element selection**: the scalar harvest scan keeps the *first strict
  minimum* (last-level first, then banks in order) and the replenish scan
  the *first maximum* — both are exactly ``np.argmin`` / ``np.argmax``
  first-occurrence semantics over a column-ordered candidate matrix with
  ±inf masking the ineligible entries.
* **Sequential column adds**: wherever the scalar code runs a Python
  reduction (leakage summed last-level-then-banks into ``energy_leaked``),
  the kernel adds columns one at a time in the same order instead of
  ``np.sum``.
* **Masked no-ops**: a masked-out lane's arrays are bit-unchanged.  Zero
  energy / zero load / zero ``dt`` are natural no-ops of the charge-domain
  updates (``x + 0.0 == x``, ``x - x == +0.0``); the one hazard is the
  bank-leakage charge round trip ``(unit * v - 0.0) / unit``, which can
  shift an ulp at ``dt == 0`` and is therefore committed only where
  ``dt > 0``.  Replenishment and polling are likewise gated on
  ``dt > 0`` because the scalar housekeeping only runs for real steps.
* **Controller loops**: the scalar reclamation loop (step_down →
  replenish → resample, at most ``2 * B`` rounds) runs as a masked
  fixed-point iteration with the same per-round sampling, so
  ``monitor.last_signal`` latches identically.

The kernel inherits the generic full-batch segment replay from
:class:`~repro.buffers.base.LockstepKernel`
(``fast_forward_needs_full_batch = True``: one replayed step costs about a
main-loop step, so partial-group replay would run the heavy hooks twice
per simulated step).  REACT's overhead current is state-dependent
(:attr:`dynamic_overhead`), so the replay override adds
``overhead_current`` per step inside :meth:`_replay_load` — mirroring the
scalar ``fast_forward`` loops, which re-evaluate it every step — and the
batch engine adds it after load assembly instead of caching it.

:class:`~repro.buffers.capybara.CapybaraBuffer` does **not** share this
kernel: it is a different architecture (base + task capacitor with
software-directed surplus steering, no bank fabric) that extends
``EnergyBuffer`` directly, so it keeps the scalar engine and the explicit
stays-scalar test in ``tests/test_batch_engine.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.buffers.base import EnergyBuffer, LockstepKernel
from repro.buffers.react_adapter import ReactBuffer
from repro.capacitors.leakage import VoltageProportionalLeakage
from repro.capacitors.switches import SwitchState
from repro.core.bank import BankState
from repro.platform.monitor import BufferSignal

#: Bank connection state codes (int8 column values of ``_state``).
_STATE_CODE = {
    BankState.DISCONNECTED: 0,
    BankState.SERIES: 1,
    BankState.PARALLEL: 2,
}
_CODE_STATE = {code: state for state, code in _STATE_CODE.items()}

#: DPDT throw position for each bank state (both poles gang together).
_SWITCH_FOR_STATE = {
    BankState.DISCONNECTED: SwitchState.OPEN,
    BankState.SERIES: SwitchState.POSITION_A,
    BankState.PARALLEL: SwitchState.POSITION_B,
}

#: Voltage-monitor signal codes (int8 values of ``_last_signal``).
_SIGNAL_CODE = {
    BufferSignal.OK: 0,
    BufferSignal.NEAR_FULL: 1,
    BufferSignal.NEAR_EMPTY: 2,
}
_CODE_SIGNAL = {code: signal for signal, code in _SIGNAL_CODE.items()}


class ReactBatchKernel(LockstepKernel):
    """Lockstep kernel over N REACT lanes sharing one ``ReactConfig``."""

    #: The kernel's overhead current depends on live state (output voltage
    #: and connected-bank count), so the batch engine must not cache it at
    #: batch start: it zeroes the static overhead contribution instead and
    #: adds :meth:`overhead_current` to the assembled load every step.
    dynamic_overhead = True

    #: Opt in to shared-expiry hint clustering
    #: (:func:`~repro.sim.segments.cluster_expiry_budgets`): the full-batch
    #: replay only fires when *every* on lane agrees, so trading a step or
    #: two of skip length to keep near-coincident lanes phase-locked wins
    #: here (~13% on the 80-lane hint sweep).  Kernels whose lanes replay
    #: fine unaligned profile slower with clustering, so it is per-kernel
    #: opt-in rather than an engine default.
    wants_expiry_clustering = True

    #: The buffer class whose lanes this kernel hosts.
    buffer_type = ReactBuffer

    #: Narrowest lane group worth a lockstep batch (see
    #: :func:`repro.sim.batch.lane_floor`): the crossover
    #: ``benchmarks/crossover.py`` measured on a 2-core host, batch/serial
    #: median (wins of 5) 1.31 (1) on RF Cart and 1.34 (0) on RF Mobile at
    #: 20 lanes, 0.63 (5) and 0.65 (5) at 40 lanes.
    min_lanes = 40

    def __init__(self, buffers: Sequence[ReactBuffer]) -> None:
        self.buffers: List[ReactBuffer] = list(buffers)
        n = len(self.buffers)
        template = self.buffers[0]
        config = template.config
        hardware = template.hardware
        last_level = hardware.last_level

        # -- shared constants (equal across lanes by batch_key) ----------------
        self._C_ll = last_level.capacitance
        self._vmax = config.max_voltage
        # Mirrors Capacitor.charge_with_energy's clamp constant expression.
        rated = last_level.rated_voltage
        self._ll_max_energy = 0.5 * self._C_ll * rated * rated
        self._harvest_thresh_ll = self._vmax - 1e-9
        ll_leakage = last_level.leakage
        assert isinstance(ll_leakage, VoltageProportionalLeakage)
        self._ll_rated_current = ll_leakage.rated_current
        self._ll_rated_voltage = ll_leakage.rated_voltage
        self._high = config.high_threshold
        self._low = config.low_threshold
        self._poll_period = config.poll_period
        self._expansion_min_interval = template.controller.expansion_min_interval
        self._brownout = config.brownout_voltage
        self._instrumentation_power = config.instrumentation_power
        self._per_bank_power = config.per_bank_overhead_power

        banks = hardware.banks
        B = len(banks)
        self._B = B
        counts: List[int] = []
        units: List[float] = []
        half_units: List[float] = []
        count_units: List[float] = []
        series_eqC: List[float] = []
        parallel_eqC: List[float] = []
        harvest_thresh_s: List[float] = []
        harvest_thresh_p: List[float] = []
        absorb_max_s: List[float] = []
        absorb_max_p: List[float] = []
        leak_prop: List[bool] = []
        leak_rc: List[float] = []
        leak_rv: List[float] = []
        leak_cc: List[float] = []
        for bank in banks:
            count = bank.spec.count
            unit = bank.spec.unit_capacitance
            rated_cell = bank.rated_cell_voltage
            counts.append(count)
            units.append(unit)
            half_units.append(0.5 * unit)
            count_units.append(count * unit)
            series_eqC.append(bank.spec.series_capacitance)
            parallel_eqC.append(bank.spec.parallel_capacitance)
            # _lowest_voltage_element's per-state selection ceilings.
            ceiling = rated_cell * count
            if ceiling > self._vmax:
                ceiling = self._vmax
            harvest_thresh_s.append(ceiling - 1e-9)
            ceiling = rated_cell
            if ceiling > self._vmax:
                ceiling = self._vmax
            harvest_thresh_p.append(ceiling - 1e-9)
            # absorb_energy's per-state clamp energies, with the exact scalar
            # expression shapes (hardware always passes max_output_voltage =
            # config.max_voltage).
            ceiling = rated_cell * count
            clamp_output = self._vmax if self._vmax < ceiling else ceiling
            clamp_cell = clamp_output / count
            absorb_max_s.append(count * (0.5 * unit * clamp_cell * clamp_cell))
            ceiling = rated_cell
            clamp_output = self._vmax if self._vmax < ceiling else ceiling
            clamp_cell = clamp_output
            absorb_max_p.append(count * (0.5 * unit * clamp_cell * clamp_cell))
            leakage = bank.leakage
            if isinstance(leakage, VoltageProportionalLeakage):
                leak_prop.append(True)
                leak_rc.append(leakage.rated_current)
                leak_rv.append(leakage.rated_voltage)
                leak_cc.append(0.0)
            else:  # ConstantCurrentLeakage (enforced by batch_key)
                leak_prop.append(False)
                leak_rc.append(0.0)
                leak_rv.append(1.0)
                leak_cc.append(leakage.leakage_current)
        self._counts = counts
        self._count_units = count_units
        self._series_eqC = np.array(series_eqC)
        self._parallel_eqC = np.array(parallel_eqC)
        self._counts_row = np.array(counts, dtype=np.int64)
        self._counts_f = np.array(counts, dtype=float)
        # (B,) parameter rows for the bank-matrix expressions; broadcasting
        # a row against a ``(lanes, B)`` state matrix performs the exact
        # per-element float arithmetic the scalar per-bank code does, in
        # one numpy dispatch instead of B.
        self._units_row = np.array(units)
        self._half_units_row = np.array(half_units)
        self._harvest_thresh_s_row = np.array(harvest_thresh_s)
        self._harvest_thresh_p_row = np.array(harvest_thresh_p)
        self._absorb_max_s = absorb_max_s
        self._absorb_max_p = absorb_max_p
        self._leak_prop_row = np.array(leak_prop, dtype=bool)
        self._leak_rc_row = np.array(leak_rc)
        self._leak_rv_row = np.array(leak_rv)
        self._leak_cc_row = np.array(leak_cc)

        # -- per-lane state (warm start from the live objects) -----------------
        self._ll_charge = np.array([b.hardware.last_level._charge for b in buffers])
        self._cell_v = np.array(
            [[bank.cell_voltage for bank in b.hardware.banks] for b in buffers]
        ).reshape(n, B)
        self._state = np.array(
            [[_STATE_CODE[bank.state] for bank in b.hardware.banks] for b in buffers],
            dtype=np.int8,
        ).reshape(n, B)
        # Connected-bank count per lane, maintained incrementally at the
        # (rare) state transitions so the per-step hot paths can gate all
        # bank-matrix work on a single ``any()`` instead of re-deriving
        # connectivity from ``_state`` every call.
        self._n_connected = (self._state != 0).sum(axis=1)
        self._next_poll = np.array([b.controller._next_poll_time for b in buffers])
        self._last_expansion = np.array(
            [b.controller._last_expansion_time for b in buffers]
        )
        self._last_signal = np.array(
            [_SIGNAL_CODE[b.hardware.monitor.last_signal] for b in buffers],
            dtype=np.int8,
        )
        self._software = np.array([b._software_overhead_current for b in buffers])
        # Controller action counters, accumulated as deltas.
        self._poll_delta = np.zeros(n, dtype=np.int64)
        self._up_delta = np.zeros(n, dtype=np.int64)
        self._down_delta = np.zeros(n, dtype=np.int64)
        self._reconfig_delta = np.zeros((n, B), dtype=np.int64)
        # Hardware loss counters (absolute) + the adapter's baselines.
        self._hw_clipped = np.array([b.hardware.energy_clipped for b in buffers])
        self._hw_leaked = np.array([b.hardware.energy_leaked for b in buffers])
        self._hw_transfer = np.array([b.hardware.transfer_loss for b in buffers])
        self._clip_base = np.array([b._clip_baseline for b in buffers])
        self._leak_base = np.array([b._leak_baseline for b in buffers])
        self._transfer_base = np.array([b._transfer_baseline for b in buffers])
        # Last-level capacitor's own EnergyLedger (absolute) and per-bank
        # cumulative leakage (absolute).
        self._cap_absorbed = np.array(
            [b.hardware.last_level.ledger.absorbed for b in buffers]
        )
        self._cap_delivered = np.array(
            [b.hardware.last_level.ledger.delivered for b in buffers]
        )
        self._cap_clipped = np.array(
            [b.hardware.last_level.ledger.clipped for b in buffers]
        )
        self._cap_leaked = np.array(
            [b.hardware.last_level.ledger.leaked for b in buffers]
        )
        self._bank_leaked = np.array(
            [[bank.energy_leaked for bank in b.hardware.banks] for b in buffers]
        ).reshape(n, B)
        # BufferLedger accumulators (deltas folded into the adapter's ledger
        # at finalize; fresh-system start state is 0.0, so a delta fold is
        # the exact sequential-add replay).
        self.offered = np.zeros(n)
        self.stored = np.zeros(n)
        self.clipped = np.zeros(n)
        self.delivered = np.zeros(n)
        self.leaked = np.zeros(n)
        self.switching = np.zeros(n)
        # Power-gate phase mask, pushed by the batch engine before every
        # housekeeping call; the scalar controller is software and only
        # polls while the platform is on.  ``_phase_on`` pins the phase
        # during segment replay (the engine is not in the loop there).
        self._system_on = np.zeros(n, dtype=bool)
        self._phase_on: Optional[bool] = None
        self._rows = np.arange(n)

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, buffers: Sequence[EnergyBuffer]) -> Optional["ReactBatchKernel"]:
        """A kernel spanning ``buffers``, or None if any lane doesn't fit."""
        if not all(isinstance(b, cls.buffer_type) and b.can_batch() for b in buffers):
            return None
        if len({b.batch_key() for b in buffers}) != 1:
            return None
        return cls(buffers)

    def __len__(self) -> int:
        return len(self.buffers)

    # -- telemetry ---------------------------------------------------------------

    @property
    def voltage(self) -> np.ndarray:
        """Per-lane output voltage (the last-level buffer's terminal)."""
        return self._ll_charge / self._C_ll

    def post_harvest_voltage_bound(self, energy: np.ndarray) -> np.ndarray:
        """Vector mirror of :meth:`ReactBuffer.post_harvest_voltage_bound`."""
        voltage = self._ll_charge / self._C_ll
        positive = energy > 0.0
        masked = np.where(positive, energy, 0.0)
        return np.where(
            positive,
            np.sqrt(voltage * voltage + 2.0 * masked / self._C_ll),
            voltage,
        )

    def drained_mask(self, enable_voltage: np.ndarray) -> np.ndarray:
        """Lanes that can no longer restart (mirror of ``can_reach_voltage``).

        The output only rises (without input) via bank replenishment, and a
        bank can only lift the last-level buffer toward its own output
        voltage, so a lane is drained once its output *and* every connected
        bank output sit at or below the enable voltage.
        """
        out = self._ll_charge / self._C_ll
        if self._B == 0 or not np.count_nonzero(self._n_connected):
            best = np.full(len(self.buffers), float("-inf"))
        else:
            bank_out = np.where(
                self._state == 1,
                self._cell_v * self._counts_row,
                np.where(self._state == 2, self._cell_v, float("-inf")),
            )
            best = bank_out.max(axis=1)
        return (out < enable_voltage) & ~(best > enable_voltage)

    def overhead_current(self, system_on) -> np.ndarray:
        """Vector mirror of :meth:`ReactBuffer.overhead_current`.

        ``system_on`` may be a scalar bool (segment replay pins one phase)
        or the engine's per-lane enabled mask.
        """
        voltage = np.maximum(self._ll_charge / self._C_ll, self._brownout)
        hardware_power = self._instrumentation_power + (
            self._n_connected * self._per_bank_power
        )
        hardware_current = hardware_power / voltage
        return np.where(
            system_on, hardware_current + self._software, hardware_current
        )

    # -- engine hooks ------------------------------------------------------------

    def set_system_on(self, enabled: np.ndarray) -> None:
        """Record the power-gate mask for the next ``housekeeping`` call."""
        self._system_on = enabled

    def harvest(self, energy: np.ndarray) -> None:
        """Vector mirror of ``ReactBuffer.harvest`` + ``ReactHardware.harvest``.

        The scalar harvest loop repeatedly drops ``remaining`` on the
        lowest-voltage eligible element (last-level buffer first on ties,
        then banks in order) until nothing is eligible or nothing sticks;
        with ``1 + B`` elements it runs at most ``1 + B`` rounds.  Each
        round vectorizes as an argmin over a ±inf-masked candidate-voltage
        matrix with per-element-group masked commits.
        """
        self.offered += energy
        n = len(self.buffers)
        B = self._B
        C = self._C_ll
        remaining = energy
        stored_total = np.zeros(n)
        active = remaining > 0.0
        rows = self._rows
        inf = np.inf
        cand = np.empty((n, 1 + B))
        # Only connected banks are eligible, harvest never reconfigures,
        # and lanes spend long stretches with every bank disconnected —
        # gate all bank-matrix work on the maintained connectivity count.
        banks_live = B > 0 and bool(np.count_nonzero(self._n_connected))
        if B and not banks_live:
            cand[:, 1:] = inf
        for _ in range(1 + B):
            if not np.count_nonzero(active):
                break
            # -- _lowest_voltage_element as a first-occurrence argmin --
            ll_v = self._ll_charge / C
            cand[:, 0] = np.where(ll_v < self._harvest_thresh_ll, ll_v, inf)
            if banks_live:
                state = self._state
                cell = self._cell_v
                series = state == 1
                out = np.where(series, cell * self._counts_row, cell)
                thresh = np.where(
                    series,
                    self._harvest_thresh_s_row,
                    self._harvest_thresh_p_row,
                )
                cand[:, 1:] = np.where((state != 0) & (out < thresh), out, inf)
            chosen = cand.argmin(axis=1)
            active = active & (cand[rows, chosen] < inf)
            if not np.count_nonzero(active):
                break
            stored_step = np.zeros(n)
            rem_m = np.where(active, remaining, 0.0)
            # -- last-level branch: Capacitor.charge_with_energy --
            mask = active & (chosen == 0)
            if np.count_nonzero(mask):
                q = self._ll_charge
                v = q / C
                present = 0.5 * C * v * v
                new_energy = present + rem_m
                new_energy = np.where(
                    new_energy > self._ll_max_energy, self._ll_max_energy, new_energy
                )
                stored_cap = new_energy - present
                clipped_cap = rem_m - stored_cap
                new_q = C * np.sqrt(2.0 * new_energy / C)
                v2 = new_q / C
                after = 0.5 * C * v2 * v2
                # `before` (the adapter reads last_level.energy) is the same
                # expression as `present`, so stored == after - present.
                self._ll_charge = np.where(mask, new_q, q)
                self._cap_absorbed += np.where(mask, stored_cap, 0.0)
                self._cap_clipped += np.where(mask, clipped_cap, 0.0)
                stored_step = np.where(mask, after - present, stored_step)
            # -- bank branches: CapacitorBank.absorb_energy --
            if banks_live:
                # One bincount tells which bank columns were actually chosen,
                # so unselected banks cost nothing.
                counts_sel = np.bincount(
                    np.where(active, chosen, 0), minlength=1 + B
                )
                for j in range(B):
                    if not counts_sel[j + 1]:
                        continue
                    mask = active & (chosen == j + 1)
                    st = self._state[:, j]
                    v = self._cell_v[:, j]
                    max_energy = np.where(
                        st == 1, self._absorb_max_s[j], self._absorb_max_p[j]
                    )
                    stored_now = self._counts[j] * (self._half_units_row[j] * v * v)
                    stored_j = np.minimum(
                        rem_m, np.maximum(0.0, max_energy - stored_now)
                    )
                    ok = mask & (stored_j > 0.0)
                    if np.count_nonzero(ok):
                        new_energy = stored_now + np.where(ok, stored_j, 0.0)
                        new_cell = np.sqrt(2.0 * new_energy / self._count_units[j])
                        self._cell_v[:, j] = np.where(ok, new_cell, v)
                        stored_step = np.where(ok, stored_j, stored_step)
            # -- loop bookkeeping (scalar: break when stored <= 0) --
            add = active & (stored_step > 0.0)
            stored_total = np.where(add, stored_total + stored_step, stored_total)
            remaining = np.where(add, remaining - stored_step, remaining)
            active = add & (remaining > 0.0)
        self._hw_clipped = self._hw_clipped + np.maximum(0.0, remaining)
        # -- adapter ledger sync (ReactBuffer.harvest) --
        self.stored += stored_total
        clipped_now = self._hw_clipped - self._clip_base
        self._clip_base = self._hw_clipped.copy()
        self.clipped += clipped_now

    def draw(self, current: np.ndarray, dt: np.ndarray) -> None:
        """Vector mirror of ``Capacitor.discharge_current`` (v_floor = 0)."""
        C = self._C_ll
        q = self._ll_charge
        v = q / C
        before = 0.5 * C * v * v
        new_q = np.maximum(q - current * dt, 0.0)
        self._ll_charge = new_q
        v2 = new_q / C
        delivered = before - 0.5 * C * v2 * v2
        self._cap_delivered += delivered
        self.delivered += delivered

    def housekeeping(self, time: np.ndarray, dt: np.ndarray) -> None:
        """Replenish → leakage → (on lanes) poll + replenish → ledger sync.

        Mirrors ``ReactBuffer.housekeeping``.  The scalar adapter calls
        replenish unconditionally, but a masked lane (``dt == 0``, clock
        pinned to -inf) must stay bit-unchanged, so every mover here is
        gated on ``dt > 0``; leakage is arithmetically a no-op at
        ``dt == 0`` except for the bank cell-voltage round trip, which
        :meth:`_apply_leakage` masks.
        """
        active = dt > 0.0
        self._replenish(active)
        self._apply_leakage(dt, active)
        if self._phase_on is None:
            on = self._system_on & active
        elif self._phase_on:
            on = active
        else:
            on = None
        if on is not None and np.count_nonzero(on):
            self._poll(time, on)
            self._replenish(on)
        self._sync_ledger()

    # -- segment replay ----------------------------------------------------------

    def fast_forward(self, energy_in, load, dt, times, plan):
        """Off-phase replay with the controller pinned off.

        The generic replay masks frozen lanes by zero ``dt``; REACT's
        housekeeping additionally needs the phase (the engine is not in
        the loop to push ``set_system_on``), and the scalar off-phase
        replay never polls.
        """
        self._phase_on = False
        try:
            return super().fast_forward(energy_in, load, dt, times, plan)
        finally:
            self._phase_on = None

    def fast_forward_on(self, energy_in, load, dt, times, plan, brownout_floor):
        """On-phase replay: every stepping lane polls on its own grid."""
        self._phase_on = True
        try:
            return super().fast_forward_on(
                energy_in, load, dt, times, plan, brownout_floor
            )
        finally:
            self._phase_on = None

    def _replay_load(self, load, stepping, system_on):
        """Add the state-dependent overhead per replayed step.

        The scalar ``fast_forward`` loops draw
        ``load + overhead_current(phase)`` each step; the batch engine
        passes overhead-free loads for ``dynamic_overhead`` kernels, so
        the same re-evaluation happens here.
        """
        return np.where(stepping, load + self.overhead_current(system_on), 0.0)

    # -- internal physics --------------------------------------------------------

    def _replenish(self, mask: np.ndarray) -> None:
        """Vector mirror of ``ReactHardware.replenish`` for lanes in ``mask``.

        Each round moves charge from the highest-output connected bank
        (first-maximum scan → argmax) into the last-level buffer by exact
        capacitor equalization; a lane keeps going until no bank sits more
        than the diode margin above the sink, for at most B rounds.
        """
        B = self._B
        # Mirrors the scalar's `if not connected: return` — and skips the
        # whole matrix scan during the (long) all-disconnected stretches.
        if (
            B == 0
            or not np.count_nonzero(self._n_connected)
            or not np.count_nonzero(mask)
        ):
            return
        minus_inf = float("-inf")
        Ck = self._C_ll
        rows = self._rows
        act = mask
        for _ in range(B):
            if not np.count_nonzero(act):
                break
            state = self._state
            out = np.where(
                state == 1,
                self._cell_v * self._counts_row,
                np.where(state == 2, self._cell_v, minus_inf),
            )
            src = out.argmax(axis=1)
            source_v = out[rows, src]
            sink_v = self._ll_charge / Ck
            go = act & (source_v > sink_v + 1e-9)
            act = go
            if not np.count_nonzero(act):
                break
            # Mask the voltages so dropped lanes never produce inf - inf.
            Vs = np.where(go, source_v, 0.0)
            Vk = sink_v
            st_src = state[rows, src]
            Cs = np.where(
                st_src == 1, self._series_eqC[src], self._parallel_eqC[src]
            )
            total = Cs + Ck
            fv = (Cs * Vs + Ck * Vk) / total
            initial = 0.5 * Cs * Vs * Vs + 0.5 * Ck * Vk * Vk
            dissipated = initial - (0.5 * total * fv * fv)
            dissipated = np.where(dissipated < 0.0, 0.0, dissipated)
            over = go & (fv > self._vmax)
            if np.count_nonzero(over):
                before = 0.5 * Cs * fv * fv + 0.5 * Ck * fv * fv
                clamped = np.where(over, self._vmax, fv)
                after = 0.5 * Cs * clamped * clamped + 0.5 * Ck * clamped * clamped
                self._hw_clipped = self._hw_clipped + np.where(
                    over, np.maximum(0.0, before - after), 0.0
                )
                fv = clamped
            # source.set_output_voltage(fv) on the chosen column only.
            new_cell = np.where(st_src == 1, fv / self._counts_f[src], fv)
            go_rows = np.nonzero(go)[0]
            self._cell_v[go_rows, src[go_rows]] = new_cell[go_rows]
            # last_level.set_voltage(fv): charge-domain commit.
            self._ll_charge = np.where(go, Ck * fv, self._ll_charge)
            self._hw_transfer = self._hw_transfer + np.where(go, dissipated, 0.0)

    def _apply_leakage(self, dt: np.ndarray, active: np.ndarray) -> None:
        """Vector mirror of ``ReactHardware.apply_leakage``.

        Last level first, then every bank in order, with the per-element
        losses added to ``energy_leaked`` sequentially (the scalar sum is
        a Python left fold, never ``np.sum``).
        """
        C = self._C_ll
        q = self._ll_charge
        v = q / C
        current = np.where(
            v > 0.0,
            self._ll_rated_current * (v / self._ll_rated_voltage),
            0.0,
        )
        lost = np.minimum(current * dt, q)
        before = 0.5 * C * v * v
        new_q = q - lost
        self._ll_charge = new_q
        v2 = new_q / C
        leaked = before - 0.5 * C * v2 * v2
        self._cap_leaked += leaked
        total = leaked
        # An empty bank early-returns 0.0 in the scalar (no arithmetic, no
        # counter writes), and a `+ 0.0` fold over a nonnegative total is
        # bit-exact to skipping it, so the whole bank matrix is gated on
        # any cell holding charge.  The bank expressions run as one
        # ``(lanes, B)`` broadcast against the (B,) parameter rows —
        # per-element float arithmetic identical to the scalar per-bank
        # loop, in a handful of dispatches instead of ~16 per bank.
        if self._B and np.count_nonzero(self._cell_v > 0.0):
            V = self._cell_v
            charged = V > 0.0
            current = np.where(
                charged,
                np.where(
                    self._leak_prop_row,
                    self._leak_rc_row * (V / self._leak_rv_row),
                    self._leak_cc_row,
                ),
                0.0,
            )
            before = self._counts_row * (self._half_units_row * V * V)
            new_cell_charge = self._units_row * V - current * dt[:, None]
            new_cell_charge = np.where(new_cell_charge < 0.0, 0.0, new_cell_charge)
            new_v = new_cell_charge / self._units_row
            after = self._counts_row * (self._half_units_row * new_v * new_v)
            # The charge round trip shifts ulps at dt == 0 (scalar never
            # runs it), so commit only real steps on charged cells.
            apply = active[:, None] & charged
            leaked_mat = np.where(apply, before - after, 0.0)
            self._cell_v = np.where(apply, new_v, V)
            self._bank_leaked = self._bank_leaked + leaked_mat
            # energy_leaked is a Python left fold in the scalar: add the
            # bank columns one at a time, in bank order.
            for j in range(self._B):
                total = total + leaked_mat[:, j]
        self._hw_leaked = self._hw_leaked + total

    def _signal_code(self, voltage: np.ndarray) -> np.ndarray:
        """Vector mirror of ``VoltageMonitor.sample`` (without the latch)."""
        return np.where(
            voltage >= self._high,
            np.int8(_SIGNAL_CODE[BufferSignal.NEAR_FULL]),
            np.where(
                voltage <= self._low,
                np.int8(_SIGNAL_CODE[BufferSignal.NEAR_EMPTY]),
                np.int8(_SIGNAL_CODE[BufferSignal.OK]),
            ),
        ).astype(np.int8)

    def _poll(self, time: np.ndarray, on: np.ndarray) -> None:
        """Vector mirror of ``ReactController.poll`` for powered lanes.

        Expansion picks the first bank (connection order) that can step up;
        reclamation repeatedly steps the *last* steppable bank down,
        replenishes, and resamples, for at most ``2 * B`` rounds per poll
        — both as masked lane-group column updates.
        """
        due = on & (time >= self._next_poll)
        if not np.count_nonzero(due):
            return
        self._next_poll = np.where(due, time + self._poll_period, self._next_poll)
        self._poll_delta += due
        signal = self._signal_code(self._ll_charge / self._C_ll)
        self._last_signal = np.where(due, signal, self._last_signal)
        B = self._B
        full_code = np.int8(_SIGNAL_CODE[BufferSignal.NEAR_FULL])
        empty_code = np.int8(_SIGNAL_CODE[BufferSignal.NEAR_EMPTY])
        # -- NEAR_FULL: rate-limited single expansion step --
        full = due & (signal == full_code)
        if B and np.count_nonzero(full):
            safe_time = np.where(due, time, 0.0)
            can = full & (
                safe_time - self._last_expansion >= self._expansion_min_interval
            )
            if np.count_nonzero(can):
                up_ok = self._state != 2
                doing = can & up_ok.any(axis=1)
                if np.count_nonzero(doing):
                    col = up_ok.argmax(axis=1)
                    rows = np.nonzero(doing)[0]
                    cols = col[rows]
                    was_disconnected = self._state[rows, cols] == 0
                    self._state[rows, cols] += 1
                    self._n_connected[rows] += was_disconnected
                    self._reconfig_delta[rows, cols] += 1
                    self._up_delta += doing
                    self._last_expansion = np.where(
                        doing, time, self._last_expansion
                    )
        # -- NEAR_EMPTY: unlimited reclamation loop --
        empty = due & (signal == empty_code)
        if B and np.count_nonzero(empty):
            stepping = empty
            steps = np.zeros(len(self.buffers), dtype=np.int64)
            cap = 2 * B
            for _ in range(cap):
                down_ok = self._state != 0
                stepping = stepping & down_ok.any(axis=1)
                if not np.count_nonzero(stepping):
                    break
                col = (B - 1) - down_ok[:, ::-1].argmax(axis=1)
                rows = np.nonzero(stepping)[0]
                cols = col[rows]
                self._state[rows, cols] -= 1
                self._n_connected[rows] -= self._state[rows, cols] == 0
                self._reconfig_delta[rows, cols] += 1
                self._down_delta += stepping
                steps = steps + stepping
                self._replenish(stepping)
                signal = self._signal_code(self._ll_charge / self._C_ll)
                self._last_signal = np.where(stepping, signal, self._last_signal)
                stepping = stepping & (signal == empty_code) & (steps < cap)

    def _sync_ledger(self) -> None:
        """Vector mirror of ``ReactBuffer._sync_ledger`` (same field order)."""
        leaked_now = self._hw_leaked - self._leak_base
        self._leak_base = self._hw_leaked.copy()
        self.leaked += leaked_now
        transfer_now = self._hw_transfer - self._transfer_base
        self._transfer_base = self._hw_transfer.copy()
        self.switching += transfer_now
        clipped_now = self._hw_clipped - self._clip_base
        self._clip_base = self._hw_clipped.copy()
        self.clipped += clipped_now

    # -- lane lifecycle ----------------------------------------------------------

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired lanes from the shared arrays."""
        self.buffers = [b for b, k in zip(self.buffers, keep) if k]
        for name in (
            "_ll_charge", "_cell_v", "_state", "_n_connected", "_next_poll",
            "_last_expansion",
            "_last_signal", "_software", "_poll_delta", "_up_delta",
            "_down_delta", "_reconfig_delta", "_hw_clipped", "_hw_leaked",
            "_hw_transfer", "_clip_base", "_leak_base", "_transfer_base",
            "_cap_absorbed", "_cap_delivered", "_cap_clipped", "_cap_leaked",
            "_bank_leaked", "offered", "stored", "clipped", "delivered",
            "leaked", "switching", "_system_on",
        ):
            setattr(self, name, getattr(self, name)[keep])
        self._rows = np.arange(len(self.buffers))

    def sync_lane(self, index: int) -> None:
        """Refresh lane ``index``'s objects so Python code can read them.

        Workload step contexts read output voltage, usable energy,
        capacitance (level) and stored energy — all functions of the
        last-level charge and the bank states/voltages.
        """
        buffer = self.buffers[index]
        hardware = buffer.hardware
        hardware.last_level._charge = float(self._ll_charge[index])
        states = self._state[index]
        for j, bank in enumerate(hardware.banks):
            bank.cell_voltage = float(self._cell_v[index, j])
            bank.state = _CODE_STATE[int(states[j])]
        hardware._invalidate_topology()

    def sync_lanes(self, indices: Sequence[int]) -> None:
        """Refresh every buffer object in ``indices`` in one pass."""
        for index in indices:
            self.sync_lane(index)

    def finalize_lane(self, index: int) -> ReactBuffer:
        """Write lane ``index``'s array state back into its component objects.

        After this the lane's system is indistinguishable from a
        scalar-simulated one: charge/state/counters land exactly, the
        switch poles replay one actuation per bank transition (every
        transition moves the ganged DPDT between distinct positions, so
        both poles actuate every time, with their per-actuation energy
        added sequentially), and the adapter's ledger deltas fold in with
        one add per field (exact because a fresh system's ledger starts
        at 0.0).
        """
        buffer = self.buffers[index]
        hardware = buffer.hardware
        last_level = hardware.last_level
        last_level._charge = float(self._ll_charge[index])
        cap_ledger = last_level.ledger
        cap_ledger.absorbed = float(self._cap_absorbed[index])
        cap_ledger.delivered = float(self._cap_delivered[index])
        cap_ledger.clipped = float(self._cap_clipped[index])
        cap_ledger.leaked = float(self._cap_leaked[index])
        for j, bank in enumerate(hardware.banks):
            bank.cell_voltage = float(self._cell_v[index, j])
            bank.energy_leaked = float(self._bank_leaked[index, j])
            new_state = _CODE_STATE[int(self._state[index, j])]
            transitions = int(self._reconfig_delta[index, j])
            bank.state = new_state
            if transitions:
                bank.reconfiguration_count += transitions
                target = _SWITCH_FOR_STATE[new_state]
                switch = bank.switch
                for pole in (switch.pole_a, switch.pole_b):
                    pole.state = target
                    pole.actuation_count += transitions
                    spent = pole.energy_spent
                    for _ in range(transitions):
                        spent += pole.actuation_energy
                    pole.energy_spent = spent
        hardware._invalidate_topology()
        hardware.energy_clipped = float(self._hw_clipped[index])
        hardware.energy_leaked = float(self._hw_leaked[index])
        hardware.transfer_loss = float(self._hw_transfer[index])
        hardware.monitor.last_signal = _CODE_SIGNAL[int(self._last_signal[index])]
        controller = buffer.controller
        controller._next_poll_time = float(self._next_poll[index])
        controller._last_expansion_time = float(self._last_expansion[index])
        controller.poll_count += int(self._poll_delta[index])
        controller.step_up_count += int(self._up_delta[index])
        controller.step_down_count += int(self._down_delta[index])
        buffer._clip_baseline = float(self._clip_base[index])
        buffer._leak_baseline = float(self._leak_base[index])
        buffer._transfer_baseline = float(self._transfer_base[index])
        ledger = buffer.ledger
        ledger.offered += float(self.offered[index])
        ledger.stored += float(self.stored[index])
        ledger.clipped += float(self.clipped[index])
        ledger.delivered += float(self.delivered[index])
        ledger.leaked += float(self.leaked[index])
        ledger.switching_loss += float(self.switching[index])
        return buffer
