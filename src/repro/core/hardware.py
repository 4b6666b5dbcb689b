"""The REACT bank fabric: last-level buffer, banks, diodes, instrumentation.

:class:`ReactHardware` models the energy flows of Figure 2:

* the harvester charges, through input isolation diodes, whichever
  connected element (last-level buffer or bank) sits at the lowest output
  voltage;
* the load draws only from the last-level buffer;
* banks replenish the last-level buffer through their output isolation
  diodes whenever their output voltage exceeds it (highest-voltage bank
  first), so stored energy is fungible regardless of which bank holds it;
* two comparators watch the last-level buffer and report the three-state
  buffer signal the software controller polls.

Because banks are mutually isolated, the only dissipative charge motion is
the diode-gated equalization between a bank output and the last-level
buffer; that loss is recorded as ``transfer_loss`` and is what the
switching-loss ablation compares against Morphy's equalization cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.capacitors.capacitor import Capacitor
from repro.capacitors.diode import IdealDiode
from repro.capacitors.leakage import ConstantCurrentLeakage, VoltageProportionalLeakage
from repro.core.bank import BankState, CapacitorBank
from repro.core.config import ReactConfig
from repro.core.reclamation import stranded_energy_with_reclamation
from repro.platform.monitor import BufferSignal, VoltageMonitor
from repro.units import capacitor_energy


class ReactHardware:
    """Physical model of the REACT buffer fabric."""

    def __init__(self, config: ReactConfig, diode: Optional[IdealDiode] = None) -> None:
        self.config = config
        self.diode = diode or IdealDiode()
        self.last_level = Capacitor(
            capacitance=config.last_level_capacitance,
            rated_voltage=config.max_voltage,
            leakage=VoltageProportionalLeakage(
                rated_current=config.ceramic_leakage_per_farad
                * config.last_level_capacitance,
                rated_voltage=6.3,
            ),
            name="last-level",
        )
        self.banks: List[CapacitorBank] = []
        for index, spec in enumerate(config.banks, start=1):
            if spec.supercapacitor:
                leakage = ConstantCurrentLeakage(config.supercap_leakage_current)
            else:
                leakage = VoltageProportionalLeakage(
                    rated_current=config.ceramic_leakage_per_farad
                    * spec.unit_capacitance,
                    rated_voltage=6.3,
                )
            self.banks.append(
                CapacitorBank(
                    spec=spec,
                    rated_cell_voltage=config.max_voltage,
                    leakage=leakage,
                    name=spec.label or f"bank{index}",
                )
            )
        self.monitor = VoltageMonitor(
            high_threshold=config.high_threshold,
            low_threshold=config.low_threshold,
        )
        self.energy_clipped = 0.0
        self.energy_leaked = 0.0
        self.transfer_loss = 0.0
        self._connected_cache: Optional[List[CapacitorBank]] = None
        for bank in self.banks:
            bank.on_topology_change = self._invalidate_topology
        # Per-bank post-reclamation stranded energy is a pure function of the
        # (immutable) bank geometry and the low threshold; precomputing it
        # keeps usable_energy() — polled every step by longevity-aware
        # workloads — off the reclamation math.  Kept in bank order rather
        # than keyed by id(bank): identity does not survive a copy or pickle.
        self._stranded_floor = [
            stranded_energy_with_reclamation(
                bank.count, bank.unit_capacitance, config.low_threshold
            )
            for bank in self.banks
        ]

    def _invalidate_topology(self) -> None:
        self._connected_cache = None

    # -- telemetry -------------------------------------------------------------------

    @property
    def output_voltage(self) -> float:
        """Voltage on the last-level buffer (what the backend sees)."""
        return self.last_level.voltage

    @property
    def connected_banks(self) -> List[CapacitorBank]:
        """Banks currently contributing capacitance.

        Bank connectivity only changes on (rare) controller reconfiguration
        steps, while this list is consulted several times per simulation
        step; the cached copy is invalidated through the banks' topology
        observer.  Callers must not mutate the returned list.
        """
        cached = self._connected_cache
        if cached is None:
            cached = [bank for bank in self.banks if bank.is_connected]
            self._connected_cache = cached
        return cached

    @property
    def equivalent_capacitance(self) -> float:
        """Capacitance currently presented to the harvester and load."""
        # repro-lint: disable=ledger-sum -- telemetry read only from these objects (batch lanes sync back first), so every engine shares this one add order
        return self.last_level.capacitance + sum(
            bank.equivalent_capacitance for bank in self.connected_banks
        )

    @property
    def stored_energy(self) -> float:
        """Total energy stored anywhere in the fabric (including stranded charge)."""
        # repro-lint: disable=ledger-sum -- read only from these objects (batch lanes sync back before a workload reads it), so every engine shares this one add order
        return self.last_level.energy + sum(bank.stored_energy for bank in self.banks)

    @property
    def capacitance_level(self) -> int:
        """Number of controller step-ups currently applied (0 = bare last-level)."""
        level = 0
        for bank in self.banks:
            if bank.state is BankState.SERIES:
                level += 1
            elif bank.state is BankState.PARALLEL:
                level += 2
        return level

    def usable_energy(self) -> float:
        """Energy extractable before brown-out, assuming reclamation runs.

        The last-level buffer is usable down to the brown-out voltage; a
        connected bank is usable down to the post-reclamation stranded
        energy (§3.3.4).  This is the surrogate the longevity API gates on.
        """
        floor = capacitor_energy(
            self.last_level.capacitance, self.config.brownout_voltage
        )
        total = max(0.0, self.last_level.energy - floor)
        for bank, stranded in zip(self.banks, self._stranded_floor):
            if bank.is_connected:
                total += max(0.0, bank.stored_energy - stranded)
        return total

    def signal(self) -> BufferSignal:
        """Sample the voltage instrumentation."""
        return self.monitor.sample(self.last_level.voltage)

    # -- energy flow -------------------------------------------------------------------

    def harvest(self, energy: float) -> float:
        """Absorb harvested energy into the lowest-voltage connected element.

        Energy that cannot be stored anywhere (every element at the
        overvoltage clamp) is clipped.  Returns the energy stored.
        """
        if energy < 0.0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        remaining = energy
        stored_total = 0.0
        # Elements sorted by present output voltage: the input diodes steer
        # charging current to the lowest-voltage element first.
        for _ in range(1 + len(self.banks)):
            if remaining <= 0.0:
                break
            element = self._lowest_voltage_element()
            if element is None:
                break
            if element is self.last_level:
                before = self.last_level.energy
                self.last_level.charge_with_energy(remaining)
                stored = self.last_level.energy - before
            else:
                stored = element.absorb_energy(remaining, self.config.max_voltage)
            if stored <= 0.0:
                break
            stored_total += stored
            remaining -= stored
        self.energy_clipped += max(0.0, remaining)
        return stored_total

    def _lowest_voltage_element(self):
        """The connected element with the lowest output voltage and headroom.

        Single forward scan keeping the first strict minimum — equivalent
        to sorting by (voltage, connection order) and taking the head, but
        allocation-free, since this runs several times per simulation step.
        """
        max_voltage = self.config.max_voltage
        best = None
        best_voltage = 0.0
        if self.last_level.voltage < max_voltage - 1e-9:
            best = self.last_level
            best_voltage = self.last_level.voltage
        for bank in self.connected_banks:
            # Inlined bank.output_voltage / bank.max_output_voltage: the
            # scan runs for every harvesting step.
            if bank.state is BankState.SERIES:
                count = bank.spec.count
                voltage = bank.cell_voltage * count
                ceiling = bank.rated_cell_voltage * count
            else:
                voltage = bank.cell_voltage
                ceiling = bank.rated_cell_voltage
            if ceiling > max_voltage:
                ceiling = max_voltage
            if voltage < ceiling - 1e-9 and (best is None or voltage < best_voltage):
                best = bank
                best_voltage = voltage
        return best

    def draw(self, current: float, dt: float) -> float:
        """Supply the load from the last-level buffer; returns energy delivered."""
        return self.last_level.discharge_current(current, dt)

    def replenish(self) -> float:
        """Let the highest-voltage bank top up the last-level buffer.

        Models the output isolation diodes: charge flows from a bank to the
        last-level buffer whenever the bank output voltage is higher,
        equalizing the two.  Returns the energy that reached the last-level
        buffer; the equalization loss is accumulated in ``transfer_loss``.
        """
        moved_total = 0.0
        connected = self.connected_banks
        if not connected:
            return 0.0
        last_level = self.last_level
        sink_capacitance = last_level.capacitance
        max_voltage = self.config.max_voltage
        # Two-capacitor equalization: charge is conserved, so the final
        # voltage is the charge-weighted mean, and the energy above the
        # combination's is dissipated.  This runs once per step off and
        # twice on, on every stepped step, and
        # :func:`~repro.buffers.react_adapter.replay_segment` mirrors it
        # (same expressions, same evaluation order).
        for _ in range(len(self.banks)):
            source = None
            source_voltage = 0.0
            for bank in connected:
                # Inlined bank.output_voltage (the hot scan).
                if bank.state is BankState.SERIES:
                    voltage = bank.cell_voltage * bank.spec.count
                else:
                    voltage = bank.cell_voltage
                if source is None or voltage > source_voltage:
                    source = bank
                    source_voltage = voltage
            sink_voltage = last_level.voltage
            if source_voltage <= sink_voltage + 1e-9:
                break
            source_capacitance = source.equivalent_capacitance
            total_capacitance = source_capacitance + sink_capacitance
            final_voltage = (
                source_capacitance * source_voltage + sink_capacitance * sink_voltage
            ) / total_capacitance
            initial_energy = (
                0.5 * source_capacitance * source_voltage * source_voltage
                + 0.5 * sink_capacitance * sink_voltage * sink_voltage
            )
            dissipated = initial_energy - (
                0.5 * total_capacitance * final_voltage * final_voltage
            )
            if dissipated < 0.0:
                dissipated = 0.0
            # The overvoltage clamp still applies: a reclamation spike cannot
            # push the last-level buffer past its rated voltage.  Any energy
            # above the clamp is burned by the protection circuit.
            if final_voltage > max_voltage:
                before = (
                    0.5 * source_capacitance * final_voltage * final_voltage
                    + 0.5 * sink_capacitance * final_voltage * final_voltage
                )
                final_voltage = max_voltage
                after = (
                    0.5 * source_capacitance * final_voltage * final_voltage
                    + 0.5 * sink_capacitance * final_voltage * final_voltage
                )
                self.energy_clipped += max(0.0, before - after)
            gained = (
                0.5 * sink_capacitance * final_voltage * final_voltage
            ) - (0.5 * sink_capacitance * sink_voltage * sink_voltage)
            source.set_output_voltage(final_voltage)
            last_level.set_voltage(final_voltage)
            self.transfer_loss += dissipated
            if gained > 0.0:
                moved_total += gained
        return moved_total

    def apply_leakage(self, dt: float) -> float:
        """Self-discharge every capacitor in the fabric; returns energy lost."""
        leaked = self.last_level.apply_leakage(dt)
        for bank in self.banks:
            leaked += bank.apply_leakage(dt)
        self.energy_leaked += leaked
        return leaked

    # -- lifecycle ------------------------------------------------------------------------

    def reset(self) -> None:
        """Return to the cold-start state: everything empty and disconnected."""
        self.last_level.reset()
        for bank in self.banks:
            bank.reset()
        self.monitor.reset()
        self.energy_clipped = 0.0
        self.energy_leaked = 0.0
        self.transfer_loss = 0.0
