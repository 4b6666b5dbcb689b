"""A single REACT capacitor bank and its configuration state machine.

Each bank holds ``N`` identical unit capacitors that are always either all
disconnected, all in series, or all in parallel (§3.3.2).  Because the
cells within a bank always carry equal voltage, reconfiguring between
series and parallel moves no charge between cells and therefore dissipates
no energy — the property that separates REACT from a fully interconnected
switched-capacitor network.

The bank tracks its *cell* voltage; the output voltage seen by the rest of
the fabric is ``N × V_cell`` in series and ``V_cell`` in parallel.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from enum import Enum

from repro.capacitors.leakage import LeakageModel, NoLeakage
from repro.capacitors.switches import DpdtSwitch, SwitchState
from repro.core.config import BankSpec
from repro.exceptions import BankStateError, ConfigurationError
from repro.units import capacitor_energy


class BankState(Enum):
    """Configuration of a REACT capacitor bank."""

    DISCONNECTED = "disconnected"
    SERIES = "series"
    PARALLEL = "parallel"


@dataclass
class CapacitorBank:
    """One isolated, reconfigurable capacitor bank.

    Parameters
    ----------
    spec:
        Physical description (unit capacitance and cell count).
    rated_cell_voltage:
        Maximum voltage any single cell tolerates.
    leakage:
        Leakage model applied per cell.
    """

    spec: BankSpec
    rated_cell_voltage: float = 6.3
    leakage: LeakageModel = field(default_factory=NoLeakage)
    name: str = "bank"
    state: BankState = field(default=BankState.DISCONNECTED, init=False)
    cell_voltage: float = field(default=0.0, init=False)
    reconfiguration_count: int = field(default=0, init=False)
    energy_leaked: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.rated_cell_voltage <= 0.0:
            raise ConfigurationError("rated cell voltage must be positive")
        self.switch = DpdtSwitch(name=f"{self.name}.dpdt")
        #: Optional observer invoked after every state change; the hardware
        #: fabric uses it to invalidate its cached connected-bank topology.
        self.on_topology_change = None

    def _notify_topology_change(self) -> None:
        if self.on_topology_change is not None:
            self.on_topology_change()

    # -- electrical state ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of unit cells in the bank."""
        return self.spec.count

    @property
    def unit_capacitance(self) -> float:
        """Capacitance of a single cell in farads."""
        return self.spec.unit_capacitance

    @property
    def is_connected(self) -> bool:
        """True when the bank contributes capacitance to the fabric."""
        return self.state is not BankState.DISCONNECTED

    @property
    def equivalent_capacitance(self) -> float:
        """Capacitance seen at the bank output in its present state."""
        if self.state is BankState.SERIES:
            return self.spec.series_capacitance
        if self.state is BankState.PARALLEL:
            return self.spec.parallel_capacitance
        return 0.0

    @property
    def output_voltage(self) -> float:
        """Voltage at the bank output in its present state."""
        if self.state is BankState.SERIES:
            return self.cell_voltage * self.count
        if self.state is BankState.PARALLEL:
            return self.cell_voltage
        return 0.0

    @property
    def stored_energy(self) -> float:
        """Total energy stored across all cells (state-independent)."""
        return self.count * capacitor_energy(self.unit_capacitance, self.cell_voltage)

    @property
    def max_output_voltage(self) -> float:
        """Output voltage if every cell were at its rated voltage."""
        if self.state is BankState.SERIES:
            return self.rated_cell_voltage * self.count
        return self.rated_cell_voltage

    # -- state machine -----------------------------------------------------------------

    def connect_series(self) -> None:
        """Connect a disconnected bank in the series configuration (§3.3.3)."""
        if self.state is not BankState.DISCONNECTED:
            raise BankStateError(
                f"{self.name}: connect_series requires a disconnected bank, "
                f"state is {self.state.value}"
            )
        self.state = BankState.SERIES
        self.reconfiguration_count += 1
        self.switch.set_state(SwitchState.POSITION_A)
        self._notify_topology_change()

    def to_parallel(self) -> None:
        """Reconfigure a series bank to parallel (capacity expansion)."""
        if self.state is not BankState.SERIES:
            raise BankStateError(
                f"{self.name}: to_parallel requires a series bank, state is {self.state.value}"
            )
        self.state = BankState.PARALLEL
        self.reconfiguration_count += 1
        self.switch.set_state(SwitchState.POSITION_B)
        self._notify_topology_change()

    def to_series(self) -> None:
        """Reconfigure a parallel bank to series (charge reclamation, §3.3.4)."""
        if self.state is not BankState.PARALLEL:
            raise BankStateError(
                f"{self.name}: to_series requires a parallel bank, state is {self.state.value}"
            )
        self.state = BankState.SERIES
        self.reconfiguration_count += 1
        self.switch.set_state(SwitchState.POSITION_A)
        self._notify_topology_change()

    def disconnect(self) -> None:
        """Disconnect the bank from the fabric (its cells keep their charge)."""
        if self.state is BankState.DISCONNECTED:
            raise BankStateError(f"{self.name}: bank is already disconnected")
        self.state = BankState.DISCONNECTED
        self.reconfiguration_count += 1
        self.switch.set_state(SwitchState.OPEN)
        self._notify_topology_change()

    def step_up(self) -> BankState:
        """Advance one step toward maximum capacitance; returns the new state."""
        if self.state is BankState.DISCONNECTED:
            self.connect_series()
        elif self.state is BankState.SERIES:
            self.to_parallel()
        else:
            raise BankStateError(f"{self.name}: bank is already fully expanded")
        return self.state

    def step_down(self) -> BankState:
        """Retreat one step toward disconnection; returns the new state."""
        if self.state is BankState.PARALLEL:
            self.to_series()
        elif self.state is BankState.SERIES:
            self.disconnect()
        else:
            raise BankStateError(f"{self.name}: bank is already disconnected")
        return self.state

    @property
    def can_step_up(self) -> bool:
        """True when a further capacity-expansion step exists."""
        return self.state is not BankState.PARALLEL

    @property
    def can_step_down(self) -> bool:
        """True when a further retreat step exists."""
        return self.state is not BankState.DISCONNECTED

    # -- charge movement ----------------------------------------------------------------

    def absorb_energy(self, energy: float, max_output_voltage: float) -> float:
        """Store harvested energy, limited by the output-voltage clamp.

        Returns the energy actually stored.  Charging never moves charge
        between cells, so it is lossless up to the clamp.
        """
        if energy < 0.0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        state = self.state
        if state is BankState.DISCONNECTED or energy == 0.0:
            return 0.0
        # Inlined max_output_voltage / stored_energy at the clamp and at the
        # present cell voltage (this runs for every harvesting step).
        count = self.spec.count
        unit = self.spec.unit_capacitance
        if state is BankState.SERIES:
            ceiling = self.rated_cell_voltage * count
            clamp_output = (
                max_output_voltage if max_output_voltage < ceiling else ceiling
            )
            clamp_cell = clamp_output / count
        else:
            ceiling = self.rated_cell_voltage
            clamp_output = (
                max_output_voltage if max_output_voltage < ceiling else ceiling
            )
            clamp_cell = clamp_output
        max_energy = count * (0.5 * unit * clamp_cell * clamp_cell)
        voltage = self.cell_voltage
        stored_now = count * (0.5 * unit * voltage * voltage)
        stored = min(energy, max(0.0, max_energy - stored_now))
        if stored <= 0.0:
            return 0.0
        new_energy = stored_now + stored
        self.cell_voltage = math.sqrt(2.0 * new_energy / (count * unit))
        return stored

    def set_output_voltage(self, output_voltage: float) -> None:
        """Force the output voltage (used when equalizing with the last-level buffer)."""
        if output_voltage < 0.0:
            raise ValueError(f"voltage must be non-negative, got {output_voltage}")
        if self.state is BankState.DISCONNECTED:
            raise BankStateError(
                f"{self.name}: cannot set voltage on a disconnected bank"
            )
        if self.state is BankState.SERIES:
            self.cell_voltage = output_voltage / self.count
        else:
            self.cell_voltage = output_voltage

    def set_cell_voltage(self, cell_voltage: float) -> None:
        """Directly set the per-cell voltage (test setup and experiments)."""
        if not 0.0 <= cell_voltage <= self.rated_cell_voltage:
            raise ConfigurationError(
                f"cell voltage must lie in [0, {self.rated_cell_voltage}], got {cell_voltage}"
            )
        self.cell_voltage = cell_voltage

    def apply_leakage(self, dt: float) -> float:
        """Self-discharge every cell over ``dt`` seconds; returns energy lost."""
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        voltage = self.cell_voltage
        if voltage <= 0.0:
            return 0.0
        # Inlined stored-energy expressions: this runs once per bank per
        # simulation step, and the property chain dominated its cost.
        count = self.spec.count
        unit = self.spec.unit_capacitance
        before = count * (0.5 * unit * voltage * voltage)
        lost_charge = self.leakage.charge_lost(voltage, dt)
        new_cell_charge = unit * voltage - lost_charge
        if new_cell_charge < 0.0:
            new_cell_charge = 0.0
        new_voltage = new_cell_charge / unit
        self.cell_voltage = new_voltage
        leaked = before - count * (0.5 * unit * new_voltage * new_voltage)
        self.energy_leaked += leaked
        return leaked

    def reset(self) -> None:
        """Return to the cold-start state (disconnected and empty)."""
        self.state = BankState.DISCONNECTED
        self.cell_voltage = 0.0
        self.reconfiguration_count = 0
        self.energy_leaked = 0.0
        self._notify_topology_change()
