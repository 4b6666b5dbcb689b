"""Morphy-style unified switched-capacitor buffer (Yang et al., SenSys'21).

Morphy replaces the static buffer with a set of identical capacitors in a
fully interconnected switching network; software reconfigures the network
to present different equivalent capacitances.  The REACT paper evaluates
Morphy as the closest prior work and shows that its Achilles heel is
*dissipative reconfiguration*: whenever capacitors (or capacitor chains) at
different potentials end up in parallel, the equalizing current spike burns
a large fraction of the stored energy (25 % in the 4-capacitor example of
the paper's Figure 5; 56.25 % for an 8-capacitor array stepping out of full
parallel).

Topology model
--------------

A configuration is a *series chain of parallel groups* with optionally some
capacitors connected directly across the network output (the structure of
the paper's Figures 4–5).  The default table exposes eleven configurations
spanning 250 µF–16 mF, matching the configuration count and capacitance
range of the paper's Morphy implementation (eight 2 mF capacitors).

Loss model
----------

Charging and discharging through the output terminals is lossless (charge
divides between the chain and the across capacitors in proportion to their
capacitance), but it drives the per-capacitor voltages apart whenever the
groups are of unequal size.  Reconfiguration then equalizes:

1. capacitors regrouped into the same parallel group equalize to their
   charge-weighted mean voltage, and
2. the new chain and every across capacitor equalize to a common output
   voltage,

each time conserving charge and dissipating the energy difference in the
switches.  Both losses are accumulated in ``ledger.switching_loss`` — they
are the quantity the REACT-versus-Morphy comparison (and the isolation
ablation) measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.buffers.base import EnergyBuffer
from repro.buffers.static import DEFAULT_LEAKAGE_PER_FARAD
from repro.capacitors.leakage import (
    VoltageProportionalLeakage,
    stack_proportional_leakage,
)
from repro.exceptions import ConfigurationError
from repro.units import capacitor_energy, millifarads, next_grid_time


@dataclass(frozen=True)
class MorphyConfiguration:
    """One switch setting of the Morphy array.

    ``groups`` are the parallel-group sizes forming the series chain (in
    positional capacitor order); ``across`` is how many further capacitors
    sit directly across the network output.  Capacitors beyond
    ``sum(groups) + across`` are isolated and simply hold their charge.
    """

    groups: Tuple[int, ...]
    across: int = 0

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("a configuration needs at least one chain group")
        if any(size < 1 for size in self.groups):
            raise ConfigurationError("group sizes must be at least 1")
        if self.across < 0:
            raise ConfigurationError("across count must be non-negative")

    @property
    def caps_used(self) -> int:
        """Capacitors participating in this configuration."""
        # repro-lint: disable=ledger-sum -- integer capacitor count, not a float ledger
        return sum(self.groups) + self.across

    def chain_capacitance(self, unit: float) -> float:
        """Equivalent capacitance of the series chain alone."""
        # repro-lint: disable=ledger-sum -- configuration-table arithmetic; the batch kernel calls this same helper, so there is one add order
        return 1.0 / sum(1.0 / (size * unit) for size in self.groups)

    def equivalent_capacitance(self, unit: float) -> float:
        """Capacitance presented at the output."""
        return self.chain_capacitance(unit) + self.across * unit


#: The eleven configurations of the default (eight 2 mF capacitor) array,
#: ascending in equivalent capacitance from 250 µF to 16 mF.  The low end
#: regroups the series chain; from 1 mF upward every expansion pulls
#: capacitors out of the chain and places them across the output — the
#: transition the paper's Figure 5 analyzes, and the one that dissipates a
#: large fraction of the stored energy.
DEFAULT_CONFIGURATIONS: Tuple[MorphyConfiguration, ...] = (
    MorphyConfiguration(groups=(1, 1, 1, 1, 1, 1, 1, 1)),          # 0.250 mF
    MorphyConfiguration(groups=(2, 1, 1, 1, 1, 1, 1)),             # 0.308 mF
    MorphyConfiguration(groups=(2, 2, 1, 1, 1, 1)),                # 0.400 mF
    MorphyConfiguration(groups=(2, 2, 2, 2)),                      # 1.000 mF
    MorphyConfiguration(groups=(2, 2, 2, 1), across=1),            # 2.800 mF
    MorphyConfiguration(groups=(2, 2, 2), across=2),               # 5.333 mF
    MorphyConfiguration(groups=(2, 2, 1), across=3),               # 7.000 mF
    MorphyConfiguration(groups=(2, 2), across=4),                  # 10.000 mF
    MorphyConfiguration(groups=(2, 1), across=5),                  # 11.333 mF
    MorphyConfiguration(groups=(1, 1), across=6),                  # 13.000 mF
    MorphyConfiguration(groups=(8,)),                              # 16.000 mF
)


class MorphyConfigurationTable:
    """The ordered set of configurations a Morphy array steps through."""

    def __init__(
        self,
        cap_count: int = 8,
        unit_capacitance: float = millifarads(2.0),
        configurations: Sequence[MorphyConfiguration] | None = None,
    ) -> None:
        if cap_count < 2:
            raise ConfigurationError("a Morphy array needs at least two capacitors")
        if unit_capacitance <= 0.0:
            raise ConfigurationError("unit capacitance must be positive")
        self.cap_count = cap_count
        self.unit_capacitance = unit_capacitance
        if configurations is None:
            configurations = self._default_configurations(cap_count)
        configurations = tuple(configurations)
        for config in configurations:
            if config.caps_used > cap_count:
                raise ConfigurationError(
                    f"configuration {config} uses more capacitors than the array has"
                )
        ordered = sorted(
            configurations, key=lambda c: c.equivalent_capacitance(unit_capacitance)
        )
        self.configurations: Tuple[MorphyConfiguration, ...] = tuple(ordered)

    @staticmethod
    def _default_configurations(cap_count: int) -> Tuple[MorphyConfiguration, ...]:
        if cap_count == 8:
            return DEFAULT_CONFIGURATIONS
        # Generic fallback: a ladder from all-series to all-parallel.
        configs: List[MorphyConfiguration] = []
        for chain in range(cap_count, 0, -1):
            configs.append(
                MorphyConfiguration(groups=(1,) * chain, across=cap_count - chain)
            )
        return tuple(configs)

    @property
    def max_level(self) -> int:
        """Highest configuration level (largest capacitance)."""
        return len(self.configurations) - 1

    def configuration(self, level: int) -> MorphyConfiguration:
        """The configuration at ``level`` (0 = smallest capacitance)."""
        if not 0 <= level <= self.max_level:
            raise ConfigurationError(
                f"configuration level must lie in [0, {self.max_level}], got {level}"
            )
        return self.configurations[level]

    def equivalent_capacitance(self, level: int) -> float:
        """Equivalent capacitance presented at configuration ``level``."""
        return self.configuration(level).equivalent_capacitance(self.unit_capacitance)

    @property
    def capacitance_range(self) -> Tuple[float, float]:
        """(minimum, maximum) equivalent capacitance."""
        return (
            self.equivalent_capacitance(0), self.equivalent_capacitance(self.max_level)
        )

    def levels(self) -> List[float]:
        """Equivalent capacitance at every level, ascending."""
        return [
            self.equivalent_capacitance(level) for level in range(self.max_level + 1)
        ]


class MorphyBuffer(EnergyBuffer):
    """A software-defined charge-storage array with lossy reconfiguration."""

    supports_longevity = True

    #: Whether this class's energy-flow hooks are exactly the per-capacitor
    #: recurrence :class:`~repro.buffers.morphy_batch.MorphyBatchKernel`
    #: vectorizes.  Subclasses overriding ``harvest`` / ``draw`` /
    #: ``housekeeping`` / ``reconfigure`` / ``_shift_output_voltage`` /
    #: ``overhead_current`` with different dynamics must set this False so
    #: their lanes fall back to the scalar engine.
    batch_exact = True

    def __init__(
        self,
        cap_count: int = 8,
        unit_capacitance: float = millifarads(2.0),
        configurations: Sequence[MorphyConfiguration] | None = None,
        max_voltage: float = 3.6,
        brownout_voltage: float = 1.8,
        high_threshold: float = 3.5,
        low_threshold: float = 1.9,
        poll_rate_hz: float = 10.0,
        network_efficiency: float = 0.95,
        name: str = "Morphy",
    ) -> None:
        super().__init__()
        if max_voltage <= brownout_voltage:
            raise ConfigurationError("max voltage must exceed brown-out voltage")
        if high_threshold <= low_threshold:
            raise ConfigurationError("high threshold must exceed low threshold")
        if not 0.0 < network_efficiency <= 1.0:
            raise ConfigurationError("network efficiency must lie in (0, 1]")
        self.table = MorphyConfigurationTable(
            cap_count, unit_capacitance, configurations
        )
        self.max_voltage = max_voltage
        self.brownout_voltage = brownout_voltage
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        self.poll_period = 1.0 / poll_rate_hz
        #: Conduction efficiency of the switch fabric.  Every coulomb into or
        #: out of the array crosses several pass transistors of the fully
        #: interconnected network, whereas REACT's charge path is two active
        #: ideal diodes (§3.3.2); the default models a few percent of
        #: conduction loss for Morphy's network.
        self.network_efficiency = network_efficiency
        self.name = name
        self.leakage = VoltageProportionalLeakage(
            rated_current=DEFAULT_LEAKAGE_PER_FARAD * unit_capacitance,
            rated_voltage=6.3,
        )
        self._voltages: List[float] = [0.0] * cap_count
        self.level = 0
        self._next_poll_time = 0.0
        self.reconfiguration_count = 0
        self._build_topology_cache()

    def _build_topology_cache(self) -> None:
        """Precompute per-level topology so hot-path steps avoid rebuilding it.

        The configuration table is immutable after construction, but the
        seed implementation re-derived group membership and equivalent
        capacitance from it on every ``output_voltage``/``harvest``/``draw``
        call — about a dozen list constructions per simulation step, which
        profiling showed dominated Morphy's simulation cost.
        """
        unit = self.table.unit_capacitance
        self._level_groups: List[Tuple[Tuple[int, ...], ...]] = []
        self._level_across: List[Tuple[int, ...]] = []
        self._level_firsts: List[Tuple[int, ...]] = []
        self._level_chain_capacitance: List[float] = []
        self._level_capacitance: List[float] = []
        for level in range(self.table.max_level + 1):
            config = self.table.configuration(level)
            groups: List[Tuple[int, ...]] = []
            index = 0
            for size in config.groups:
                groups.append(tuple(range(index, index + size)))
                index += size
            across = tuple(range(index, index + config.across))
            self._level_groups.append(tuple(groups))
            self._level_across.append(across)
            self._level_firsts.append(tuple(group[0] for group in groups))
            self._level_chain_capacitance.append(config.chain_capacitance(unit))
            self._level_capacitance.append(config.equivalent_capacitance(unit))

    # -- topology helpers ------------------------------------------------------------

    @property
    def cap_count(self) -> int:
        """Number of capacitors in the array."""
        return self.table.cap_count

    @property
    def unit_capacitance(self) -> float:
        """Capacitance of each unit capacitor."""
        return self.table.unit_capacitance

    @property
    def configuration(self) -> MorphyConfiguration:
        """The active configuration."""
        return self.table.configuration(self.level)

    def _membership(
        self, config: MorphyConfiguration
    ) -> Tuple[List[List[int]], List[int], List[int]]:
        """(chain groups, across, isolated) capacitor indices for a configuration."""
        groups: List[List[int]] = []
        index = 0
        for size in config.groups:
            groups.append(list(range(index, index + size)))
            index += size
        across = list(range(index, index + config.across))
        index += config.across
        isolated = list(range(index, self.cap_count))
        return groups, across, isolated

    # -- telemetry ----------------------------------------------------------------------

    @property
    def output_voltage(self) -> float:
        voltages = self._voltages
        # repro-lint: disable=ledger-sum -- scalar reference order: builtin sum is sequential left-to-right; MorphyBatchKernel mirrors it with sequential column adds
        return sum(voltages[first] for first in self._level_firsts[self.level])

    @property
    def stored_energy(self) -> float:
        # repro-lint: disable=ledger-sum -- scalar reference order: builtin sum is sequential left-to-right; MorphyBatchKernel mirrors it with sequential column adds
        return sum(
            capacitor_energy(self.unit_capacitance, voltage)
            for voltage in self._voltages
        )

    @property
    def capacitance(self) -> float:
        return self._level_capacitance[self.level]

    @property
    def max_capacitance(self) -> float:
        return self.table.capacitance_range[1]

    def usable_energy(self) -> float:
        floor = capacitor_energy(self.capacitance, self.brownout_voltage)
        present = capacitor_energy(self.capacitance, self.output_voltage)
        return max(0.0, present - floor)

    def can_reach_voltage(self, voltage: float) -> bool:
        """Stepping down to the smallest configuration boosts the output.

        Without new input the best Morphy can do is reconfigure its stored
        charge onto the minimum equivalent capacitance; if even that cannot
        reach ``voltage`` the system cannot restart.
        """
        if self.output_voltage >= voltage:
            return True
        minimum_capacitance = self.table.capacitance_range[0]
        best_voltage = math.sqrt(2.0 * self.stored_energy / minimum_capacitance)
        return best_voltage >= voltage

    def snapshot(self) -> Dict[str, float]:
        snapshot = super().snapshot()
        snapshot["configuration_level"] = float(self.level)
        return snapshot

    # -- multi-system batching ---------------------------------------------------------

    def batch_key(self) -> Optional[Hashable]:
        """Lockstep-compatibility key for the Morphy batch kernel.

        Lanes can share one :class:`~repro.buffers.morphy_batch.MorphyBatchKernel`
        when their switch topology is identical — same capacitor count and
        the same (groups, across) structure at every level — because the
        kernel vectorizes per-capacitor updates over a uniform
        ``(lanes, cap_count)`` array.  Everything scalar (unit capacitance,
        thresholds, poll rate, network efficiency, leakage parameters) may
        differ per lane.  Requires the class to vouch for its hooks
        (:attr:`batch_exact`) and a leakage model the kernel can stack into
        closed form.
        """
        if not self.batch_exact:
            return None
        if stack_proportional_leakage([self.leakage]) is None:
            return None
        topology = tuple(
            (config.groups, config.across) for config in self.table.configurations
        )
        return ("morphy", self.cap_count, topology)

    # -- off-phase fast forwarding ----------------------------------------------------

    def post_harvest_voltage_bound(self, energy: float) -> float:
        """Exact post-harvest output voltage for the active configuration.

        Charging through the output terminals cannot reconfigure the array
        (only the 10 Hz controller poll in housekeeping does, and the
        conservative generic fast path re-checks the output voltage after
        every housekeeping call), so the harvest formula itself is the
        bound.
        """
        if energy <= 0.0:
            return self.output_voltage
        voltage = self.output_voltage
        usable = energy * self.network_efficiency
        capacitance = self.capacitance
        headroom = capacitor_energy(capacitance, self.max_voltage) - capacitor_energy(
            capacitance, voltage
        )
        stored = min(usable, max(0.0, headroom))
        return math.sqrt(voltage * voltage + 2.0 * stored / capacitance)

    # -- energy flow -----------------------------------------------------------------------

    def harvest(self, energy: float, dt: float) -> float:
        self.ledger.offered += energy
        if energy <= 0.0:
            return 0.0
        usable_input = energy * self.network_efficiency
        capacitance = self._level_capacitance[self.level]
        voltage = self.output_voltage
        headroom = (
            0.5 * capacitance * self.max_voltage * self.max_voltage
            - 0.5 * capacitance * voltage * voltage
        )
        capped = max(0.0, headroom)
        # Conduction loss is charged only on the energy that actually
        # crosses the switch fabric: when the array is full, the clipped
        # surplus is burned off before the network (the statics' clipping
        # convention), so ``offered == stored + clipped + switching_loss``
        # decomposes consistently across architectures.
        if usable_input <= capped:
            stored = usable_input
            switching = energy - usable_input
            clipped = 0.0
        else:
            stored = capped
            crossing = stored / self.network_efficiency
            switching = crossing - stored
            clipped = energy - crossing
        if stored > 0.0:
            new_output = math.sqrt(voltage * voltage + 2.0 * stored / capacitance)
            self._shift_output_voltage(new_output - voltage)
        self.ledger.stored += stored
        self.ledger.switching_loss += switching
        self.ledger.clipped += clipped
        return stored

    def draw(self, current: float, dt: float) -> float:
        if current <= 0.0 or dt <= 0.0:
            return 0.0
        # The load current crosses the switch fabric, so slightly more charge
        # leaves the capacitors than reaches the platform.
        charge = current * dt / self.network_efficiency
        capacitance = self._level_capacitance[self.level]
        voltage = self.output_voltage
        available_charge = capacitance * voltage
        charge = min(charge, available_charge)
        before = 0.5 * capacitance * voltage * voltage
        new_output = (available_charge - charge) / capacitance
        self._shift_output_voltage(new_output - voltage)
        removed = before - 0.5 * capacitance * new_output * new_output
        delivered = removed * self.network_efficiency
        self.ledger.switching_loss += removed - delivered
        self.ledger.delivered += delivered
        return delivered

    def housekeeping(self, time: float, dt: float, system_on: bool) -> None:
        self.ledger.leaked += self._apply_leakage(dt)
        # Morphy's controller is a separately powered microcontroller (the
        # paper uses a USB-supplied MSP430), so reconfiguration decisions do
        # not require the main platform to be awake.
        if time >= self._next_poll_time:
            # Snap to the poll-period grid rather than ``time +
            # poll_period``: the latter stretches every interval by the
            # step's overshoot, so the 10 Hz controller drifts off its
            # hardware clock and the poll schedule becomes a function of
            # the simulation step size.
            self._next_poll_time = next_grid_time(time, self.poll_period)
            self._poll()

    # -- controller policy --------------------------------------------------------------------

    def _poll(self) -> None:
        voltage = self.output_voltage
        if voltage >= self.high_threshold and self.level < self.table.max_level:
            self.reconfigure(self.level + 1)
        elif voltage <= self.low_threshold and self.level > 0:
            self.reconfigure(self.level - 1)

    def set_state(self, level: int, cell_voltages: Sequence[float]) -> None:
        """Directly set the configuration level and per-capacitor voltages.

        Intended for experiment and test setup (e.g. measuring the loss of a
        single reconfiguration from a known starting point); normal
        simulation drives the state through ``harvest``/``draw``/``housekeeping``.
        """
        if not 0 <= level <= self.table.max_level:
            raise ConfigurationError(
                f"configuration level must lie in [0, {self.table.max_level}], got {level}"
            )
        if len(cell_voltages) != self.cap_count:
            raise ConfigurationError(
                f"expected {self.cap_count} cell voltages, got {len(cell_voltages)}"
            )
        if any(v < 0.0 for v in cell_voltages):
            raise ConfigurationError("cell voltages must be non-negative")
        self.level = level
        self._voltages = [float(v) for v in cell_voltages]

    # -- reconfiguration physics -----------------------------------------------------------------

    def reconfigure(self, new_level: int) -> float:
        """Switch to configuration ``new_level``; returns the energy dissipated.

        Reconfiguration happens with the array isolated from harvester and
        load (break-before-make), so total charge at the output node is
        conserved while capacitors forced to a common potential dissipate
        the energy difference in the switch network.
        """
        if new_level == self.level:
            return 0.0
        config = self.table.configuration(new_level)
        energy_before = self.stored_energy
        groups, across, _ = self._membership(config)

        # Phase 1: members of each new parallel group equalize.
        for group in groups:
            # repro-lint: disable=ledger-sum -- scalar reference order: builtin sum is sequential left-to-right; MorphyBatchKernel mirrors it with sequential column adds
            mean_voltage = sum(self._voltages[i] for i in group) / len(group)
            for i in group:
                self._voltages[i] = mean_voltage

        # Phase 2: the chain and every across capacitor equalize at the output.
        unit = self.unit_capacitance
        chain_capacitance = config.chain_capacitance(unit)
        # repro-lint: disable=ledger-sum -- scalar reference order: builtin sum is sequential left-to-right; MorphyBatchKernel mirrors it with sequential column adds
        chain_output = sum(self._voltages[group[0]] for group in groups)
        # repro-lint: disable=ledger-sum -- scalar reference order: builtin sum is sequential left-to-right; MorphyBatchKernel mirrors it with sequential column adds
        numerator = chain_capacitance * chain_output + unit * sum(
            self._voltages[i] for i in across
        )
        denominator = chain_capacitance + unit * len(across)
        final_voltage = numerator / denominator
        chain_delta_charge = (final_voltage - chain_output) * chain_capacitance
        for group in groups:
            delta = chain_delta_charge / (len(group) * unit)
            for i in group:
                self._voltages[i] = max(0.0, self._voltages[i] + delta)
        for i in across:
            self._voltages[i] = final_voltage

        self.level = new_level
        self.reconfiguration_count += 1
        dissipated = max(0.0, energy_before - self.stored_energy)
        self.ledger.switching_loss += dissipated
        return dissipated

    # -- internals -----------------------------------------------------------------------------------

    def _shift_output_voltage(self, delta_v: float) -> None:
        """Move the output voltage by ``delta_v`` through the output terminals.

        The charge moving through the output splits between the chain and
        the across capacitors in proportion to capacitance; every group in
        the chain carries the full chain share, so unequal group sizes make
        the cell voltages diverge (the seed of the reconfiguration loss).
        """
        if delta_v == 0.0:
            return
        level = self.level
        voltages = self._voltages
        unit = self.table.unit_capacitance
        total = self._level_capacitance[level]
        charge = delta_v * total
        chain_charge = charge * (self._level_chain_capacitance[level] / total)
        for group in self._level_groups[level]:
            delta = chain_charge / (len(group) * unit)
            for i in group:
                voltages[i] = max(0.0, voltages[i] + delta)
        for i in self._level_across[level]:
            voltages[i] = max(0.0, voltages[i] + delta_v)

    def _apply_leakage(self, dt: float) -> float:
        leaked = 0.0
        voltages = self._voltages
        unit = self.table.unit_capacitance
        leakage = self.leakage
        if type(leakage) is VoltageProportionalLeakage:
            # Inlined hot path: one leakage evaluation per cell per step.
            # Exact-type check (not isinstance): a subclass overriding
            # current()/charge_lost() must go through the generic branch.
            rated_current = leakage.rated_current
            rated_voltage = leakage.rated_voltage
            for index, voltage in enumerate(voltages):
                if voltage <= 0.0:
                    continue
                lost_charge = rated_current * (voltage / rated_voltage) * dt
                new_voltage = max(0.0, voltage - lost_charge / unit)
                leaked += (
                    0.5 * unit * voltage * voltage
                    - 0.5 * unit * new_voltage * new_voltage
                )
                voltages[index] = new_voltage
            return leaked
        for index, voltage in enumerate(voltages):
            if voltage <= 0.0:
                continue
            lost_charge = leakage.charge_lost(voltage, dt)
            new_voltage = max(0.0, voltage - lost_charge / unit)
            leaked += capacitor_energy(unit, voltage) - capacitor_energy(
                unit, new_voltage
            )
            voltages[index] = new_voltage
        return leaked

    # -- lifecycle ---------------------------------------------------------------------------------------

    def reset(self) -> None:
        self._voltages = [0.0] * self.cap_count
        self.level = 0
        self._next_poll_time = 0.0
        self.reconfiguration_count = 0
        self._reset_base()
