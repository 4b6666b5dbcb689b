"""Workload interface shared by all four benchmarks.

A workload is a small state machine driven once per simulation step.  It
receives a :class:`StepContext` describing the platform state and answers
with a :class:`PowerDemand` — which MCU mode it wants and how much
peripheral current it is drawing.  The simulator applies that demand to the
energy buffer; the workload learns about brown-outs through
:meth:`Workload.on_power_loss` so it can account for failed atomic
operations.

Quiescence protocol
-------------------

Most on-phase steps are *quiescent*: the workload is parked in (deep)
sleep waiting for a timer, an external event, or a longevity guarantee,
and will answer every step with the same :class:`PowerDemand` it just
returned.  The simulator exploits that through a cooperative protocol:

* :meth:`Workload.quiescent_until` declares, from the workload's own
  timer/event state, a :class:`QuiescenceHint` — a promise that its demand
  cannot change before a given simulated time (and, optionally, before the
  buffer output reaches a wake voltage).  Returning ``None`` makes no
  promise and the simulator steps normally.
* Quiescent need not mean asleep: an in-flight atomic operation (RT's and
  PF's package, receive and transmit phases) holds a fixed demand until
  its countdown completes, so it promises that demand until the end of
  the completing step, found with :func:`phase_end`.
* :meth:`Workload.skip_quiescent` is called once per skipped segment so
  the workload can advance its internal clocks, countdowns and event
  cursors exactly as the per-step calls would have — the engine
  guarantees the segment lies strictly inside the hint (no event fires in
  it, the wake voltage is not reached, the platform stays on).

Both sides of the contract are exercised by the differential equivalence
tests: a fast-forwarded run must reproduce the step-by-step engine's
counters exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.platform.mcu import PowerMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.buffers.base import EnergyBuffer


class StepContext(NamedTuple):
    """Everything a workload may observe during one simulation step.

    A ``NamedTuple`` rather than a dataclass: one is built per simulation
    step (tens of millions per evaluation sweep), and tuple construction is
    several times cheaper than a frozen dataclass ``__init__``.
    """

    time: float
    dt: float
    system_on: bool
    buffer: "EnergyBuffer"


class PowerDemand(NamedTuple):
    """The load a workload places on the platform for one step."""

    mcu_mode: PowerMode = PowerMode.SLEEP
    peripheral_current: float = 0.0

    @classmethod
    def off(cls) -> "PowerDemand":
        """Demand of a powered-down system."""
        return _DEMAND_OFF

    @classmethod
    def sleeping(cls) -> "PowerDemand":
        """Demand of an idle system in its normal (timer-driven) sleep mode."""
        return _DEMAND_SLEEPING

    @classmethod
    def deep_sleeping(cls, peripheral_current: float = 0.0) -> "PowerDemand":
        """Demand while parked in deep sleep waiting for energy to accumulate."""
        if peripheral_current == 0.0:
            return _DEMAND_DEEP_SLEEPING
        return cls(mcu_mode=PowerMode.DEEP_SLEEP, peripheral_current=peripheral_current)

    @classmethod
    def active(cls, peripheral_current: float = 0.0) -> "PowerDemand":
        """Demand of a system executing code (plus optional peripheral draw)."""
        if peripheral_current == 0.0:
            return _DEMAND_ACTIVE
        return cls(mcu_mode=PowerMode.ACTIVE, peripheral_current=peripheral_current)


class QuiescenceHint(NamedTuple):
    """A workload's promise that its power demand is momentarily static.

    The contract: as long as the platform stays powered, every
    :meth:`Workload.step` call over a window that ends *strictly before*
    ``no_demand_change_before_time`` — and during which the buffer output
    voltage stays below ``wake_on_voltage`` (when set) — returns exactly
    ``demand``, and mutates no state beyond what
    :meth:`Workload.skip_quiescent` reproduces.  The bound is exclusive
    because internal timers may fire on inclusive comparisons (a window
    ending exactly on RT's ``data_period`` grid lands a reading), so the
    step that reaches the expiry must always execute normally.  The
    simulator stops fast-forwarding conservatively *before* either
    condition can trigger; being woken early is always safe, and promising
    too much is the one way to corrupt a simulation.
    """

    #: Absolute simulated time before which the demand cannot change for
    #: timer/event reasons (``math.inf`` when only the wake voltage or a
    #: longevity request bounds the promise).
    no_demand_change_before_time: float
    #: Demand may change once the buffer output voltage reaches this value
    #: (e.g. a Dewdrop longevity threshold); None when no voltage wakes the
    #: workload.  Buffers whose longevity condition has no output-voltage
    #: equivalent leave this None and the engine falls back to a
    #: conservative usable-energy guard keyed off the pending request.
    wake_on_voltage: Optional[float] = None
    #: True when ``no_demand_change_before_time`` is backed by an external
    #: event source's next-fire time (a deadline or packet arrival) rather
    #: than an internal timer; informational, the engine treats both alike.
    wake_on_event: bool = False
    #: The constant demand the promise holds.  This is the demand the
    #: *next* step would return, which at a phase boundary (the step that
    #: just completed a measurement, say) differs from the demand the
    #: workload most recently returned; ``None`` means "unchanged from the
    #: most recent step", valid only for workloads whose on-phase demand
    #: never varies.
    demand: Optional[PowerDemand] = None


def phase_end(time: float, dt: float, remaining: float) -> float:
    """End time of the step that completes a ``remaining``-second phase.

    Repeats the phase's own per-step countdown (``remaining -= dt`` until
    it reaches zero) while advancing ``time`` additively, as the engine
    does, so the result is bit-identical to the end time of the stepped
    step that completes the phase: the expiry of an in-flight phase's
    :class:`QuiescenceHint`.
    """
    while True:
        remaining -= dt
        time += dt
        if remaining <= 0.0:
            return time


#: Interned demands for the parameterless cases, which cover the vast
#: majority of steps; reusing them keeps the hot loop allocation-free.
_DEMAND_OFF = PowerDemand(mcu_mode=PowerMode.OFF, peripheral_current=0.0)
_DEMAND_SLEEPING = PowerDemand(mcu_mode=PowerMode.SLEEP, peripheral_current=0.0)
_DEMAND_DEEP_SLEEPING = PowerDemand(
    mcu_mode=PowerMode.DEEP_SLEEP, peripheral_current=0.0
)
_DEMAND_ACTIVE = PowerDemand(mcu_mode=PowerMode.ACTIVE, peripheral_current=0.0)


@dataclass
class WorkloadMetrics:
    """Common work-completed counters every workload reports."""

    work_units: float = 0.0
    failed_operations: int = 0
    missed_events: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        row = {
            "work_units": self.work_units,
            "failed_operations": float(self.failed_operations),
            "missed_events": float(self.missed_events),
        }
        row.update(self.extra)
        return row


class Workload(ABC):
    """Abstract benchmark workload."""

    #: Short name used in tables ("DE", "SC", "RT", "PF").
    name: str = "workload"

    @abstractmethod
    def step(self, ctx: StepContext) -> PowerDemand:
        """Advance the workload by one step and return its power demand.

        Called every simulation step, including while the system is off
        (``ctx.system_on`` False) so the workload can account for missed
        deadlines or lost packets; in that case the returned demand is
        ignored by the simulator.
        """

    def quiescent_until(self, ctx: StepContext) -> Optional[QuiescenceHint]:
        """The workload's quiescence promise at ``ctx.time``, or None.

        Called by the simulator while the platform is on, with ``ctx.time``
        equal to the workload's current clock (the end of its most recent
        step) and ``ctx.buffer`` available for wake-voltage lookups.  Must
        not mutate any state.  The default makes no promise, which is
        always correct — the engine simply steps such workloads normally.
        """
        return None

    def skip_quiescent(self, ctx: StepContext, steps: int, step_dt: float) -> None:
        """Account for a fast-forwarded quiescent window.

        ``ctx`` spans the whole skipped window (``ctx.time`` its start,
        ``ctx.dt`` its total duration) which the engine advanced as
        ``steps`` individual steps of ``step_dt`` seconds; the window lies
        strictly inside the hint returned by :meth:`quiescent_until`, the
        platform stayed on throughout, and no wake condition triggered.
        Implementations must leave the workload in exactly the state the
        per-step calls would have produced.  The default delegates to one
        aggregated :meth:`step` call, which is correct whenever ``step``'s
        quiescent path is insensitive to how the window is partitioned
        (pure interval-based clock/event accounting); override it when
        ``step`` does per-step arithmetic or re-evaluates wake conditions.
        """
        self.step(ctx)

    @abstractmethod
    def on_power_loss(self, time: float) -> None:
        """Notification that the platform browned out at ``time`` seconds."""

    @abstractmethod
    def metrics(self) -> WorkloadMetrics:
        """Work-completed counters accumulated so far."""

    @abstractmethod
    def reset(self) -> None:
        """Restore the workload to its initial state for a fresh run."""

    @property
    def work_units(self) -> float:
        """The workload's figure of merit (used for Figure 7)."""
        return self.metrics().work_units
