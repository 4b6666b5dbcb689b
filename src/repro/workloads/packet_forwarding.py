"""Packet Forwarding (PF) benchmark: receive and retransmit unpredictable data.

PF listens for packets arriving at unpredictable times and forwards them to
a base station.  Receiving is uncontrollable and reactivity-bound: the
packet can only be captured exactly when it arrives, and only if the system
is on with enough energy for the receive window.  Forwarding is
longevity-bound but delay-tolerant.  The benchmark therefore exercises both
halves of the reactivity/longevity tradeoff at once, and exercises energy
*fungibility*: software re-allocates buffered energy from the pending
transmit reservation to an incoming receive opportunity (§5.4.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.exceptions import ConfigurationError
from repro.platform.events import Event, PoissonEventSource
from repro.platform.peripherals import Radio
from repro.workloads.base import (
    PowerDemand,
    QuiescenceHint,
    StepContext,
    Workload,
    WorkloadMetrics,
    phase_end,
)
from repro.workloads.kernels.crc import crc16_ccitt


@dataclass
class PacketForwarding(Workload):
    """Store-and-forward relay between unpredictable senders and a base station.

    Parameters
    ----------
    mean_interarrival:
        Mean seconds between incoming packets (Poisson arrivals).
    listen_current:
        Current of the always-on wake-up receiver while the system idles.
    queue_limit:
        Maximum packets buffered awaiting retransmission.
    use_longevity_guarantee:
        When supported by the buffer, reserve transmit energy before
        forwarding and keep a smaller receive reserve while listening.
    """

    radio: Radio = field(default_factory=Radio)
    mean_interarrival: float = 6.0
    horizon: float = 7200.0
    listen_current: float = 50e-6
    queue_limit: int = 8
    energy_margin: float = 1.8
    use_longevity_guarantee: bool = True
    execute_kernel: bool = False
    seed: int = 11
    name: str = field(default="PF", init=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0.0:
            raise ConfigurationError("mean interarrival must be positive")
        if self.listen_current < 0.0:
            raise ConfigurationError("listen current must be non-negative")
        if self.queue_limit <= 0:
            raise ConfigurationError("queue limit must be positive")
        self._arrivals = PoissonEventSource(
            mean_interarrival=self.mean_interarrival,
            horizon=self.horizon,
            seed=self.seed,
        )
        self._queue: Deque[Event] = deque()
        self._phase: Optional[str] = None
        self._phase_remaining = 0.0
        self._waiting_for_energy = False
        self._last_time = 0.0
        self._metrics = WorkloadMetrics()

    # -- Workload interface ----------------------------------------------------------

    def step(self, ctx: StepContext) -> PowerDemand:
        arrivals = self._arrivals.events_between(self._last_time, ctx.time + ctx.dt)
        self._last_time = ctx.time + ctx.dt

        if not ctx.system_on:
            self._metrics.missed_events += len(arrivals)
            return PowerDemand.off()

        demand = self._handle_arrivals(ctx, arrivals)
        if demand is not None:
            return demand

        if self._phase is not None:
            return self._advance_operation(ctx)

        return self._maybe_start_forwarding(ctx)

    def quiescent_until(self, ctx: StepContext) -> Optional[QuiescenceHint]:
        """Quiescent while listening, waiting for the transmit reserve, or in flight.

        Both idle states (empty queue, and a queued packet waiting on the
        longevity reserve) hold a constant deep-sleep-plus-listen demand
        that only an incoming packet — or, for the waiting state, the
        reserve filling — can change, so the promise runs to the arrival
        schedule's next fire time.  An in-flight receive or transmit phase
        holds its radio demand until the step that completes its countdown
        (whose end time is the expiry), and no later than the next
        arrival, which that phase would count as missed.  The one step
        that places a new longevity request makes no promise, since that
        step mutates buffer state.
        """
        next_arrival = self._arrivals.next_fire_time
        if self._phase is not None:
            if self._phase_remaining - ctx.dt <= 0.0:
                return None  # the next step completes the phase
            if self._phase == "receive":
                current = self.radio.receive_current
            else:
                current = self.radio.transmit_current
            end = phase_end(ctx.time, ctx.dt, self._phase_remaining)
            return QuiescenceHint(
                no_demand_change_before_time=min(end, next_arrival),
                wake_on_event=next_arrival < end,
                demand=PowerDemand.active(peripheral_current=current),
            )
        listening = PowerDemand.deep_sleeping(peripheral_current=self.listen_current)
        if not self._queue:
            return QuiescenceHint(
                no_demand_change_before_time=next_arrival,
                wake_on_event=True,
                demand=listening,
            )
        if self._waiting_for_energy:
            return QuiescenceHint(
                no_demand_change_before_time=next_arrival,
                wake_on_voltage=ctx.buffer.longevity_wake_voltage(),
                wake_on_event=True,
                demand=listening,
            )
        return None

    def skip_quiescent(self, ctx: StepContext, steps: int, step_dt: float) -> None:
        # Advance the arrival cursor over the (arrival-free, by the hint's
        # guarantee) window; the longevity re-check that ``step`` would
        # also perform is read-only and deliberately not replayed, so a
        # reserve filling on the window's final housekeeping cannot start
        # a forward one step earlier than stepped execution would.  An
        # in-flight phase replays its countdown, one subtraction per step.
        end = ctx.time + ctx.dt
        self._arrivals.events_between(self._last_time, end)
        self._last_time = end
        if self._phase is not None:
            for _ in range(steps):
                self._phase_remaining -= step_dt

    def on_power_loss(self, time: float) -> None:
        if self._phase == "receive":
            self._metrics.failed_operations += 1
        elif self._phase == "transmit":
            self._metrics.failed_operations += 1
            # The packet stays queued and will be retried when power returns.
        self._phase = None
        self._phase_remaining = 0.0
        self._waiting_for_energy = False

    def metrics(self) -> WorkloadMetrics:
        self._metrics.extra["packets_forwarded"] = self._metrics.work_units
        return self._metrics

    def reset(self) -> None:
        self._arrivals.reset()
        self._queue.clear()
        self._phase = None
        self._phase_remaining = 0.0
        self._waiting_for_energy = False
        self._last_time = 0.0
        self._metrics = WorkloadMetrics()
        self.radio.reset()

    # -- derived metrics ---------------------------------------------------------------

    @property
    def packets_received(self) -> int:
        """Packets successfully captured off the air so far."""
        return int(self._metrics.extra.get("packets_received", 0.0))

    @property
    def packets_forwarded(self) -> int:
        """Packets successfully retransmitted so far."""
        return int(self._metrics.work_units)

    @property
    def transmit_reserve_energy(self) -> float:
        """Energy reserved before forwarding a packet."""
        return self.radio.transmit_energy * self.energy_margin

    @property
    def receive_reserve_energy(self) -> float:
        """Energy needed to safely capture one incoming packet."""
        return self.radio.receive_energy * self.energy_margin

    # -- internals ------------------------------------------------------------------------

    def _count_received(self) -> None:
        received = self._metrics.extra.get("packets_received", 0.0) + 1.0
        self._metrics.extra["packets_received"] = received

    def _handle_arrivals(
        self, ctx: StepContext, arrivals: list[Event]
    ) -> Optional[PowerDemand]:
        """React to packets that arrived during this step.

        Energy fungibility: an incoming packet pre-empts a pending transmit
        reservation when the buffer currently holds enough energy for the
        receive window (§5.4.1).  Returns a demand when a receive starts,
        otherwise None so normal processing continues.
        """
        if not arrivals:
            return None
        if self._phase is not None:
            # Busy with another atomic operation; the packet is lost.
            self._metrics.missed_events += len(arrivals)
            return None
        packet = arrivals[0]
        self._metrics.missed_events += max(0, len(arrivals) - 1)
        if len(self._queue) >= self.queue_limit:
            self._metrics.missed_events += 1
            return None
        if ctx.buffer.stored_energy < self.receive_reserve_energy:
            self._metrics.missed_events += 1
            return None
        if self._waiting_for_energy:
            # Drop the transmit reservation in favour of the receive.
            ctx.buffer.clear_longevity()
            self._waiting_for_energy = False
        self._queue.append(packet)
        self._phase = "receive"
        self._phase_remaining = self.radio.receive_time
        return PowerDemand.active(peripheral_current=self.radio.receive_current)

    def _advance_operation(self, ctx: StepContext) -> PowerDemand:
        self._phase_remaining -= ctx.dt
        if self._phase == "receive":
            if self._phase_remaining <= 0.0:
                self._count_received()
                self._phase = None
                return PowerDemand.active()
            return PowerDemand.active(peripheral_current=self.radio.receive_current)
        # transmit phase
        if self._phase_remaining <= 0.0:
            self._complete_forward()
            self._phase = None
            return PowerDemand.active()
        return PowerDemand.active(peripheral_current=self.radio.transmit_current)

    def _maybe_start_forwarding(self, ctx: StepContext) -> PowerDemand:
        if not self._queue:
            # Idle listening: deep sleep plus the always-on wake-up receiver.
            return PowerDemand.deep_sleeping(peripheral_current=self.listen_current)
        buffer = ctx.buffer
        if self.use_longevity_guarantee and buffer.supports_longevity:
            if not self._waiting_for_energy:
                buffer.request_longevity(self.transmit_reserve_energy)
                self._waiting_for_energy = True
            if not buffer.longevity_satisfied():
                return PowerDemand.deep_sleeping(peripheral_current=self.listen_current)
            buffer.clear_longevity()
            self._waiting_for_energy = False
        self._phase = "transmit"
        self._phase_remaining = self.radio.transmit_time
        return PowerDemand.active(peripheral_current=self.radio.transmit_current)

    def _complete_forward(self) -> None:
        packet = self._queue.popleft()
        if self.execute_kernel:
            payload = bytes(packet.payload_size or 16)
            crc16_ccitt(payload)
        self._metrics.work_units += 1.0
