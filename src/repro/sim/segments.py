"""Segment-boundary planning for the fast-forward paths.

Both fast-forwarding engines — the scalar :class:`~repro.sim.engine.Simulator`
and the lockstep :class:`~repro.sim.batch.BatchSimulator` — advance whole
constant-power stretches of a simulation in one go.  What makes a stretch
skippable is the same in both: every step starts in one trace sample
(zero-order hold, and the stepped engine reads the sample at each step's
start), the regulator sits inside one efficiency region, no recorder sample
point or quiescence-hint expiry falls inside it, and no gate transition
(enable, brown-out, wake) can occur before its end.  This module owns that
boundary arithmetic, in two presentations of one contract:

* :class:`SegmentPlanner` produces a scalar :class:`SegmentPlan` per
  fast-forward attempt for the scalar engine.  Its trace-edge term counts
  the steps whose additively accumulated start still maps to the starting
  sample, so a segment includes the step that straddles the edge.
* :class:`LaneSegmentPlanner` produces a :class:`LaneSegmentPlan` of
  per-lane arrays for the batch engine, one entry per lane, with ``±inf``
  sentinels standing in for the scalar plan's ``None`` bounds (comparisons
  against ``inf`` / ``-inf`` are vacuously False, so kernels need no
  None-handling).

SegmentPlan invariants (what a consumer may rely on, and what any
third-party kernel honouring a plan must guarantee):

1. ``steps`` is a *budget*, not a promise: a consumer may commit fewer
   steps (stopping early is always safe) but never more.
2. Committed steps must stop **before** any step whose post-harvest output
   voltage would reach ``stop_above`` (the gate's enable voltage off-phase,
   a hint's wake voltage on-phase, or the nearest regulator efficiency
   breakpoint above) — the check happens pre-commit, against the exact
   post-harvest voltage or a bound that is ≥ it.
3. After a committed step whose end voltage falls below ``stop_below``
   (the nearest efficiency breakpoint at or below the starting voltage)
   the consumer must stop: the delivered power constant the segment was
   planned around no longer holds.  The committed step itself is fine — it
   started inside the region.
4. On-phase, no step may be committed from a starting voltage at or below
   the brown-out floor (the gate's ``<=`` convention); off-phase, once the
   buffer can no longer restart the platform (``drain_floor``), stepping
   must stop so drain termination is detected on schedule.
5. Time advances additively — ``time += dt`` once per committed step —
   never as ``start + n * dt``, so downstream time-keyed behaviour (trace
   indexing, controller poll schedules) sees bit-identical timestamps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

_INFINITY = float("inf")


def efficiency_stops(voltage, breakpoints, ceiling):
    """(stop_above, stop_below) fast-forward bounds for a constant-power run.

    Harvested power changes when the buffer voltage crosses a regulator
    efficiency breakpoint in either direction, so a fast-forwarded
    interval must stop at the nearest breakpoint above and below the
    present ``voltage``.  ``ceiling`` seeds the upper stop with a bound of
    the caller's own (the gate's enable voltage off-phase, a quiescence
    hint's wake voltage on-phase) or None.
    """
    stop_above = ceiling
    stop_below = None
    for breakpoint_voltage in breakpoints:
        if voltage < breakpoint_voltage:
            if stop_above is None or breakpoint_voltage < stop_above:
                stop_above = breakpoint_voltage
        elif stop_below is None or breakpoint_voltage > stop_below:
            stop_below = breakpoint_voltage
    return stop_above, stop_below


class SegmentPlan(NamedTuple):
    """One skippable constant-power segment for the scalar engine.

    ``steps`` below 1 means the fast path cannot make progress (an event
    or boundary is imminent) and the engine must take a normal step.
    """

    steps: int
    stop_above: Optional[float]
    stop_below: Optional[float]
    #: Off-phase only: once the output falls below this and the buffer
    #: cannot restart the platform, stepping must stop (drain termination).
    drain_floor: Optional[float] = None
    #: On-phase only: conservative usable-energy guard for a pending
    #: longevity request with no expressible wake voltage.
    wake_energy: Optional[float] = None


class SegmentPlanner:
    """Boundary arithmetic for the scalar engine's fast-forward attempts.

    Stateless apart from references to the frontend (trace segment edges),
    the recorder (pending sample points), and the run's hard stop; one
    instance serves a whole :meth:`~repro.sim.engine.Simulator.run`.
    """

    def __init__(self, frontend, recorder, trace_duration, hard_stop, breakpoints):
        self._frontend = frontend
        self._recorder = recorder
        self._trace_duration = trace_duration
        self._hard_stop = hard_stop
        self._breakpoints = breakpoints

    def _sample_steps(self, time, dt, cap):
        """How many of the next ``cap`` steps start in ``time``'s trace sample.

        Start times accumulate additively from ``time``, as the engines
        advance them, and each is tested with the trace's own sample index,
        so the step that straddles the sample edge is included (the stepped
        engine reads this sample's power for it too) and a start that
        rounds onto the next sample is not.  The first
        ``int((edge - time) / dt) - 1`` starts lie at least two steps
        before the edge and need no test: their rounding error is many
        orders of magnitude below ``dt``.  Past the trace the sample never
        ends.
        """
        edge = self._frontend.segment_end(time)
        steps = max(int((edge - time) / dt) - 1, 0) if edge != _INFINITY else cap
        if steps >= cap:
            return cap
        sample_index = self._frontend.sample_index
        index = sample_index(time)
        start = time
        for _ in range(steps):
            start += dt
        while steps < cap and sample_index(start) == index:
            start += dt
            steps += 1
        return steps

    def plan_off(self, time, dt, voltage, enable_voltage, step_budget):
        """Plan an off-phase segment starting at ``time``.

        The segment is bounded by the steps that start in the current trace
        sample (see :meth:`_sample_steps`), the steps that end by the drain
        hard stop, and any pending recorder sample point;
        the stops are the gate's enable voltage (the gate must engage on a
        normally-executed step) and the regulator efficiency breakpoints
        around ``voltage``.
        """
        max_steps = int((self._hard_stop - time) / dt)
        if self._recorder is not None:
            max_steps = min(
                max_steps, int((self._recorder.next_record_time - time) / dt) - 1
            )
        max_steps = self._sample_steps(time, dt, min(max_steps, step_budget))
        stop_above, stop_below = efficiency_stops(
            voltage, self._breakpoints, enable_voltage
        )
        drain_floor = enable_voltage if time >= self._trace_duration else None
        return SegmentPlan(max_steps, stop_above, stop_below, drain_floor=drain_floor)

    def plan_on(self, time, dt, voltage, hint, longevity_request, step_budget):
        """Plan a quiescent on-phase segment starting at ``time``.

        Bounded like :meth:`plan_off` plus the hint's expiry with one full
        step of conservative margin: workloads build an expiry such as
        ``ctx.time + ctx.dt``, which can differ from the engine's
        additively accumulated end time by an ulp, and an event at the
        expiry must be observed by a normal step — so the margin applies
        even when the expiry sits at or just past the trace-sample edge.
        The upper stop is the hint's wake voltage (or, for a
        pending longevity request with no expressible wake voltage, a
        usable-energy guard carried in ``wake_energy``).
        """
        max_steps = int((self._hard_stop - time) / dt)
        expiry = hint.no_demand_change_before_time
        if expiry != _INFINITY:
            max_steps = min(max_steps, int((expiry - time) / dt) - 1)
        if self._recorder is not None:
            max_steps = min(
                max_steps, int((self._recorder.next_record_time - time) / dt) - 1
            )
        max_steps = self._sample_steps(time, dt, min(max_steps, step_budget))
        stop_above, stop_below = efficiency_stops(
            voltage, self._breakpoints, hint.wake_on_voltage
        )
        wake_energy = None
        if hint.wake_on_voltage is None and longevity_request > 0.0:
            wake_energy = longevity_request
        return SegmentPlan(max_steps, stop_above, stop_below, wake_energy=wake_energy)


class LaneSegmentPlan(NamedTuple):
    """Per-lane segment plans for one batch fast-forward phase.

    The arrays are full batch width; a lane that should not (or cannot)
    fast-forward carries ``steps == 0``.  ``None`` bounds become ``±inf``
    sentinels: a kernel comparing ``voltage >= stop_above`` or
    ``voltage < stop_below`` gets vacuous False exactly where the scalar
    plan would carry None.
    """

    steps: np.ndarray  # int64 step budgets, 0 = do not fast-forward
    stop_above: np.ndarray  # +inf = unbounded above
    stop_below: np.ndarray  # -inf = unbounded below
    drain_floor: np.ndarray  # -inf = no drain termination check (off-phase)


class LaneSegmentPlanner:
    """Vectorized :class:`SegmentPlanner` for batch lane groups.

    Lanes drift apart in simulated time, so every bound is evaluated
    per lane at that lane's own timestamp; lanes that happen to share a
    trace segment and efficiency region then advance together through one
    kernel ``fast_forward`` call.  The arithmetic mirrors the scalar
    planner (``int()`` truncation becomes ``floor`` — identical for the
    non-negative quantities involved — and the ``None`` stops become
    ``±inf``) except at the trace edge: this planner still counts the
    steps that *end* by the edge, one step short of the scalar planner's
    count of steps that *start* in the sample.  Invariant 1 allows the
    more conservative budget, and testing additive start times per lane
    would cost a loop per lane, while the lockstep step that follows takes
    the straddling step for every lane at once.
    """

    def __init__(self, sample_period, trace_samples, trace_duration, hard_stop,
                 breakpoints, dt_on, dt_off):
        self._sample_period = sample_period
        self._trace_samples = trace_samples
        self._trace_duration = trace_duration
        self._hard_stop = hard_stop
        # Sorted breakpoint grid for searchsorted; a trailing +inf sentinel
        # stands in for "no breakpoint above".
        bps = np.sort(np.asarray(breakpoints, dtype=float))
        self._bps = bps
        self._bps_padded = np.append(bps, _INFINITY)
        self._dt_on = dt_on
        self._dt_off = dt_off

    def _segment_limit(self, times):
        """Per-lane ``min(segment_end(time), hard_stop)`` (always finite)."""
        index = (times / self._sample_period).astype(np.int64)
        segment_end = np.where(
            index >= self._trace_samples,
            _INFINITY,
            (index + 1) * self._sample_period,
        )
        return np.minimum(segment_end, self._hard_stop)

    def _stops(self, voltages, ceiling):
        """Vectorized :func:`efficiency_stops` with ``±inf`` sentinels."""
        if self._bps.size == 0:
            width = len(np.atleast_1d(voltages))
            return (
                np.minimum(ceiling, np.full(width, _INFINITY)),
                np.full(width, -_INFINITY),
            )
        position = np.searchsorted(self._bps, voltages, side="right")
        stop_below = np.where(
            position > 0, self._bps[np.maximum(position - 1, 0)], -_INFINITY
        )
        stop_above = np.minimum(ceiling, self._bps_padded[position])
        return stop_above, stop_below

    def _clamp(self, steps, mask, step_budget):
        """Finite non-negative int64 budgets, zeroed outside ``mask``."""
        steps = np.minimum(steps, float(step_budget))
        steps = np.where(mask, np.maximum(steps, 0.0), 0.0)
        return steps.astype(np.int64)

    def plan_off(self, times, voltages, mask, enable_voltage, step_budget):
        """Plan off-phase segments for the lanes selected by ``mask``.

        ``enable_voltage`` (per lane) is both the upper stop's ceiling and
        the restart floor of the post-trace drain termination test.
        """
        limit = self._segment_limit(times)
        steps = np.floor((limit - times) / self._dt_off)
        stop_above, stop_below = self._stops(voltages, enable_voltage)
        drain_floor = np.where(
            mask & (times >= self._trace_duration), enable_voltage, -_INFINITY
        )
        return LaneSegmentPlan(
            self._clamp(steps, mask, step_budget), stop_above, stop_below, drain_floor
        )

    def plan_on(self, times, voltages, mask, hint_until, hint_wake, step_budget):
        """Plan quiescent on-phase segments for the lanes in ``mask``.

        ``hint_until`` / ``hint_wake`` are the batch engine's cached hint
        arrays (``-inf`` = no hint, which ``mask`` must already exclude;
        ``+inf`` wake = none).  The expiry margin is the scalar planner's:
        one full step short of the exclusive bound.
        """
        limit = self._segment_limit(times)
        steps = np.floor((limit - times) / self._dt_on)
        finite = np.isfinite(hint_until)
        if finite.any():
            margin = (
                np.floor((np.where(finite, hint_until, 0.0) - times) / self._dt_on)
                - 1.0
            )
            steps = np.where(finite, np.minimum(steps, margin), steps)
        stop_above, stop_below = self._stops(voltages, hint_wake)
        return LaneSegmentPlan(
            self._clamp(steps, mask, step_budget),
            stop_above,
            stop_below,
            np.full(len(times), -_INFINITY),
        )
