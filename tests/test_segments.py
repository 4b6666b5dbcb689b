"""The scalar segment planner's trace-edge budget (``repro.sim.segments``).

A fast-forwarded segment reads one trace sample's power for every step, as
the stepped engine reads the sample at each step's start.  The budget must
therefore count exactly the steps whose additively accumulated start maps
to the starting sample: never a step that starts in the next sample, and
never one step short of the step that straddles the edge.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.harvester.frontend import HarvestingFrontend
from repro.harvester.trace import PowerTrace
from repro.sim.segments import SegmentPlanner
from repro.workloads.base import QuiescenceHint

SAMPLES = 40
#: Binary fractions, whose edges are exact, and periods that are not.
PERIODS = (1.0, 0.5, 0.25, 0.125, 0.1, 0.3)
TIME_STEPS = (0.01, 0.05)
UNBOUNDED = 10**9


def make_planner(period):
    trace = PowerTrace(np.full(SAMPLES, 1e-3), sample_period=period)
    planner = SegmentPlanner(
        HarvestingFrontend(trace), None, trace.duration, trace.duration + 1e6, ()
    )
    return trace, planner


def steps_in_sample(trace, time, dt):
    """Additively accumulated step starts that map to ``time``'s sample."""
    index = trace.sample_index(time)
    steps = 0
    while trace.sample_index(time) == index:
        time += dt
        steps += 1
    return steps


def budgets(planner, time, dt, step_budget=UNBOUNDED):
    off = planner.plan_off(time, dt, 0.0, 10.0, step_budget).steps
    on = planner.plan_on(time, dt, 0.0, QuiescenceHint(math.inf), 0.0, step_budget)
    return off, on.steps


@st.composite
def starts(draw):
    """(period, dt, time): starts on either side of a sample edge."""
    period = draw(st.sampled_from(PERIODS))
    dt = draw(st.sampled_from(TIME_STEPS))
    edge = draw(st.integers(1, SAMPLES - 1)) * period
    if draw(st.booleans()):
        # A start the engine could reach: additive steps from the
        # previous edge, so the last few land within ulps of this one.
        time = edge - period
        for _ in range(draw(st.integers(0, int(period / dt) + 2))):
            time += dt
    else:
        time = max(0.0, edge + draw(st.floats(-3.0, 3.0)) * dt)
    return period, dt, time


class TestTraceEdgeBudget:
    @settings(max_examples=400, deadline=None)
    @given(starts())
    def test_budget_counts_the_steps_that_start_in_the_sample(self, case):
        period, dt, time = case
        trace, planner = make_planner(period)
        expected = steps_in_sample(trace, time, dt)
        assert budgets(planner, time, dt) == (expected, expected)

    @settings(max_examples=100, deadline=None)
    @given(starts(), st.integers(0, 30))
    def test_a_smaller_budget_binds(self, case, step_budget):
        period, dt, time = case
        trace, planner = make_planner(period)
        expected = min(steps_in_sample(trace, time, dt), step_budget)
        assert budgets(planner, time, dt, step_budget) == (expected, expected)

    def test_the_straddling_step_is_included(self):
        """0.99 s in 0.01 s steps from 0: the old budget, which counted
        the steps that end by the edge, was 0 here."""
        trace, planner = make_planner(1.0)
        time = 0.0
        for _ in range(99):
            time += 0.01
        assert trace.sample_index(time) == 0
        assert budgets(planner, time, 0.01) == (
            steps_in_sample(trace, time, 0.01),
        ) * 2
        assert budgets(planner, time, 0.01)[0] >= 1

    def test_no_trace_edge_past_the_trace(self):
        trace, planner = make_planner(1.0)
        assert budgets(planner, trace.duration + 0.5, 0.05, 12345) == (12345, 12345)
