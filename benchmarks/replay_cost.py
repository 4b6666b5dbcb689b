"""Fixed and per-step cost of each scalar whole-segment replay.

Run from the repository root::

    PYTHONPATH=src python benchmarks/replay_cost.py

Each row times one buffer's on-phase fast path (``fast_forward`` with
``system_on=True``, the call the engine makes) from one fixed mid-run
state: the static buffer's ``replay_lane``, Morphy's ``replay_segment``,
and REACT's ``replay_segment`` with 0, 3 and 5 banks connected in
parallel.  A repeat times ``CALLS`` fresh copies of the state one call at
a time, for a zero-step segment and for a long one.  The median zero-step call is the
fixed cost per call; the difference of the two medians, per step, is the
cost per step.  The state is copied after one zero-step call, so the copies
share any per-buffer cache that call fills, as a long-lived buffer's calls
do.  Each column is the median over ``REPEATS`` repeats, with
the spread (max - min) beside it.  Every segment must commit all of its
steps, so no stop bound, drain test or stepping poll cuts a call short.

Harvest and load are balanced so the output stays between the adaptive
buffers' thresholds: REACT's 10 Hz polls read OK (or NEAR_FULL with nothing
left to connect) and the banks replenish the last level on most steps, as
in an on-phase of the paper grid.
"""

from __future__ import annotations

import copy
import gc
import statistics
import time

from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.units import millifarads

#: Segment lengths, in steps, of the short and the long calls.
SHORT = 0
LONG = 200
#: Repeats per row, and fresh copies of the state timed in each repeat.
REPEATS = 7
CALLS = 200
DT = 0.01
LOAD = 1e-3  # A
POWER = 2.9e-3  # W: about the load at the output voltage
OUTPUT = 2.8  # V


def static_buffer():
    buffer = StaticBuffer(millifarads(10.0))
    buffer._capacitor.set_voltage(OUTPUT)
    return buffer


def morphy_buffer():
    buffer = MorphyBuffer()
    level = 3
    buffer.set_state(level, [OUTPUT / len(buffer._level_firsts[level])] * 8)
    return buffer


def react_buffer(connected):
    buffer = ReactBuffer()
    hardware = buffer.hardware
    for bank in hardware.banks[:connected]:
        bank.step_up()
        bank.step_up()
        bank.set_cell_voltage(OUTPUT)
    hardware.last_level.set_voltage(OUTPUT)
    return buffer


CASES = (
    ("static replay_lane", static_buffer),
    ("Morphy", morphy_buffer),
    ("REACT, 0 banks", lambda: react_buffer(0)),
    ("REACT, 3 banks", lambda: react_buffer(3)),
    ("REACT, 5 banks", lambda: react_buffer(5)),
)


def seconds_per_call(prototype, steps):
    """Median wall-clock of one ``steps``-step on-phase ``fast_forward`` call.

    Each call is timed on its own, so a preempted call moves the median by
    one sample instead of the mean by its whole delay.
    """
    buffers = [copy.deepcopy(prototype) for _ in range(CALLS)]
    samples = []
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        for buffer in buffers:
            started = clock()
            committed, _ = buffer.fast_forward(POWER, LOAD, DT, 0.0, steps, True)
            samples.append(clock() - started)
            if committed != steps:
                raise RuntimeError(
                    f"a segment stopped after {committed} of {steps} steps"
                )
    finally:
        gc.enable()
    return statistics.median(samples)


def measure(prototype):
    """Median and spread of (fixed µs per call, µs per step)."""
    fixed, per_step = [], []
    for _ in range(REPEATS):
        short = seconds_per_call(prototype, SHORT)
        long = seconds_per_call(prototype, LONG)
        fixed.append(short * 1e6)
        per_step.append((long - short) / LONG * 1e6)
    return [
        (statistics.median(values), max(values) - min(values))
        for values in (fixed, per_step)
    ]


def main():
    print(f"median (spread) over {REPEATS} repeats, {CALLS} calls each")
    print(f"{'replay':20}{'fixed µs/call':>20}{'µs/step':>20}")
    for name, factory in CASES:
        prototype = factory()
        prototype.fast_forward(POWER, LOAD, DT, 0.0, 0, True)
        cells = [
            f"{median:.2f} ({spread:.2f})"
            for median, spread in measure(prototype)
        ]
        print(f"{name:20}" + "".join(f"{cell:>20}" for cell in cells), flush=True)


if __name__ == "__main__":
    main()
