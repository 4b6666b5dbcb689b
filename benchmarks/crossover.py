"""Batch-vs-serial crossover width of each lockstep kernel.

Run from the repository root::

    PYTHONPATH=src python benchmarks/crossover.py [--pairs 5]

For each kernel it times lane groups of 5, 10, 20, 40 and 80 lanes (DE
workload, quick fidelity) on RF Cart and RF Mobile, ``serial`` and
``batch`` in interleaved pairs, with every kernel's ``min_lanes`` forced to
1 so the batch side always runs lockstep.  Per width and trace it prints
the median batch/serial wall-clock ratio and how many pairs batch won
(took no longer).  The crossover is the smallest width at which batch won
at least 4 of 5 pairs on every trace; each kernel's ``min_lanes`` cites
its rows of this output.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import time

import numpy as np

from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.experiments import sweep
from repro.experiments.runner import ExperimentSettings
from repro.sim.batch import KERNEL_BUILDERS
from repro.units import milliamps, millifarads

WIDTHS = (5, 10, 20, 40, 80)
TRACES = ("RF Cart", "RF Mobile")
SETTINGS = ExperimentSettings(quick=True)


def static_lanes(width):
    sizes = np.geomspace(0.8, 300.0, width)
    return [StaticBuffer(millifarads(float(c)), name=f"{c:.3f} mF") for c in sizes]


def morphy_lanes(width):
    return [
        MorphyBuffer(unit_capacitance=millifarads(float(u)), name=f"Morphy {u:.4f}")
        for u in np.geomspace(0.5, 4.0, width)
    ]


def react_lanes(width):
    return [
        ReactBuffer(name=f"REACT {h:.4f}", active_current_hint=milliamps(float(h)))
        for h in np.linspace(0.5, 3.0, width)
    ]


KERNELS = {"static": static_lanes, "morphy": morphy_lanes, "react": react_lanes}


def ratios(trace, factory, pairs):
    """batch/serial time per interleaved pair; the order alternates."""
    out = []
    for pair in range(pairs):
        seconds = {}
        for backend in ("serial", "batch")[:: -1 if pair % 2 else 1]:
            started = time.perf_counter()
            sweep(("DE",), (trace,), settings=SETTINGS, backend=backend,
                  buffer_factory=factory)
            seconds[backend] = time.perf_counter() - started
        out.append(seconds["batch"] / seconds["serial"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    for kernel_class in KERNEL_BUILDERS:
        kernel_class.min_lanes = 1
    needed = -(-4 * args.pairs // 5)  # 4 of 5 pairs, scaled
    print(f"median batch/serial ratio (batch wins / {args.pairs} pairs)")
    print(f"{'kernel':8}{'lanes':>6}" + "".join(f"{t:>20}" for t in TRACES))
    for kernel in KERNELS:
        crossover = None
        for width in WIDTHS:
            factory = functools.partial(KERNELS[kernel], width)
            cells, won = [], True
            for trace in TRACES:
                measured = ratios(trace, factory, args.pairs)
                wins = sum(ratio <= 1.0 for ratio in measured)
                won &= wins >= needed
                cells.append(f"{statistics.median(measured):.2f} ({wins}/{args.pairs})")
            row = "".join(f"{cell:>20}" for cell in cells)
            print(f"{kernel:8}{width:>6}{row}", flush=True)
            if won and crossover is None:
                crossover = width
        print(f"{kernel} crossover: {crossover or f'above {WIDTHS[-1]}'} lanes")


if __name__ == "__main__":
    main()
