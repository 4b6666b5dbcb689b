"""Aggregation helpers shared by the experiment modules."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.sim.results import SimulationResult


def matrix_from_results(
    results: Iterable[SimulationResult],
    value: str = "work_units",
) -> Dict[str, Dict[str, float]]:
    """Pivot results into ``{trace: {buffer: value}}``.

    ``value`` selects which scalar to extract: any attribute of
    :class:`~repro.sim.results.SimulationResult` (e.g. ``work_units``,
    ``on_time``, ``duty_cycle``) or ``"latency"`` which maps a
    never-started system to infinity.
    """
    matrix: Dict[str, Dict[str, float]] = {}
    for result in results:
        row = matrix.setdefault(result.trace_name, {})
        if value == "latency":
            extracted = result.latency if result.latency is not None else float("inf")
        else:
            extracted = float(getattr(result, value))
        row[result.buffer_name] = extracted
    return matrix


def mean_over_traces(matrix: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Column-wise arithmetic mean of a ``{trace: {buffer: value}}`` matrix.

    Only buffers present in every trace row are averaged over the rows that
    contain them, matching the "Mean" row the paper's tables include.
    """
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in matrix.values():
        for buffer_name, value in row.items():
            if value == float("inf"):
                continue
            sums[buffer_name] = sums.get(buffer_name, 0.0) + value
            counts[buffer_name] = counts.get(buffer_name, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}
