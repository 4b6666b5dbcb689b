"""Metrics helpers: figures of merit, normalization, and aggregation.

The paper condenses each (benchmark, trace, buffer) run into a single
figure of merit — the work the application completed — then normalizes
across buffers (Figure 7) and averages across traces.  These helpers
implement that reduction so experiments and benchmarks share one
definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.sim.results import SimulationResult


def figure_of_merit(result: SimulationResult) -> float:
    """The per-run figure of merit: application work completed."""
    return result.work_units


def normalize_to_reference(
    values: Mapping[str, float], reference: str
) -> Dict[str, float]:
    """Normalize a {name: value} mapping to the named reference entry.

    Matches Figure 7's presentation (performance normalized to REACT).  A
    zero or missing reference yields zeros to keep downstream averaging
    well-defined.
    """
    if reference not in values:
        raise KeyError(f"reference {reference!r} not present in {sorted(values)}")
    reference_value = values[reference]
    if reference_value <= 0.0:
        return {name: 0.0 for name in values}
    return {name: value / reference_value for name, value in values.items()}


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a sequence (0.0 for an empty sequence).

    Accumulated sequentially (not via ``sum()``) so the result is
    bit-identical however the caller's values were produced — these means
    feed tables that the cross-backend equivalence suites diff exactly.
    """
    if not values:
        return 0.0
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def aggregate_results(
    results: Iterable[SimulationResult],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Index results as ``{workload: {trace: {buffer: work_units}}}``.

    This is the pivot every table in the evaluation is built from.
    """
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for result in results:
        workload_table = table.setdefault(result.workload_name, {})
        trace_table = workload_table.setdefault(result.trace_name, {})
        trace_table[result.buffer_name] = figure_of_merit(result)
    return table


def mean_normalized_performance(
    results: Iterable[SimulationResult], reference: str
) -> Dict[str, Dict[str, float]]:
    """Figure 7's quantity: per-workload mean normalized performance per buffer.

    For every workload, each trace's per-buffer figures of merit are
    normalized to ``reference`` and then averaged across traces.
    """
    pivot = aggregate_results(results)
    summary: Dict[str, Dict[str, float]] = {}
    for workload, per_trace in pivot.items():
        accumulator: Dict[str, List[float]] = {}
        for per_buffer in per_trace.values():
            # Traces where the reference completed no work cannot be
            # normalized meaningfully (every ratio would be 0/0); they are
            # dropped from the per-workload mean, mirroring how the paper's
            # figure handles traces with empty columns.
            if per_buffer.get(reference, 0.0) <= 0.0:
                continue
            normalized = normalize_to_reference(per_buffer, reference)
            for buffer_name, value in normalized.items():
                accumulator.setdefault(buffer_name, []).append(value)
        summary[workload] = {
            buffer_name: mean(values) for buffer_name, values in accumulator.items()
        }
    return summary
