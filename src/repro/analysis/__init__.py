"""Analysis helpers: table rendering, aggregation, and figures of merit."""

from repro.analysis.formatting import format_table, format_matrix, percent
from repro.analysis.aggregate import matrix_from_results, mean_over_traces

__all__ = [
    "format_table",
    "format_matrix",
    "percent",
    "matrix_from_results",
    "mean_over_traces",
]
