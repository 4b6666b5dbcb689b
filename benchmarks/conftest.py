"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
the same experiment modules the CLI uses, in *quick* fidelity (truncated
solar traces, coarser timestep) so the whole suite completes in minutes.
Full-fidelity regeneration is available via ``react-repro <artifact>``.

pytest-benchmark conventions used here:

* each artifact is produced exactly once per benchmark (``rounds=1``) —
  the measured quantity is the cost of regenerating the artifact, and the
  artifact itself is attached to ``benchmark.extra_info`` so the numbers
  can be inspected in the saved benchmark JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.runner import ExperimentSettings


#: Fidelity used by the benchmark suite.
BENCH_SETTINGS = ExperimentSettings(quick=True, quick_trace_cap=300.0)

#: Where a benchmark run records its headline sweep numbers: an untracked
#: (gitignored) file, so running the suite never rewrites the tree.  The
#: committed ``benchmarks/BENCH_sweep.json`` beside it is the recorded perf
#: trajectory and the nightly dominance gate's floor; copy this file over
#: it to record a milestone.
BENCH_SWEEP_JSON = Path(__file__).resolve().parent / "out" / "BENCH_sweep.json"


def record_sweep_metrics(variant: str, info: Dict[str, object]) -> None:
    """Merge ``info`` under ``variant`` into :data:`BENCH_SWEEP_JSON`.

    Each sweep benchmark records its ``extra_info`` here as well, keyed by
    variant name, so one file accumulates every variant of the run.  A
    corrupt or missing file is simply rewritten.
    """
    data: Dict[str, object] = {}
    if BENCH_SWEEP_JSON.exists():
        try:
            loaded = json.loads(BENCH_SWEEP_JSON.read_text())
            if isinstance(loaded, dict):
                data = loaded
        except ValueError:
            pass
    data[variant] = dict(info)
    BENCH_SWEEP_JSON.parent.mkdir(exist_ok=True)
    BENCH_SWEEP_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Quick-fidelity settings shared by every benchmark."""
    return BENCH_SETTINGS


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
