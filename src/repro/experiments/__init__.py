"""Experiment harness: regenerate every table and figure of the paper.

Each module reproduces one artifact of the evaluation (see DESIGN.md's
experiment index).  All experiments share the :mod:`repro.experiments.runner`
infrastructure so the buffer set, traces, and workload parameters are
identical across tables, exactly as in the paper's methodology, and all
grid execution flows through the pluggable backend API
(:mod:`repro.experiments.backends`): describe the grid once, pick
``--backend serial|pool|batch|pool+batch``, wrapped as
``[cached:][remote:]<backend>`` when you want the result store or the
worker fleet, or pass your own backend instance.  :func:`repro.experiments.sweep` is the public one-call
surface over both.

Run everything from the command line::

    react-repro all --quick                   # truncated traces, minutes
    react-repro all --backend pool            # full fidelity, ~90 s on 2 cores
    react-repro table2 --backend pool+batch   # stack both sweep speedups
"""

from repro.experiments.runner import ExperimentSettings, ExperimentRunner
from repro.experiments.backends import (
    BatchBackend,
    ExecutionBackend,
    PoolBatchBackend,
    ProcessPoolBackend,
    RunSpec,
    SerialBackend,
    available_backends,
    execute_run_spec,
    resolve_backend,
)
from repro.experiments.store import (
    CachedBackend,
    ResultStore,
    StoreStats,
    code_version_salt,
)
from repro.experiments.remote import (
    LocalWorkerPool,
    RemoteBackend,
    RemoteReport,
    SweepWorker,
)
from repro.experiments._sweep import SweepResult, sweep
from repro.experiments import (
    fig1_static_tradeoff,
    fig6_voltage_trace,
    fig7_normalized,
    overhead,
    sec2_characterization,
    switching_loss,
    table1_configuration,
    table2_benchmarks,
    table3_traces,
    table4_latency,
    table5_packet_forwarding,
)

#: Registry mapping experiment names to their run() entry points.
EXPERIMENTS = {
    "fig1": fig1_static_tradeoff.run,
    "sec2": sec2_characterization.run,
    "switching-loss": switching_loss.run,
    "table1": table1_configuration.run,
    "table2": table2_benchmarks.run,
    "table3": table3_traces.run,
    "table4": table4_latency.run,
    "table5": table5_packet_forwarding.run,
    "fig6": fig6_voltage_trace.run,
    "fig7": fig7_normalized.run,
    "overhead": overhead.run,
}

__all__ = [
    "ExperimentSettings",
    "ExperimentRunner",
    # backend API
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BatchBackend",
    "PoolBatchBackend",
    "RunSpec",
    "execute_run_spec",
    "resolve_backend",
    "available_backends",
    # result store
    "CachedBackend",
    "ResultStore",
    "StoreStats",
    "code_version_salt",
    # distributed sweep service
    "RemoteBackend",
    "RemoteReport",
    "SweepWorker",
    "LocalWorkerPool",
    # public sweep surface
    "sweep",
    "SweepResult",
    "EXPERIMENTS",
]
