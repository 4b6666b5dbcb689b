"""The one result-equivalence oracle every equivalence test compares through.

Every execution path — the scalar fast paths, the lockstep batch engine,
the ``pool+batch``, ``cached:`` and ``remote:`` backends — must reproduce
the step-by-step scalar engine's results exactly: counters, additively
accumulated timestamps, workload metrics and the energy ledger, all with
``==``.  Each whole-segment replay adds the same ledger addends in the same
order as stepping, so no floating-point tolerance is needed.

``energy_offered`` and ``energy_delivered_to_load`` are not compared on
their own: both engines copy them from the buffer ledger's ``offered`` and
``delivered`` entries, which the ledger comparison already covers.
"""

#: Result fields every execution path must reproduce exactly: counters and
#: additively accumulated timestamps.
EXACT_FIELDS = (
    "latency",
    "simulated_time",
    "on_time",
    "active_time",
    "enable_count",
    "brownout_count",
    "work_units",
)


def assert_results_equivalent(reference, candidate, context=""):
    """``candidate`` must equal the ``reference`` result exactly.

    ``context`` prefixes every failure message (a case seed, a lane index).
    """
    prefix = f"{context}: " if context else ""
    assert candidate.trace_name == reference.trace_name, f"{prefix}trace_name"
    assert candidate.buffer_name == reference.buffer_name, f"{prefix}buffer_name"
    assert candidate.workload_name == reference.workload_name, (
        f"{prefix}workload_name"
    )
    for field in EXACT_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), (
            f"{prefix}{field}"
        )
    assert candidate.workload_metrics == reference.workload_metrics, (
        f"{prefix}workload_metrics"
    )
    assert candidate.buffer_ledger == reference.buffer_ledger, (
        f"{prefix}buffer_ledger"
    )


def assert_sweeps_equivalent(reference, candidate):
    """Two sweeps of one grid: same length, and equal result by result."""
    assert len(candidate) == len(reference)
    for index, (expected, got) in enumerate(zip(reference, candidate)):
        assert_results_equivalent(expected, got, f"cell {index}")
