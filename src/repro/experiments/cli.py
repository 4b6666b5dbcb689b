"""Command-line entry point: ``react-repro <experiment> [--quick]``.

Examples::

    react-repro table4 --quick                       # latency table, truncated traces
    react-repro fig7                                 # full-fidelity Figure 7 sweep
    react-repro all --quick --backend pool+batch     # every artifact, both sweep speedups
    react-repro list                                 # show available experiments

Grid execution is selected with ``--backend`` (``serial``, ``pool``,
``batch``, ``pool+batch``, or their ``cached:`` forms;
:func:`repro.experiments.backends.available_backends` lists every valid
name).  ``--workers`` sets the pool width for the pool-style backends and
selects nothing on its own: without ``--backend`` a sweep runs serially.
``--cache-dir DIR`` memoizes sweep results in a content-addressed store
under ``DIR`` (equivalently, pick a ``cached:<inner>`` backend directly).

``react-repro lint`` runs the repo's invariant linter
(:mod:`repro.analysis.lint`) over the installed package — the same
blocking check CI applies.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments import EXPERIMENTS
from repro.experiments.backends import available_backends
from repro.experiments.runner import ExperimentSettings


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="react-repro",
        description="Regenerate the tables and figures of the REACT paper (ASPLOS 2024).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help=(
            "which artifact to regenerate ('all' for every one, 'list' to "
            "enumerate); 'react-repro lint' instead runs the repo "
            "invariant linter"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="truncate the long solar traces and coarsen the timestep",
    )
    parser.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    parser.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=None,
        help=(
            "execution backend for grid sweeps: serial simulation, a process "
            "pool, vectorized lockstep batching, or pool+batch (a lockstep "
            "batch inside each worker, stacking both speedups); default "
            "serial"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker count for the pool-style backends, honored as given "
            "(unset: the host's core count); it does not select a backend"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "memoize sweep results in a content-addressed store under DIR "
            "(wraps the selected backend in its cached:<name> variant; a "
            "warm cache answers repeated sweeps without re-simulating)"
        ),
    )
    parser.add_argument(
        "--no-fast-forward",
        action="store_true",
        help=(
            "disable segment fast-forwarding and simulate strictly step by "
            "step on every backend (slower; the fast paths are bit-exact, "
            "so this exists for cross-checking and debugging)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The invariant linter has a disjoint argument set, so it owns its
        # own parser rather than polluting this one.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)

    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    settings = ExperimentSettings(
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
        backend=args.backend,
        fast_forward=not args.no_fast_forward,
        cache_dir=args.cache_dir,
    )

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            module = EXPERIMENTS[name].__module__
            print(f"{name:16s} {module}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.perf_counter()
        print(f"=== {name} ===")
        EXPERIMENTS[name](settings)
        elapsed = time.perf_counter() - started
        print(f"[{name} finished in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
