"""Command-line entry point: ``react-repro <experiment> [--quick]``.

Examples::

    react-repro table4 --quick                       # latency table, truncated traces
    react-repro fig7                                 # full-fidelity Figure 7 sweep
    react-repro all --quick --backend pool+batch     # every artifact, both sweep speedups
    react-repro list                                 # show available experiments

Grid execution is selected with ``--backend`` (``serial``, ``pool``,
``batch``, ``pool+batch``, or one of their ``[cached:][remote:]``
compositions; :func:`repro.experiments.backends.available_backends` lists
every valid name).  ``--workers`` sets
the pool width for the pool-style backends and selects nothing on its
own: without ``--backend`` a sweep runs serially.  ``--cache-dir DIR``
memoizes sweep results in a content-addressed store under ``DIR``
(equivalently, pick a ``cached:<inner>`` backend directly); ``--no-cache``
disables the store even for an explicitly cached backend name.

Distributed sweeps use the ``remote:<inner>`` backends
(:mod:`repro.experiments.remote`): ``--backend remote:serial
--remote-workers N`` fans the grid out over N localhost worker processes,
``--remote-listen HOST:PORT`` accepts workers started on other machines
with the ``react-repro worker --connect HOST:PORT`` subcommand, and
``--verbose`` surfaces the coordinator's scheduling log.

``react-repro lint`` runs the repo's invariant linter
(:mod:`repro.analysis.lint`) over the installed package — the same
blocking check CI applies.
"""

from __future__ import annotations

import argparse
import logging
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
            "enumerate); 'react-repro worker --connect HOST:PORT' instead "
            "starts a distributed-sweep worker (see --remote-listen), and "
            "'react-repro lint' runs the repo invariant linter"
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
        "--no-cache",
        action="store_true",
        help=(
            "disable the result store even if --backend names a cached:* "
            "variant or --cache-dir is set"
        ),
    )
    parser.add_argument(
        "--remote-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "localhost worker processes the remote:<inner> backends spawn "
            "per sweep (default: 2 without --remote-listen, else 0); 0 "
            "relies entirely on externally connected workers"
        ),
    )
    parser.add_argument(
        "--remote-listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "bind address for the remote:<inner> coordinator so workers "
            "started elsewhere ('react-repro worker --connect HOST:PORT') "
            "can join the sweep; default binds 127.0.0.1 on an ephemeral "
            "port, reachable only by the locally spawned workers"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "enable structured scheduling logs (worker connects, shard "
            "dispatch/complete/requeue, retries, per-shard wall-clock)"
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
    if arguments and arguments[0] == "worker":
        # The worker subcommand has a disjoint argument set (--connect et
        # al.), so it owns its own parser rather than polluting this one.
        from repro.experiments.remote.worker import main as worker_main

        return worker_main(arguments[1:])
    if arguments and arguments[0] == "lint":
        # Same pattern: the invariant linter owns its own parser.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)

    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.remote_workers is not None and args.remote_workers < 0:
        parser.error(
            f"--remote-workers must be at least 0, got {args.remote_workers}"
        )
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )

    settings = ExperimentSettings(
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
        backend=args.backend,
        fast_forward=not args.no_fast_forward,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        remote_workers=args.remote_workers,
        remote_listen=args.remote_listen,
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
