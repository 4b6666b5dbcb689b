#!/usr/bin/env python
"""Benchmark dominance-regression gate for the nightly CI job.

The sweep benchmarks assert absolute dominance themselves (batch >= 1.0x
serial lives in ``test_bench_sweep.py``), but an absolute floor cannot
see a *relative* slide — 1.5x decaying to 1.05x over a month of commits
still passes 1.0.  This gate closes that hole: the committed
``benchmarks/BENCH_sweep.json`` is the floor.  The suite records its fresh
ratios in the untracked ``benchmarks/out/BENCH_sweep.json``; this gate
compares every gated speedup ratio there against ``margin`` times its
committed value and exits non-zero on any regression, so the nightly job
fails instead of silently uploading a slower artifact.

Usage::

    python benchmarks/check_dominance.py benchmarks/BENCH_sweep.json \
        benchmarks/out/BENCH_sweep.json [--margin 0.85]

The default margin absorbs shared-runner noise; ratios are wall-clock
quotients of two runs on the same machine, so they are far steadier than
the raw seconds, but not exact.  A key missing from the committed file is
not gated (no floor recorded yet); a gated key missing from the fresh
results is a failure (the benchmark that produced it disappeared).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

#: (variant, key) speedup ratios gated against the committed floor.  Each
#: is a batch-vs-serial (or skip-vs-step) dominance claim the refactor
#: history fought for; add a pair here when a new sweep variant lands.
#: Deliberately absent: ``react_batched_sweep`` and
#: ``morphy_batched_sweep``, whose batched runs are gated on their exact
#: kernel work counts in ``test_bench_sweep.py`` instead: the scalar REACT
#: and Morphy fast paths they are timed against
#: each became a flat-float segment replay, so their committed ratios
#: stopped being true of the program — and ``mixed_grid_react_heavy``,
#: whose fast run is gated on its exact scalar replay counts there too:
#: its single-sample ratio spread from 1.09 to 2.27 on one unchanged tree.
GATED_RATIOS: Tuple[Tuple[str, str], ...] = (
    ("batched_capacitance_sweep", "batched_speedup_vs_serial"),
    ("batched_capacitance_sweep", "batch_segment_skip_speedup"),
    ("grid_sweep", "fast_path_speedup"),
)


def check(committed: dict, fresh: dict, margin: float) -> List[str]:
    """Return one human-readable line per regression (empty = gate passes)."""
    failures: List[str] = []
    for variant, key in GATED_RATIOS:
        floor_base = committed.get(variant, {}).get(key)
        if floor_base is None:
            continue
        floor = margin * floor_base
        measured = fresh.get(variant, {}).get(key)
        if measured is None:
            failures.append(
                f"{variant}.{key}: committed floor {floor_base:.3f} but the "
                f"fresh results no longer record this ratio"
            )
        elif measured < floor:
            failures.append(
                f"{variant}.{key}: {measured:.3f} < {floor:.3f} "
                f"(= {margin} * committed {floor_base:.3f})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="the committed BENCH_sweep.json")
    parser.add_argument("fresh", help="out/BENCH_sweep.json from the benchmark run")
    parser.add_argument(
        "--margin",
        type=float,
        default=0.85,
        help="noise allowance: fail when fresh < margin * committed (default 0.85)",
    )
    args = parser.parse_args(argv)
    with open(args.committed) as handle:
        committed = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    failures = check(committed, fresh, args.margin)
    for variant, key in GATED_RATIOS:
        base = committed.get(variant, {}).get(key)
        measured = fresh.get(variant, {}).get(key)
        if base is not None and measured is not None and measured >= args.margin * base:
            print(f"ok   {variant}.{key}: {measured:.3f} >= {args.margin} * {base:.3f}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
