"""Unit tests for the nightly benchmark dominance-regression gate."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from check_dominance import GATED_RATIOS, check, main  # noqa: E402


def _committed() -> dict:
    return {
        "batched_capacitance_sweep": {
            "batched_speedup_vs_serial": 1.5,
            "batch_segment_skip_speedup": 2.6,
        },
        "morphy_batched_sweep": {"batched_speedup_vs_serial": 1.7},
        "grid_sweep": {"fast_path_speedup": 1.4},
        "mixed_grid_react_heavy": {"fast_path_speedup": 1.5},
    }


def test_passes_when_fresh_matches_committed():
    assert check(_committed(), _committed(), margin=0.85) == []


def test_passes_inside_noise_margin():
    fresh = _committed()
    fresh["batched_capacitance_sweep"]["batched_speedup_vs_serial"] = 1.5 * 0.9
    assert check(_committed(), fresh, margin=0.85) == []


def test_fails_below_the_committed_floor():
    fresh = _committed()
    fresh["batched_capacitance_sweep"]["batched_speedup_vs_serial"] = 1.0
    failures = check(_committed(), fresh, margin=0.85)
    assert len(failures) == 1
    assert "batched_capacitance_sweep.batched_speedup_vs_serial" in failures[0]


def test_missing_fresh_ratio_is_a_failure():
    fresh = _committed()
    del fresh["grid_sweep"]["fast_path_speedup"]
    failures = check(_committed(), fresh, margin=0.85)
    assert len(failures) == 1
    assert "no longer record" in failures[0]


def test_unrecorded_committed_floor_is_not_gated():
    committed = _committed()
    del committed["grid_sweep"]
    fresh = _committed()
    fresh["grid_sweep"]["fast_path_speedup"] = 0.1
    assert check(committed, fresh, margin=0.85) == []


def test_work_pinned_ratios_are_not_gated():
    fresh = _committed()
    fresh["morphy_batched_sweep"]["batched_speedup_vs_serial"] = 0.1
    fresh["mixed_grid_react_heavy"]["fast_path_speedup"] = 0.1
    assert check(_committed(), fresh, margin=0.85) == []


def test_committed_file_gates_itself_via_cli(tmp_path):
    """The committed BENCH_sweep.json passes the gate against itself, and
    every gated ratio is actually recorded there (the gate has teeth)."""
    committed = json.loads((BENCHMARKS / "BENCH_sweep.json").read_text())
    for variant, key in GATED_RATIOS:
        assert key in committed.get(variant, {}), f"{variant}.{key} not recorded"
    snapshot = tmp_path / "committed.json"
    snapshot.write_text(json.dumps(committed))
    assert main([str(snapshot), str(BENCHMARKS / "BENCH_sweep.json")]) == 0


def test_cli_exit_code_on_regression(tmp_path, capsys):
    snapshot = tmp_path / "committed.json"
    snapshot.write_text(json.dumps(_committed()))
    fresh = _committed()
    fresh["grid_sweep"]["fast_path_speedup"] = 0.5
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(fresh))
    assert main([str(snapshot), str(fresh_path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL grid_sweep.fast_path_speedup" in captured.err
