"""The content-addressed result store and the memoizing ``cached:`` backend.

Five contracts are pinned here:

* **Fingerprint stability** — cache keys depend only on what a run
  computes: field order, execution-only knobs (``workers``,
  ``backend``, ``cache_dir``), and explicitly spelled
  defaults never change a key, and a fresh interpreter (different hash
  randomization) derives the same key.
* **Invalidation** — changing the code-version salt misses every old
  entry; a corrupted or foreign entry is a miss, never a crash.
* **Concurrency** — writes are atomic under a process pool hammering the
  same keys; no torn entry is ever loadable.
* **Failed writes** — a write that fails (a full disk) propagates out of
  the cached backend instead of passing as a miss, leaves no temp file,
  and keeps every entry written before it loadable.
* **Equivalence** — ``cached:serial`` returns the serial backend's results
  exactly on the full quick grid (``tests/oracle.py``: counters, metrics
  and ledgers all ``==``), both cold and warm, and the warm run performs
  zero simulator steps (proven with an inner backend that raises).
"""

import errno
import json
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import sweep
from repro.experiments.backends import (
    RunSpec,
    SerialBackend,
    available_backends,
    resolve_backend,
    trace_groups,
)
from repro.experiments.cli import build_parser
from repro.experiments.runner import ExperimentRunner, ExperimentSettings
from repro.experiments.store import (
    STATS_FILENAME,
    CachedBackend,
    ResultStore,
    StoreStats,
    callable_identity,
    settings_fingerprint,
    spec_fingerprint,
)
from repro.sim.results import SimulationResult
from repro.units import microfarads

from oracle import assert_results_equivalent

QUICK = ExperimentSettings(quick=True)


def make_spec(**overrides) -> RunSpec:
    parameters = dict(
        workload="SC", trace_name="RF Cart", buffer_index=0, settings=QUICK
    )
    parameters.update(overrides)
    return RunSpec(**parameters)


def tiny_buffers():
    """A second module-level factory, distinct from ``standard_buffers``."""
    from repro.buffers.static import StaticBuffer

    return [StaticBuffer(microfarads(770.0), name="770 uF")]


def make_result(work_units: float = 1.0) -> SimulationResult:
    return SimulationResult(
        trace_name="RF Cart",
        buffer_name="770 uF",
        workload_name="SC",
        simulated_time=400.0,
        trace_duration=400.0,
        latency=1.25,
        on_time=300.0,
        active_time=200.0,
        enable_count=3,
        brownout_count=2,
        work_units=work_units,
        workload_metrics={"samples": work_units},
        buffer_ledger={"offered": 0.5, "stored": 0.25},
    )


@dataclass(frozen=True)
class ListSettings(ExperimentSettings):
    """A settings subclass with an unhashable field (the group_key bugfix)."""

    extra_taps: List[float] = field(default_factory=lambda: [1.0, 2.0])


@dataclass
class PoisonBackend:
    """Raises on any attempt to simulate — proves a warm run never runs."""

    name = "poison"

    def run_specs(self, specs, progress=None):
        raise AssertionError(
            f"warm run delegated {len(list(specs))} specs to the inner backend"
        )


def _write_entries(root: str, salt: str, work_units: float, lap: int) -> bool:
    """Pool worker: write every quick-grid SC/RF-Cart entry ``lap`` times."""
    store = ResultStore(root, salt=salt)
    specs = [make_spec(buffer_index=index) for index in range(5)]
    for _ in range(lap):
        for spec in specs:
            store.store(spec, make_result(work_units))
    return all(store.load(spec) is not None for spec in specs)


class TestFingerprint:
    def test_field_order_and_execution_knobs_are_irrelevant(self):
        base = ExperimentSettings(quick=True, seed=3)
        reordered = ExperimentSettings(seed=3, quick=True)
        executed = ExperimentSettings(
            quick=True,
            seed=3,
            workers=8,
            backend="pool+batch",
            cache_dir="/somewhere",
        )
        assert settings_fingerprint(base) == settings_fingerprint(reordered)
        assert settings_fingerprint(base) == settings_fingerprint(executed)

    def test_explicit_default_equals_unset(self):
        spelled = ExperimentSettings(quick=True, dt_on=0.01, fast_forward=True)
        assert settings_fingerprint(spelled) == settings_fingerprint(QUICK)

    def test_result_affecting_fields_change_the_fingerprint(self):
        for overrides in ({"seed": 1}, {"quick": False}, {"fast_forward": False}):
            changed = ExperimentSettings(**dict({"quick": True}, **overrides))
            assert settings_fingerprint(changed) != settings_fingerprint(QUICK)

    def test_subclass_never_collides_with_base(self):
        assert settings_fingerprint(ListSettings(quick=True)) != (
            settings_fingerprint(QUICK)
        )

    def test_spec_fingerprint_covers_cell_coordinates_and_factory(self):
        base = spec_fingerprint(make_spec())
        assert spec_fingerprint(make_spec(buffer_index=1)) != base
        assert spec_fingerprint(make_spec(trace_name="RF Mobile")) != base
        assert spec_fingerprint(make_spec(workload="DE")) != base
        assert spec_fingerprint(make_spec(buffer_factory=tiny_buffers)) != base

    def test_lambda_factory_is_rejected(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            callable_identity(lambda: [])

    def test_fingerprint_stable_across_interpreters(self, tmp_path):
        """A fresh process (fresh hash randomization) derives the same key."""
        program = (
            "from repro.experiments.backends import RunSpec\n"
            "from repro.experiments.runner import ExperimentSettings\n"
            "from repro.experiments.store import ResultStore, spec_fingerprint\n"
            "spec = RunSpec(workload='SC', trace_name='RF Cart', buffer_index=0,\n"
            "               settings=ExperimentSettings(quick=True, seed=3))\n"
            "print(spec_fingerprint(spec))\n"
            "print(ResultStore('unused', salt='pinned').key_for(spec))\n"
        )
        spec = make_spec(settings=ExperimentSettings(quick=True, seed=3))
        expected_fp = spec_fingerprint(spec)
        expected_key = ResultStore(tmp_path, salt="pinned").key_for(spec)
        for hashseed in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                env={
                    "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
                    "PYTHONHASHSEED": hashseed,
                },
            )
            assert child.stdout.splitlines() == [expected_fp, expected_key]


class TestGroupKeyBugfix:
    def test_group_key_is_a_plain_string_pair(self):
        key = make_spec().group_key
        assert isinstance(key[0], str) and key[1] == "RF Cart"

    def test_unhashable_settings_subclass_groups(self):
        """Settings with list fields used to blow up dict-keyed grouping."""
        settings = ListSettings(quick=True, extra_taps=[0.5])
        with pytest.raises(TypeError):
            hash(settings)  # the old GroupKey would have required this
        specs = [
            make_spec(settings=settings, buffer_index=index) for index in range(3)
        ]
        groups = trace_groups(specs)
        assert list(groups.values()) == [[0, 1, 2]]

    def test_equal_value_instances_share_a_lane_group(self):
        a = make_spec(settings=ExperimentSettings(quick=True))
        b = make_spec(settings=ExperimentSettings(quick=True), buffer_index=1)
        assert a.group_key == b.group_key
        assert len(trace_groups([a, b])) == 1

    def test_workers_only_differences_share_a_lane_group(self):
        """Execution knobs don't split lanes: the trace is identical."""
        a = make_spec(settings=ExperimentSettings(quick=True, workers=2))
        b = make_spec(settings=ExperimentSettings(quick=True, workers=8))
        assert a.group_key == b.group_key


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        spec, result = make_spec(), make_result()
        assert store.load(spec) is None
        store.store(spec, result)
        loaded = store.load(spec)
        assert loaded == result
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.writes == 1
        assert store.stats.bytes_written == store.stats.bytes_read > 0

    def test_salt_change_invalidates_every_entry(self, tmp_path):
        old = ResultStore(tmp_path, salt="v1")
        spec = make_spec()
        old.store(spec, make_result())
        new = ResultStore(tmp_path, salt="v2")
        assert new.load(spec) is None
        assert old.load(spec) is not None

    def test_key_ignores_the_environment(self, tmp_path, monkeypatch):
        """``salt=`` is the one override: no variable keeps entries live."""
        spec = make_spec()
        default = ResultStore(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
        under_variable = ResultStore(tmp_path)
        assert under_variable.salt == default.salt != "pinned"
        assert under_variable.key_for(spec) == default.key_for(spec)

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        spec = make_spec()
        store.store(spec, make_result())
        path = store.entry_path(spec)
        path.write_bytes(b"\x00garbage, not a pickle")
        assert store.load(spec) is None
        assert store.stats.misses == 1

    def test_foreign_entry_with_wrong_fingerprint_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        spec = make_spec()
        payload = {"fingerprint": "someone-else", "result": make_result()}
        store.entry_path(spec).parent.mkdir(parents=True)
        store.entry_path(spec).write_bytes(pickle.dumps(payload))
        assert store.load(spec) is None

    def test_entry_holding_a_non_result_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        spec = make_spec()
        payload = {"fingerprint": spec_fingerprint(spec), "result": {"not": "it"}}
        store.entry_path(spec).parent.mkdir(parents=True)
        store.entry_path(spec).write_bytes(pickle.dumps(payload))
        assert store.load(spec) is None

    def test_concurrent_pool_writers_never_tear_an_entry(self, tmp_path):
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_write_entries, str(tmp_path), "s", float(n), 10)
                for n in range(4)
            ]
            assert all(future.result() for future in futures)
        store = ResultStore(tmp_path, salt="s")
        for index in range(5):
            loaded = store.load(make_spec(buffer_index=index))
            assert loaded is not None  # last-writer-wins, never torn
            assert loaded.work_units in {0.0, 1.0, 2.0, 3.0}
        leftovers = list(Path(tmp_path).rglob("*.tmp"))
        assert leftovers == []

    def test_stats_file_is_written_as_json(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        store.store(make_spec(), make_result())
        store.load(make_spec())
        path = store.write_stats()
        assert path.name == STATS_FILENAME
        payload = json.loads(path.read_text())
        assert payload["writes"] == 1 and payload["hits"] == 1


class TestFailedWrite:
    def test_full_disk_propagates_and_keeps_earlier_entries(
        self, tmp_path, monkeypatch
    ):
        """The third entry's write runs out of space half-way through.

        The error propagates after every other computed result is stored,
        so a rerun recomputes only the failed cell.
        """
        specs = ExperimentRunner(QUICK).grid_specs(
            workloads=("SC",), trace_names=("RF Cart",)
        )
        serial = SerialBackend().run_specs(specs)
        real_write_bytes = Path.write_bytes
        entry_writes = []

        def write_bytes(path, data):
            if path.name.endswith(".tmp") and ".pkl." in path.name:
                entry_writes.append(path)
                if len(entry_writes) == 3:
                    real_write_bytes(path, data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        backend = CachedBackend(SerialBackend(), ResultStore(tmp_path, salt="s"))
        with pytest.raises(OSError) as excinfo:
            backend.run_specs(specs)
        assert excinfo.value.errno == errno.ENOSPC
        assert list(tmp_path.rglob("*.tmp")) == []
        monkeypatch.undo()

        rerun = CachedBackend(SerialBackend(), ResultStore(tmp_path, salt="s"))
        results = rerun.run_specs(specs)
        assert rerun.last_run_stats.hits == len(specs) - 1
        assert rerun.last_run_stats.misses == 1
        for expected, actual in zip(serial, results):
            assert_results_equivalent(expected, actual)


class TestRegistryIntegration:
    def test_cached_variants_are_listed(self):
        names = available_backends()
        for base in ("serial", "pool", "batch", "pool+batch"):
            assert f"cached:{base}" in names

    def test_resolve_builds_a_cached_wrapper(self, tmp_path):
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        backend = resolve_backend("cached:serial", settings)
        assert isinstance(backend, CachedBackend)
        assert isinstance(backend.inner, SerialBackend)
        assert backend.name == "cached:serial"
        assert backend.store.root == tmp_path

    def test_nested_and_unknown_cached_names_are_rejected(self):
        with pytest.raises(ConfigurationError, match="cached:<inner>"):
            resolve_backend("cached:cached:serial", QUICK)
        with pytest.raises(ConfigurationError, match="quantum"):
            resolve_backend("cached:quantum", QUICK)

    def test_backend_name_wraps_once(self, tmp_path):
        cache_dir = str(tmp_path)
        assert ExperimentSettings(cache_dir=cache_dir).backend_name == "cached:serial"
        assert (
            ExperimentSettings(cache_dir=cache_dir, backend="batch").backend_name
            == "cached:batch"
        )
        explicit = ExperimentSettings(backend="cached:serial", cache_dir=cache_dir)
        assert explicit.backend_name == "cached:serial"

    def test_cli_flags_reach_the_settings(self):
        args = build_parser().parse_args(
            ["table4", "--quick", "--backend", "cached:serial", "--cache-dir", "/d"]
        )
        assert args.backend == "cached:serial" and args.cache_dir == "/d"
        settings = ExperimentSettings(backend=args.backend, cache_dir=args.cache_dir)
        assert settings.backend_name == "cached:serial"


class TestCachedBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        return sweep(settings=QUICK, backend="serial")

    def test_full_quick_grid_cold_and_warm_match_serial(
        self, serial_reference, tmp_path
    ):
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        cold = sweep(settings=settings)
        assert cold.backend == "cached:serial"
        assert cold.cache_stats.misses == len(cold) == len(serial_reference)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.writes == len(cold)
        for reference, candidate in zip(serial_reference.results, cold.results):
            assert_results_equivalent(reference, candidate)

        warm = sweep(settings=settings)
        assert warm.cache_stats.hits == len(warm)
        assert warm.cache_stats.misses == 0 and warm.cache_stats.writes == 0
        for reference, candidate in zip(serial_reference.results, warm.results):
            assert_results_equivalent(reference, candidate)

    def test_warm_run_performs_zero_simulator_steps(self, tmp_path):
        """All-hit grids never touch the inner backend (it would raise)."""
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        sweep(workloads=("SC",), trace_names=("RF Cart",), settings=settings)
        store = ResultStore(tmp_path)
        order: List[Tuple[str, str]] = []
        warm = sweep(
            workloads=("SC",),
            trace_names=("RF Cart",),
            settings=settings,
            backend=CachedBackend(PoisonBackend(), store),
            progress=lambda r: order.append((r.buffer_name, r.workload_name)),
        )
        assert warm.cache_stats.hits == len(warm) == 5
        assert order == [(r.buffer_name, r.workload_name) for r in warm.results]

    def test_hits_are_shared_across_inner_backends(self, tmp_path):
        """A pool+batch run's entries answer a later serial run: the key
        excludes execution knobs, so the store is one cache per grid, not
        one per backend."""
        cold_settings = ExperimentSettings(
            quick=True, cache_dir=str(tmp_path), backend="pool+batch", workers=2
        )
        cold = sweep(
            workloads=("DE",), trace_names=("RF Cart",), settings=cold_settings
        )
        assert cold.backend == "cached:pool+batch"
        warm = sweep(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=ExperimentSettings(quick=True, cache_dir=str(tmp_path)),
        )
        assert warm.backend == "cached:serial"
        assert warm.cache_stats.hits == len(warm) and warm.cache_stats.misses == 0
        for reference, candidate in zip(cold.results, warm.results):
            assert_results_equivalent(reference, candidate)

    def test_partial_grids_only_compute_the_delta(self, tmp_path):
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        sweep(workloads=("SC",), trace_names=("RF Cart",), settings=settings)
        grown = sweep(
            workloads=("SC",), trace_names=("RF Cart", "RF Mobile"), settings=settings
        )
        assert grown.cache_stats.hits == 5 and grown.cache_stats.misses == 5

    def test_stats_delta_is_per_run_not_cumulative(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        backend = CachedBackend(SerialBackend(), store)
        runner = ExperimentRunner(QUICK, backend=backend)
        specs = runner.grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        backend.run_specs(specs)
        first = backend.last_run_stats
        backend.run_specs(specs)
        second = backend.last_run_stats
        assert first == StoreStats(
            misses=5, writes=5, bytes_written=first.bytes_written
        )
        assert second.hits == 5 and second.misses == 0 and second.writes == 0
