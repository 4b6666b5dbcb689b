"""The distributed sweep service: transport, scheduling, fault tolerance.

Four contracts are pinned here:

* **Wire protocol** — length-prefixed pickle frames round-trip every
  message, a clean EOF between frames reads as ``None``, and truncated or
  misframed streams raise instead of hanging or mis-parsing.
* **Shard planning** — the coordinator dispatches exactly
  :func:`~repro.experiments.backends.plan_shards`, the plan ``pool+batch``
  runs too: every spec lands in exactly one shard, lane shards never go
  below their kernel's lane floor, every other cell is a one-cell shard,
  shards come back in spec order, and no shard is re-cut mid-sweep.
* **Bit-equality** — the full quick grid through ``remote:serial`` with
  local worker processes returns the serial backend's results in serial
  order, exactly (``tests/oracle.py``) — including with a worker SIGKILLed
  mid-sweep.
* **Fault tolerance** — stalled workers trip the per-shard timeout and
  their shards are requeued elsewhere; an exhausted retry budget raises
  :class:`~repro.exceptions.SweepTransportError` naming the affected spec
  indices (never a hang); a fleet that dies entirely fails fast.

Subprocess-worker tests stick to :func:`standard_buffers` — test-local
buffer factories don't exist in a freshly spawned worker interpreter, so
their specs can't unpickle there.  The in-process fake-client tests are
free to use tiny local factories.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest
from oracle import assert_results_equivalent

from repro.buffers.static import StaticBuffer
from repro.exceptions import ConfigurationError, SweepTransportError
from repro.experiments import sweep
from repro.experiments.backends import (
    SerialBackend,
    available_backends,
    plan_shards,
    resolve_backend,
)
from repro.experiments.remote import (
    LocalWorkerPool,
    RemoteBackend,
    SweepWorker,
    protocol,
    worker_command,
)
from repro.experiments.remote.worker import main as worker_main
from repro.experiments.runner import ExperimentRunner, ExperimentSettings
from repro.experiments.store import CachedBackend
from repro.units import millifarads

QUICK = ExperimentSettings(quick=True)
FAST = ExperimentSettings(quick=True, quick_trace_cap=120.0)


def static_ladder_buffers():
    """Six trace-sharing static lanes (in-process tests only; see above)."""
    return [
        StaticBuffer(millifarads(0.5 * (index + 1)), name=f"{0.5 * (index + 1):.1f} mF")
        for index in range(6)
    ]


@pytest.fixture(scope="module")
def serial_full_grid():
    """The serial oracle for the full quick grid, computed once."""
    return sweep(settings=QUICK, backend="serial")


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def roundtrip(self, message):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, message)
            return protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_messages_roundtrip(self):
        specs = ExperimentRunner(FAST).grid_specs(
            workloads=("DE",), trace_names=("RF Cart",)
        )
        for message in (
            protocol.Hello(worker_id="h:1", pid=1, host="h"),
            protocol.Heartbeat(worker_id="h:1"),
            protocol.ShardAssignment(
                shard_id=3,
                attempt=1,
                inner="serial",
                indices=(0, 1),
                specs=tuple(specs[:2]),
            ),
            protocol.ShardFailure(
                shard_id=3, attempt=2, worker_id="h:1", error="boom"
            ),
            protocol.Shutdown(reason="drained"),
        ):
            received = self.roundtrip(message)
            assert type(received) is type(message)
            if not isinstance(message, protocol.ShardAssignment):
                assert received == message
            else:
                assert received.indices == message.indices
                assert len(received.specs) == len(message.specs)

    def test_clean_eof_reads_as_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert protocol.recv_message(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10abc")  # 16 promised
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_oversize_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff" * 8)
            with pytest.raises(ConnectionError, match="refusing protocol frame"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert protocol.parse_address("host:9000") == ("host", 9000)
        assert protocol.parse_address(":9000") == ("127.0.0.1", 9000)
        for bad in ("host", "host:", "host:http", "9000"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                protocol.parse_address(bad)


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


class TestShardPlanning:
    def test_every_spec_in_exactly_one_shard_in_order(self):
        specs = ExperimentRunner(QUICK).grid_specs()
        shards = plan_shards(specs, workers=3)
        seen = [index for shard in shards for index in shard]
        assert sorted(seen) == list(range(len(specs)))
        assert shards == sorted(shards)  # shards in spec order
        for shard in shards:
            assert list(shard) == sorted(shard)
            group_keys = {specs[i].group_key for i in shard}
            assert len(group_keys) == 1  # one trace (and kernel) per shard

    def test_wide_lane_group_splits_but_not_below_min_lanes(self, lane_floors):
        specs = ExperimentRunner(
            QUICK, buffer_factory=static_ladder_buffers
        ).grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        lane_floors(static=3)
        shards = plan_shards(specs, workers=3)
        assert len(shards) == 2  # six lanes split in two, floor of three
        assert all(len(shard) >= 3 for shard in shards)
        lane_floors(static=6)
        assert plan_shards(specs, workers=3) == plan_shards(
            specs, workers=1
        )  # too narrow to split, whatever the worker count

    def test_groups_below_min_lanes_become_one_cell_shards(self, lane_floors):
        """The paper grid's Morphy group of four sits below a floor of five,
        so each of its cells is a shard of its own, not one narrow shard."""
        lane_floors(5)
        specs = ExperimentRunner(QUICK).grid_specs(
            workloads=("DE", "SC", "RT", "PF"), trace_names=("RF Cart",)
        )
        morphy = [i for i, spec in enumerate(specs) if spec.buffer_index == 3]
        assert len(morphy) == 4
        shards = plan_shards(specs, workers=2)
        assert [shard for shard in shards if shard[0] in morphy] == [
            (index,) for index in morphy
        ]

    def test_shard_count_tracks_worker_count(self, lane_floors):
        lane_floors(static=2)
        specs = ExperimentRunner(
            QUICK, buffer_factory=static_ladder_buffers
        ).grid_specs(workloads=("SC",), trace_names=("RF Cart",))
        assert len(plan_shards(specs, workers=4)) > len(
            plan_shards(specs, workers=1)
        )


# ----------------------------------------------------------------------
# Name grammar: [cached:][remote:]<backend>
# ----------------------------------------------------------------------


class TestPrefixRegistry:
    def test_compositions_enumerated(self):
        names = available_backends()
        assert "remote:serial" in names
        assert "cached:remote:serial" in names
        assert "cached:serial" in names
        # cached: nests remote:, never itself; remote: nests nothing.
        assert "remote:remote:serial" not in names
        assert "remote:cached:serial" not in names
        assert "cached:cached:serial" not in names

    def test_nested_composition_resolves(self, tmp_path):
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        backend = resolve_backend("cached:remote:serial", settings)
        assert isinstance(backend, CachedBackend)
        assert isinstance(backend.inner, RemoteBackend)
        assert backend.inner.inner == "serial"
        assert backend.name == "cached:remote:serial"

    def test_unknown_inner_raises_listing_registry(self):
        for name in ("remote:quantum", "remote:remote:serial", "remote:"):
            with pytest.raises(ConfigurationError) as excinfo:
                resolve_backend(name, QUICK)
            assert "serial" in str(excinfo.value)
        with pytest.raises(ConfigurationError):
            resolve_backend("cached:cached:serial", QUICK)


# ----------------------------------------------------------------------
# Bit-equality through real worker processes
# ----------------------------------------------------------------------


class TestRemoteEquivalence:
    def test_full_quick_grid_matches_serial(self, serial_full_grid):
        """The acceptance gate: remote:serial x2 workers == serial, full grid."""
        seen = []
        remote = sweep(
            settings=QUICK,
            backend=RemoteBackend(inner="serial", workers=2),
            progress=lambda result: seen.append(result.buffer_name),
        )
        assert len(remote) == len(serial_full_grid) == 4 * 5 * 5
        assert remote.specs == serial_full_grid.specs
        for reference, candidate in zip(serial_full_grid.results, remote.results):
            assert_results_equivalent(reference, candidate)
        assert seen == [result.buffer_name for result in serial_full_grid.results]

    def test_dispatches_exactly_the_shard_plan_and_matches_serial(
        self, lane_floors, monkeypatch
    ):
        """``remote:`` sends each shard of ``plan_shards`` once and nothing
        else: at a static floor of one, the grid's six static lanes split
        into two three-lane shards beside four one-cell shards, so the plan
        has more shards than workers, and a lane shard that could be re-cut
        down to single cells during the drain never is."""
        import repro.experiments.remote.coordinator as coordinator_module

        lane_floors(static=1)
        specs = ExperimentRunner(QUICK).grid_specs(
            workloads=("DE", "SC"), trace_names=("RF Cart",)
        )
        plan = plan_shards(specs, workers=2)
        assert len(plan) > 2
        assert sorted(len(shard) for shard in plan if len(shard) > 1) == [3, 3]

        assigned = []
        send = coordinator_module._WorkerHandle.send

        def recording_send(handle, message):
            if isinstance(message, protocol.ShardAssignment):
                assigned.append(message.indices)
            return send(handle, message)

        monkeypatch.setattr(coordinator_module._WorkerHandle, "send", recording_send)
        serial = SerialBackend().run_specs(specs)
        backend = RemoteBackend(inner="batch", workers=2)
        remote = backend.run_specs(specs)
        report = backend.last_run_report
        assert report.shards_total == report.dispatches == len(plan)
        assert sorted(assigned) == plan
        assert len(remote) == len(serial)
        for reference, candidate in zip(serial, remote):
            assert_results_equivalent(reference, candidate)

    def test_worker_sigkill_mid_sweep_still_matches_serial(
        self, serial_full_grid, monkeypatch
    ):
        """Killing one of three workers mid-shard costs retries, not results."""
        import repro.experiments.remote.coordinator as coordinator_module

        pools = []

        class CapturingPool(LocalWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(coordinator_module, "LocalWorkerPool", CapturingPool)
        backend = RemoteBackend(inner="serial", workers=3)
        outcome = {}

        def run():
            try:
                outcome["results"] = backend.run_specs(serial_full_grid.specs)
            except BaseException as error:  # pragma: no cover - failure path
                outcome["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            run_state = backend._active_run
            if pools and run_state is not None and run_state.report.dispatches:
                break
            time.sleep(0.02)
        else:  # pragma: no cover - only on pathological slowness
            pytest.fail("sweep never dispatched a shard")
        os.kill(pools[0].processes[0].pid, signal.SIGKILL)
        thread.join(timeout=600.0)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        for reference, candidate in zip(
            serial_full_grid.results, outcome["results"]
        ):
            assert_results_equivalent(reference, candidate)


# ----------------------------------------------------------------------
# Fault tolerance against scripted (in-process) workers
# ----------------------------------------------------------------------


class FakeWorker:
    """A protocol-level client the tests script: stall or fail on demand."""

    def __init__(self, port, behavior):
        self.behavior = behavior  # "stall" | "fail"
        self.assigned = threading.Event()
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        protocol.send_message(
            self.sock,
            protocol.Hello(worker_id=f"fake-{behavior}", pid=0, host="fake"),
        )
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        try:
            while True:
                message = protocol.recv_message(self.sock)
                if message is None or isinstance(message, protocol.Shutdown):
                    return
                if isinstance(message, protocol.ShardAssignment):
                    self.assigned.set()
                    if self.behavior == "fail":
                        protocol.send_message(
                            self.sock,
                            protocol.ShardFailure(
                                shard_id=message.shard_id,
                                attempt=message.attempt,
                                worker_id="fake-fail",
                                error="scripted shard failure",
                            ),
                        )
                    # "stall": swallow the assignment and keep reading.
        except (OSError, ConnectionError):
            return

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def run_backend_async(backend, specs):
    """Start ``backend.run_specs`` on a thread; poll for the bound port."""
    outcome = {}

    def run():
        try:
            outcome["results"] = backend.run_specs(specs)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        run_state = backend._active_run
        if run_state is not None and run_state.bound_address is not None:
            return thread, outcome, run_state.bound_address[1]
        if not thread.is_alive():
            break
        time.sleep(0.01)
    thread.join(timeout=1.0)
    raise AssertionError(f"coordinator never bound a port; outcome={outcome}")


class TestFaultTolerance:
    def test_stalled_worker_trips_shard_timeout_and_requeues(self):
        specs = ExperimentRunner(
            FAST, buffer_factory=static_ladder_buffers
        ).grid_specs(workloads=("DE",), trace_names=("RF Cart",))
        serial = resolve_backend("serial", FAST).run_specs(specs)
        backend = RemoteBackend(
            inner="serial",
            workers=0,
            listen=("127.0.0.1", 0),
            shard_timeout=0.5,
            heartbeat_timeout=60.0,
        )
        thread, outcome, port = run_backend_async(backend, specs)
        staller = FakeWorker(port, "stall")
        try:
            assert staller.assigned.wait(timeout=30.0)
            # Only now add a real worker: the stalled shard must be taken
            # away from the fake and complete elsewhere.
            real = threading.Thread(
                target=SweepWorker("127.0.0.1", port).run, daemon=True
            )
            real.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        finally:
            staller.close()
        assert "error" not in outcome, outcome.get("error")
        report = backend.last_run_report
        assert report.requeues >= 1
        assert report.workers_lost >= 1
        for reference, candidate in zip(serial, outcome["results"]):
            assert_results_equivalent(reference, candidate)

    def test_retry_budget_exhaustion_raises_naming_spec_indices(self):
        specs = ExperimentRunner(
            FAST, buffer_factory=static_ladder_buffers
        ).grid_specs(workloads=("DE",), trace_names=("RF Cart",))
        backend = RemoteBackend(
            inner="serial",
            workers=0,
            listen=("127.0.0.1", 0),
            max_shard_retries=1,
        )
        thread, outcome, port = run_backend_async(backend, specs)
        failer = FakeWorker(port, "fail")
        try:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        finally:
            failer.close()
        error = outcome.get("error")
        assert isinstance(error, SweepTransportError)
        message = str(error)
        assert "spec indices" in message
        assert "scripted shard failure" in message
        # Every index named in the error is a real position in the grid.
        failed_shard = next(
            shard for shard in plan_shards(specs, workers=1) if str(list(shard)) in message
        )
        assert set(failed_shard) <= set(range(len(specs)))

    def test_all_workers_exiting_fails_fast_not_hangs(self, monkeypatch):
        import sys

        import repro.experiments.remote.launcher as launcher_module

        monkeypatch.setattr(
            launcher_module,
            "worker_command",
            lambda address, **kwargs: [sys.executable, "-c", "pass"],
        )
        specs = ExperimentRunner(FAST).grid_specs(
            workloads=("DE",), trace_names=("RF Cart",)
        )
        backend = RemoteBackend(inner="serial", workers=2)
        with pytest.raises(SweepTransportError, match="exited"):
            backend.run_specs(specs)

    def test_zero_workers_without_listen_rejected(self):
        with pytest.raises(ConfigurationError, match="listen"):
            RemoteBackend(inner="serial", workers=0)
        with pytest.raises(ConfigurationError, match="workers"):
            RemoteBackend(inner="serial", workers=-1)


# ----------------------------------------------------------------------
# Store composition: workers share the coordinator's cache directory
# ----------------------------------------------------------------------


class TestCacheSharing:
    def test_cold_remote_populates_store_and_warm_rerun_hits(self, tmp_path):
        settings = ExperimentSettings(quick=True, cache_dir=str(tmp_path))
        cold = sweep(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=settings,
            backend="cached:remote:serial",
        )
        assert cold.cache_stats.misses == len(cold.results)
        warm = sweep(
            workloads=("DE",),
            trace_names=("RF Cart",),
            settings=settings,
            backend="cached:remote:serial",
        )
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == len(warm.results)
        for reference, candidate in zip(cold.results, warm.results):
            assert_results_equivalent(reference, candidate)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestCli:
    def test_worker_requires_connect(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker_main([])
        assert excinfo.value.code == 2
        assert "--connect" in capsys.readouterr().err

    def test_worker_rejects_malformed_address(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--connect", "nonsense"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_subcommand_routes_through_main_cli(self, capsys):
        from repro.experiments.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["worker"])
        assert excinfo.value.code == 2
        assert "react-repro worker" in capsys.readouterr().err

    def test_worker_command_matches_cli_contract(self):
        command = worker_command(("10.0.0.5", 9123))
        assert command[1:] == [
            "-m",
            "repro.experiments.remote",
            "--connect",
            "10.0.0.5:9123",
        ]

    def test_settings_resolve_remote_worker_defaults(self):
        backend = resolve_backend(
            "remote:serial", ExperimentSettings(quick=True, remote_workers=3)
        )
        assert backend.workers == 3
        listening = resolve_backend(
            "remote:serial",
            ExperimentSettings(quick=True, remote_listen="127.0.0.1:0"),
        )
        assert listening.workers == 0  # external workers expected
        assert listening.listen == ("127.0.0.1", 0)
