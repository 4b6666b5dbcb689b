"""Coordinator side of the distributed sweep service: ``RemoteBackend``.

The coordinator turns a grid of
:class:`~repro.experiments.backends.RunSpec`\\ s into a fault-tolerant work
queue of *shards* and serves them to whatever workers connect:

1. **Shard planning** is :func:`~repro.experiments.backends.plan_shards`,
   the same plan ``pool+batch`` executes: a lane shard's specs share one
   trace and one lockstep kernel, so a worker running ``--inner batch``
   batches exactly what the in-process batch backend would, and every
   other cell is a one-cell shard.  Once shards complete, still-pending
   wide shards are re-split from the observed per-cell wall-clock.
2. **Dispatch** hands each shard to an idle worker; workers register by
   connecting to the coordinator's TCP socket (spawned locally via
   :class:`~repro.experiments.remote.launcher.LocalWorkerPool` and/or
   started on other hosts with ``react-repro worker --connect``).
3. **Fault tolerance**: a worker that disconnects, stops heartbeating, or
   blows its per-shard deadline is dropped and its in-flight shard is
   requeued on the next idle worker — up to ``max_shard_retries`` extra
   dispatches, after which the sweep fails with a
   :class:`~repro.exceptions.SweepTransportError` naming the affected
   spec indices (never a hang).
4. **Reassembly**: results are scattered back into canonical spec order as
   shards complete; the return value is bit-identical to the serial
   backend's because every spec is a deterministic function of itself and
   the worker executes it through the same engines.

Threading model: one accept thread, one reader thread per connection, and
the dispatching main loop — readers push events onto a queue the main loop
drains, so all scheduling state is owned by a single thread.
"""

from __future__ import annotations

import logging
import pickle
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, SweepTransportError
from repro.experiments.backends import (
    CACHED_PREFIX,
    REMOTE_PREFIX,
    ProgressCallback,
    RunSpec,
    _split_evenly,
    available_backends,
    plan_shards,
    shard_floor,
)
from repro.experiments.remote import protocol
from repro.experiments.remote.launcher import LocalWorkerPool
from repro.experiments.runner import ExperimentSettings
from repro.sim.results import SimulationResult

log = logging.getLogger("repro.remote.coordinator")

#: Local workers spawned when neither ``remote_workers`` nor a listen
#: address is configured.
DEFAULT_LOCAL_WORKERS = 2

#: Default per-shard wall-clock budget before the shard is requeued
#: elsewhere.  Generous: a full-fidelity Morphy lane group is minutes of
#: simulation; pass ``shard_timeout=None`` to disable the deadline.
DEFAULT_SHARD_TIMEOUT = 900.0


#: Default wall-clock a single shard should aim for once the per-cell cost
#: is known (see ``RemoteBackend(shard_target_seconds=...)``).  Small enough
#: that one straggler shard cannot serialize the drain of a sweep whose
#: cells turned out heavy, large enough that dispatch overhead stays noise.
DEFAULT_SHARD_TARGET_SECONDS = 30.0


@dataclass
class _Shard:
    """One unit of dispatch: one :func:`plan_shards` shard, or a piece of one.

    The retune never splits it into pieces narrower than ``floor``.
    """

    shard_id: int
    indices: Tuple[int, ...]
    floor: int
    attempts: int = 0
    done: bool = False
    last_error: Optional[str] = None


@dataclass
class RemoteReport:
    """What one remote sweep did, for logging, tests, and debugging."""

    shards_total: int = 0
    shard_splits: int = 0
    workers_connected: int = 0
    workers_lost: int = 0
    dispatches: int = 0
    requeues: int = 0
    failures: int = 0
    duplicate_results: int = 0


class _WorkerHandle:
    """Coordinator-side state for one connected worker."""

    def __init__(self, conn: socket.socket, address) -> None:
        self.conn = conn
        self.address = address
        self.worker_id: Optional[str] = None
        self.last_seen = time.monotonic()
        self.shard: Optional[_Shard] = None
        self.deadline: Optional[float] = None
        self.alive = True
        self._send_lock = threading.Lock()

    @property
    def label(self) -> str:
        return self.worker_id or f"{self.address[0]}:{self.address[1]}"

    def send(self, message) -> bool:
        """Send one message; ``False`` (never a raise) on a dead socket."""
        try:
            with self._send_lock:
                protocol.send_message(self.conn, message)
            return True
        except OSError:
            return False

    def close(self) -> None:
        self.alive = False
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class RemoteBackend:
    """Coordinator/worker transport backend (``remote:<inner>``).

    Listens on a TCP socket, registers workers as they connect, shards the
    grid along the shared partitioning boundaries, and dispatches shards
    from a work queue with heartbeats, per-shard timeouts, bounded
    retry-with-requeue, and graceful drain.  Results are reassembled in
    spec order and are bit-identical to the serial backend's.

    ``workers`` localhost worker processes are spawned per sweep (0 to rely
    entirely on externally started workers); ``listen`` is the
    ``(host, port)`` bind address — ``None`` binds ``127.0.0.1`` on an
    ephemeral port, which is the right thing whenever the workers are the
    locally spawned ones.  ``progress`` fires in spec order after the grid
    completes (shards finish interleaved across workers, so there is no
    meaningful earlier per-cell moment).
    """

    def __init__(
        self,
        inner: str = "serial",
        workers: int = DEFAULT_LOCAL_WORKERS,
        listen: Optional[Tuple[str, int]] = None,
        *,
        shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
        shard_target_seconds: Optional[float] = DEFAULT_SHARD_TARGET_SECONDS,
        heartbeat_timeout: float = 20.0,
        max_shard_retries: int = 2,
        worker_timeout: float = 60.0,
        verbose_workers: bool = False,
    ) -> None:
        if not inner or inner.startswith((CACHED_PREFIX, REMOTE_PREFIX)):
            raise ConfigurationError(
                f"remote workers execute a plain local backend; cannot use "
                f"{inner!r} as the inner backend of {REMOTE_PREFIX}<inner>"
            )
        if inner not in available_backends():
            raise ConfigurationError(
                f"unknown inner backend {inner!r} for {REMOTE_PREFIX}<inner>; "
                "registered backends: " + ", ".join(available_backends())
            )
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if workers == 0 and listen is None:
            raise ConfigurationError(
                "a remote backend with no local workers needs a listen "
                "address for external workers to connect to"
            )
        if shard_target_seconds is not None and shard_target_seconds <= 0.0:
            raise ConfigurationError(
                f"shard_target_seconds must be positive (or None to keep "
                f"the initial shard plan), got {shard_target_seconds}"
            )
        self.inner = inner
        self.workers = workers
        self.listen = listen
        self.shard_timeout = shard_timeout
        self.shard_target_seconds = shard_target_seconds
        self.heartbeat_timeout = heartbeat_timeout
        self.max_shard_retries = max_shard_retries
        self.worker_timeout = worker_timeout
        self.verbose_workers = verbose_workers
        self.name = REMOTE_PREFIX + inner
        self.last_run_report: Optional[RemoteReport] = None
        #: The in-flight :class:`_Coordinator` while ``run_specs`` runs —
        #: observability for fault-injection tests (bound address, pool pids).
        self._active_run: Optional["_Coordinator"] = None

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        specs = list(specs)
        if not specs:
            return []
        run = _Coordinator(self, specs)
        self._active_run = run
        try:
            results = run.execute()
        finally:
            self.last_run_report = run.report
            self._active_run = None
        if progress is not None:
            for result in results:
                progress(result)
        return results


class _Coordinator:
    """One sweep's scheduling state; owned by the dispatching thread."""

    def __init__(self, backend: RemoteBackend, specs: List[RunSpec]) -> None:
        self.backend = backend
        self.specs = specs
        self.shards = [
            _Shard(shard_id, indices, shard_floor(specs, indices))
            for shard_id, indices in enumerate(
                plan_shards(specs, backend.workers or 1)
            )
        ]
        self.shard_by_id = {shard.shard_id: shard for shard in self.shards}
        self.pending: deque = deque(self.shards)
        self._next_shard_id = len(self.shards)
        #: EWMA of observed per-cell wall-clock, seeded by the first
        #: completed shard; drives the pending-shard retune.
        self._per_cell_seconds: Optional[float] = None
        self.results: List[Optional[SimulationResult]] = [None] * len(specs)
        self.completed = 0
        self.events: "queue.Queue[tuple]" = queue.Queue()
        self.handles: List[_WorkerHandle] = []
        self.idle: deque = deque()
        self.report = RemoteReport(shards_total=len(self.shards))
        self.pool: Optional[LocalWorkerPool] = None
        self.server: Optional[socket.socket] = None
        self.bound_address: Optional[Tuple[str, int]] = None
        self.closing = False
        self._last_activity = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def execute(self) -> List[SimulationResult]:
        host, port = self.backend.listen or ("127.0.0.1", 0)
        self.server = socket.create_server((host, port))
        self.server.settimeout(0.25)
        bound = self.server.getsockname()
        self.bound_address = (bound[0], bound[1])
        log.info(
            "coordinator listening on %s:%d (%d specs in %d shards, inner %s)",
            bound[0],
            bound[1],
            len(self.specs),
            len(self.shards),
            self.backend.inner,
        )
        threading.Thread(target=self._accept_loop, daemon=True).start()
        try:
            if self.backend.workers > 0:
                self.pool = LocalWorkerPool(
                    self.backend.workers,
                    ("127.0.0.1", bound[1]),
                    verbose=self.backend.verbose_workers,
                )
            self._loop()
        finally:
            self._shutdown()
        assert all(result is not None for result in self.results)
        return list(self.results)

    def _loop(self) -> None:
        started = time.monotonic()
        while self.completed < len(self.shards):
            self._dispatch()
            try:
                event = self.events.get(timeout=0.1)
            except queue.Empty:
                event = None
            while event is not None:
                self._handle_event(event)
                try:
                    event = self.events.get_nowait()
                except queue.Empty:
                    event = None
            self._check_timeouts()
            self._check_liveness(started)
        log.info(
            "sweep drained: %d shards, %d dispatches, %d requeues, "
            "%d worker(s) seen",
            self.report.shards_total,
            self.report.dispatches,
            self.report.requeues,
            self.report.workers_connected,
        )

    def _shutdown(self) -> None:
        self.closing = True
        for handle in list(self.handles):
            handle.send(protocol.Shutdown())
            handle.close()
        self.handles.clear()
        self.idle.clear()
        if self.server is not None:
            try:
                self.server.close()
            except OSError:
                pass
        if self.pool is not None:
            self.pool.shutdown()

    # ------------------------------------------------------------------
    # Socket threads (push onto self.events; own no scheduling state)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self.closing:
            try:
                conn, address = self.server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            handle = _WorkerHandle(conn, address)
            threading.Thread(
                target=self._reader_loop, args=(handle,), daemon=True
            ).start()

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        try:
            hello = protocol.recv_message(handle.conn)
        except (OSError, ConnectionError, pickle.UnpicklingError, EOFError):
            handle.close()
            return
        if (
            not isinstance(hello, protocol.Hello)
            or hello.version != protocol.PROTOCOL_VERSION
        ):
            log.warning(
                "rejecting connection from %s: bad hello %r",
                handle.address,
                hello,
            )
            handle.close()
            return
        handle.worker_id = hello.worker_id
        handle.last_seen = time.monotonic()
        self.events.put(("hello", handle))
        while True:
            try:
                message = protocol.recv_message(handle.conn)
            except Exception as error:
                # Any transport or unpickling failure means this worker's
                # connection is done for; the main loop warns when it drains
                # the "lost" event, this records the proximate cause.
                log.debug("worker %s socket read failed: %s", handle.label, error)
                break
            if message is None:
                break
            handle.last_seen = time.monotonic()
            if isinstance(message, protocol.Heartbeat):
                continue
            self.events.put(("message", handle, message))
        self.events.put(("lost", handle))

    # ------------------------------------------------------------------
    # Scheduling (main thread only)
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        while self.pending and self.idle:
            handle = self.idle.popleft()
            if not handle.alive:
                continue
            shard = self.pending.popleft()
            if shard.done:
                continue
            shard.attempts += 1
            sent = handle.send(
                protocol.ShardAssignment(
                    shard_id=shard.shard_id,
                    attempt=shard.attempts,
                    inner=self.backend.inner,
                    indices=shard.indices,
                    specs=tuple(self.specs[i] for i in shard.indices),
                )
            )
            if not sent:
                shard.attempts -= 1  # the assignment never left this host
                self.pending.appendleft(shard)
                self._drop_worker(handle, "send failed")
                continue
            handle.shard = shard
            handle.deadline = (
                time.monotonic() + self.backend.shard_timeout
                if self.backend.shard_timeout is not None
                else None
            )
            self.report.dispatches += 1
            log.info(
                "dispatched shard %d (%d specs, attempt %d) to worker %s",
                shard.shard_id,
                len(shard.indices),
                shard.attempts,
                handle.label,
            )

    def _handle_event(self, event: tuple) -> None:
        if self.closing:
            return
        kind, handle = event[0], event[1]
        if kind == "hello":
            self.handles.append(handle)
            self.idle.append(handle)
            self.report.workers_connected += 1
            self._last_activity = time.monotonic()
            log.info(
                "worker %s connected (%d worker(s) registered)",
                handle.label,
                len(self.handles),
            )
        elif kind == "lost":
            if handle.alive:
                self._drop_worker(handle, "connection lost")
        elif kind == "message":
            message = event[2]
            if isinstance(message, protocol.ShardResult):
                self._complete(handle, message)
            elif isinstance(message, protocol.ShardFailure):
                self._shard_failed(handle, message)
            else:
                log.warning(
                    "ignoring unexpected %r from worker %s",
                    type(message).__name__,
                    handle.label,
                )

    def _complete(self, handle: _WorkerHandle, message: protocol.ShardResult) -> None:
        shard = self.shard_by_id.get(message.shard_id)
        self._release(handle, message.shard_id)
        if shard is None or shard.done:
            # A shard can complete twice when its first worker was declared
            # stalled but later delivered; results are deterministic, so
            # either copy is correct — keep the first, count the duplicate.
            self.report.duplicate_results += 1
            log.info(
                "ignoring duplicate result for shard %s from worker %s",
                message.shard_id,
                handle.label,
            )
            return
        if len(message.results) != len(shard.indices):
            self._requeue(
                shard,
                f"worker {handle.label} returned {len(message.results)} "
                f"results for {len(shard.indices)} specs",
            )
            return
        for index, result in zip(shard.indices, message.results):
            self.results[index] = result
        shard.done = True
        self.completed += 1
        self._last_activity = time.monotonic()
        log.info(
            "shard %d complete on worker %s in %.3fs (attempt %d; %d/%d shards)",
            shard.shard_id,
            handle.label,
            message.wall_seconds,
            message.attempt,
            self.completed,
            len(self.shards),
        )
        self._observe_shard_cost(shard, message.wall_seconds)

    def _observe_shard_cost(self, shard: _Shard, wall_seconds: float) -> None:
        """Fold one completed shard into the per-cell wall-clock estimate."""
        if self.backend.shard_target_seconds is None or wall_seconds <= 0.0:
            return
        per_cell = wall_seconds / max(1, len(shard.indices))
        if self._per_cell_seconds is None:
            self._per_cell_seconds = per_cell
        else:
            # Equal-weight EWMA: recent shards dominate, so an estimate
            # seeded by an unrepresentative first shard keeps correcting.
            self._per_cell_seconds = 0.5 * self._per_cell_seconds + 0.5 * per_cell
        self._retune_pending()

    def _retune_pending(self) -> None:
        """Re-split never-dispatched shards toward the target wall-clock.

        :func:`plan_shards` sizes lane shards from lane counts and the
        worker count alone, whatever the per-cell cost; once completed
        shards reveal how expensive a cell actually is, any pending shard
        predicted to run well past ``shard_target_seconds`` is split down —
        never below its own kernel's lane floor, and a one-cell shard never
        splits — so stragglers shrink, workers stay balanced through the
        drain, and a requeued retry re-runs less work.  Shards that already
        dispatched once keep their identity: splitting them would reset the
        per-shard retry ledger.
        """
        per_cell = self._per_cell_seconds
        target = self.backend.shard_target_seconds
        if per_cell is None or target is None or per_cell <= 0.0:
            return
        limit = max(1, int(target / per_cell))
        retuned: deque = deque()
        for shard in self.pending:
            chunks = 1
            if shard.attempts == 0 and len(shard.indices) > max(limit, shard.floor):
                chunks = min(
                    -(-len(shard.indices) // limit),  # ceil → pieces near target
                    len(shard.indices) // shard.floor,
                )
            if chunks <= 1:
                retuned.append(shard)
                continue
            del self.shard_by_id[shard.shard_id]
            self.shards.remove(shard)
            pieces = _split_evenly(list(shard.indices), chunks)
            for piece in pieces:
                replacement = _Shard(
                    shard_id=self._next_shard_id,
                    indices=tuple(piece),
                    floor=shard.floor,
                )
                self._next_shard_id += 1
                self.shards.append(replacement)
                self.shard_by_id[replacement.shard_id] = replacement
                retuned.append(replacement)
            self.report.shard_splits += 1
            log.info(
                "retuned shard %d (%d specs ≈ %.1fs at %.3fs/cell) into %d "
                "shards of ~%d specs",
                shard.shard_id,
                len(shard.indices),
                len(shard.indices) * per_cell,
                per_cell,
                len(pieces),
                max(len(piece) for piece in pieces),
            )
        self.pending = retuned
        self.report.shards_total = len(self.shards)

    def _shard_failed(
        self, handle: _WorkerHandle, message: protocol.ShardFailure
    ) -> None:
        self.report.failures += 1
        self._release(handle, message.shard_id)
        shard = self.shard_by_id.get(message.shard_id)
        if shard is None or shard.done:
            return
        log.warning(
            "shard %d failed on worker %s (attempt %d):\n%s",
            shard.shard_id,
            handle.label,
            message.attempt,
            message.error,
        )
        self._requeue(shard, message.error)

    def _release(self, handle: _WorkerHandle, shard_id: int) -> None:
        """Return ``handle`` to the idle pool after ``shard_id`` concluded."""
        if handle.shard is not None and handle.shard.shard_id == shard_id:
            handle.shard = None
            handle.deadline = None
        if handle.alive and handle not in self.idle:
            self.idle.append(handle)

    def _drop_worker(self, handle: _WorkerHandle, reason: str) -> None:
        handle.close()
        if handle in self.handles:
            self.handles.remove(handle)
            self.report.workers_lost += 1
            log.warning("worker %s dropped: %s", handle.label, reason)
        try:
            self.idle.remove(handle)
        except ValueError:
            pass
        shard = handle.shard
        handle.shard = None
        handle.deadline = None
        if shard is not None and not shard.done:
            self._requeue(shard, f"worker {handle.label} {reason}")

    def _requeue(self, shard: _Shard, error: str) -> None:
        shard.last_error = error
        if shard.attempts > self.backend.max_shard_retries:
            raise SweepTransportError(
                f"sweep shard {shard.shard_id} covering spec indices "
                f"{list(shard.indices)} failed after {shard.attempts} dispatch "
                f"attempts (retry budget: {self.backend.max_shard_retries} "
                f"requeues); last error: {error}"
            )
        self.report.requeues += 1
        log.warning(
            "requeueing shard %d (attempt %d of %d failed: %s)",
            shard.shard_id,
            shard.attempts,
            self.backend.max_shard_retries + 1,
            error.strip().splitlines()[-1] if error.strip() else error,
        )
        self.pending.append(shard)

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        for handle in list(self.handles):
            if (
                handle.shard is not None
                and handle.deadline is not None
                and now > handle.deadline
            ):
                self._drop_worker(
                    handle,
                    f"stalled: shard {handle.shard.shard_id} exceeded the "
                    f"{self.backend.shard_timeout:.1f}s shard timeout",
                )
            elif now - handle.last_seen > self.backend.heartbeat_timeout:
                self._drop_worker(
                    handle,
                    f"missed heartbeats for {now - handle.last_seen:.1f}s",
                )

    def _check_liveness(self, started: float) -> None:
        """Fail loudly when no worker can ever finish the remaining work."""
        if self.handles:
            return
        remaining = sorted(
            index
            for shard in self.shards
            if not shard.done
            for index in shard.indices
        )
        if self.pool is not None and self.pool.all_exited():
            raise SweepTransportError(
                f"all {self.backend.workers} local sweep worker(s) exited "
                f"with spec indices {remaining} incomplete"
            )
        now = time.monotonic()
        reference = max(started, self._last_activity)
        if now - reference > self.backend.worker_timeout:
            raise SweepTransportError(
                f"no live sweep workers for {now - reference:.1f}s "
                f"(worker_timeout={self.backend.worker_timeout}); spec "
                f"indices {remaining} incomplete"
            )


def remote_backend_from_settings(
    name: str, settings: ExperimentSettings
) -> RemoteBackend:
    """Resolve ``remote:<inner>`` into a coordinator for ``settings``.

    What :func:`~repro.experiments.backends.resolve_backend` calls for a
    ``remote:`` name: ``settings.remote_workers`` is the
    local worker count (``None`` defaults to
    :data:`DEFAULT_LOCAL_WORKERS` without a listen address, else 0 — a
    configured listen address implies externally started workers), and
    ``settings.remote_listen`` is the ``HOST:PORT`` bind address.
    """
    inner = name[len(REMOTE_PREFIX) :]
    listen_text = getattr(settings, "remote_listen", None)
    listen = None
    if listen_text:
        try:
            listen = protocol.parse_address(listen_text, default_host="")
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
    workers = getattr(settings, "remote_workers", None)
    if workers is None:
        workers = 0 if listen is not None else DEFAULT_LOCAL_WORKERS
    return RemoteBackend(inner=inner, workers=workers, listen=listen)
