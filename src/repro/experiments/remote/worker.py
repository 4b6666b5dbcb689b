"""Worker side of the distributed sweep service.

A :class:`SweepWorker` connects to a coordinator, announces itself, and
then loops: receive a :class:`~repro.experiments.remote.protocol.ShardAssignment`,
execute its specs through the *local* inner backend the assignment names
(``inner`` of the coordinator's ``remote:<inner>`` backend name), and
stream the shard's results back in shard order.
A background thread heartbeats on the same socket so a stalled-but-alive
worker is distinguishable from a dead one.

When the shard's :class:`~repro.experiments.runner.ExperimentSettings`
carry a ``cache_dir``, the worker wraps its inner backend in the
content-addressed result store
(:class:`~repro.experiments.store.CachedBackend`) rooted there — loads
before computing, writes after — so every worker of every client sharing
that directory shares one cache.  Workers never write the store's
``store-stats.json`` (that file belongs to the coordinating client).

Entry points::

    react-repro worker --connect HOST:PORT            # installed CLI
    python -m repro.experiments.remote --connect HOST:PORT

Execution errors inside a shard are reported back as
:class:`~repro.experiments.remote.protocol.ShardFailure` (with the full
traceback) rather than killing the worker, so one poisoned spec costs its
retry budget, not the whole fleet.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import threading
import time
import traceback
from typing import List, Optional, Sequence

from repro.experiments.remote import protocol

log = logging.getLogger("repro.remote.worker")

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0


class SweepWorker:
    """One worker process: connect, execute assigned shards, stream results."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        connect_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        self.worker_id = f"{socket.gethostname()}:{os.getpid()}"
        self.shards_executed = 0
        self._send_lock = threading.Lock()
        self._stop = threading.Event()

    def run(self) -> int:
        """Connect and serve shards until the coordinator drains us."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(None)
        log.info(
            "worker %s connected to %s:%d", self.worker_id, self.host, self.port
        )
        try:
            self._send(
                sock,
                protocol.Hello(
                    worker_id=self.worker_id,
                    pid=os.getpid(),
                    host=socket.gethostname(),
                ),
            )
            beats = threading.Thread(
                target=self._heartbeat_loop, args=(sock,), daemon=True
            )
            beats.start()
            while True:
                message = protocol.recv_message(sock)
                if message is None or isinstance(message, protocol.Shutdown):
                    reason = (
                        message.reason
                        if isinstance(message, protocol.Shutdown)
                        else "connection closed"
                    )
                    log.info(
                        "worker %s exiting after %d shard(s): %s",
                        self.worker_id,
                        self.shards_executed,
                        reason,
                    )
                    return 0
                if isinstance(message, protocol.ShardAssignment):
                    self._execute(sock, message)
                else:
                    log.warning(
                        "worker %s ignoring unexpected message %r",
                        self.worker_id,
                        type(message).__name__,
                    )
        finally:
            self._stop.set()
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send(self, sock: socket.socket, message) -> None:
        with self._send_lock:
            protocol.send_message(sock, message)

    def _heartbeat_loop(self, sock: socket.socket) -> None:
        beacon = protocol.Heartbeat(worker_id=self.worker_id)
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self._send(sock, beacon)
            except OSError:
                return

    def _execute(
        self, sock: socket.socket, assignment: protocol.ShardAssignment
    ) -> None:
        log.info(
            "worker %s executing shard %d (%d specs, attempt %d, inner %s)",
            self.worker_id,
            assignment.shard_id,
            len(assignment.specs),
            assignment.attempt,
            assignment.inner,
        )
        started = time.perf_counter()
        try:
            results = self.execute_shard(assignment.specs, assignment.inner)
        except Exception:
            error = traceback.format_exc()
            log.warning(
                "worker %s shard %d failed:\n%s",
                self.worker_id,
                assignment.shard_id,
                error,
            )
            self._send(
                sock,
                protocol.ShardFailure(
                    shard_id=assignment.shard_id,
                    attempt=assignment.attempt,
                    worker_id=self.worker_id,
                    error=error,
                ),
            )
            return
        wall = time.perf_counter() - started
        self.shards_executed += 1
        self._send(
            sock,
            protocol.ShardResult(
                shard_id=assignment.shard_id,
                attempt=assignment.attempt,
                worker_id=self.worker_id,
                results=tuple(results),
                wall_seconds=wall,
            ),
        )
        log.info(
            "worker %s shard %d complete in %.3fs",
            self.worker_id,
            assignment.shard_id,
            wall,
        )

    def execute_shard(self, specs: Sequence, inner: str) -> List:
        """Run one shard through the local inner backend (store-wrapped).

        Exposed separately so tests can drive shard execution without a
        socket.  Results come back in ``specs`` order and are bit-identical
        to the serial backend's — the specs are deterministic and the inner
        backends are pinned to the serial oracle by the standing
        equivalence suites.
        """
        from repro.experiments.backends import resolve_backend
        from repro.experiments.store import CachedBackend, ResultStore

        specs = list(specs)
        settings = specs[0].settings
        backend = resolve_backend(inner, settings)
        cache_dir = getattr(settings, "cache_dir", None)
        use_cache = getattr(settings, "use_cache", True)
        if cache_dir and use_cache and not isinstance(backend, CachedBackend):
            backend = CachedBackend(
                backend, ResultStore(cache_dir), write_stats_file=False
            )
        return backend.run_specs(specs)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point shared by ``react-repro worker`` and ``python -m``."""
    parser = argparse.ArgumentParser(
        prog="react-repro worker",
        description=(
            "Sweep worker: connect to a distributed-sweep coordinator and "
            "execute RunSpec shards through a local backend."
        ),
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="coordinator address to connect to",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        metavar="SECONDS",
        help="seconds between liveness heartbeats (default %(default)s)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log connects, shard execution, and failures to stderr",
    )
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    try:
        host, port = protocol.parse_address(args.connect)
    except ValueError as error:
        parser.error(str(error))
    worker = SweepWorker(host, port, heartbeat_interval=args.heartbeat)
    try:
        return worker.run()
    except (ConnectionError, OSError) as error:
        print(f"worker: {error}", flush=True)
        return 1


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
