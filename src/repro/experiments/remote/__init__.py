"""Distributed sweep service: coordinator/worker transport for grid sweeps.

The ``remote:<inner>`` backends execute a sweep's
:class:`~repro.experiments.backends.RunSpec` grid on a fleet of worker
*processes* — localhost subprocesses spawned per sweep, other hosts'
``react-repro worker --connect HOST:PORT`` processes, or both — while the
coordinating client shards, dispatches, retries, and reassembles.  The
result is bit-identical to the serial backend in canonical spec order, the
standing contract every backend in this tree honors.

Layout:

* :mod:`~repro.experiments.remote.protocol` — length-prefixed pickle
  framing and the six-message vocabulary (with the trust model).
* :mod:`~repro.experiments.remote.coordinator` — :class:`RemoteBackend`
  and the fault-tolerant dispatch loop (heartbeats, per-shard timeouts,
  bounded retry-with-requeue, graceful drain) over the shards of
  :func:`~repro.experiments.backends.plan_shards`, the plan ``pool+batch``
  executes too.
* :mod:`~repro.experiments.remote.worker` — the :class:`SweepWorker`
  process loop behind ``react-repro worker``.
* :mod:`~repro.experiments.remote.launcher` — :class:`LocalWorkerPool`,
  N localhost workers as subprocesses.

The backend name grammar composes the transport with the result store:
``cached:remote:serial`` checks the content-addressed store first and only
touches the network for misses, while workers sharing the same
``--cache-dir`` write computed results through to the same store.
"""

from repro.experiments.remote import protocol
from repro.experiments.remote.coordinator import (
    DEFAULT_LOCAL_WORKERS,
    RemoteBackend,
    RemoteReport,
    remote_backend_from_settings,
)
from repro.experiments.remote.launcher import LocalWorkerPool, worker_command
from repro.experiments.remote.worker import SweepWorker

__all__ = [
    "DEFAULT_LOCAL_WORKERS",
    "LocalWorkerPool",
    "RemoteBackend",
    "RemoteReport",
    "SweepWorker",
    "protocol",
    "remote_backend_from_settings",
    "worker_command",
]
