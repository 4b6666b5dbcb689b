"""Content-addressed result store and the memoizing ``cached:`` backend.

Repeated and overlapping sweeps dominate the serving shape this repo is
growing toward, yet every grid cell is a deterministic function of its
:class:`~repro.experiments.backends.RunSpec` and the simulator code.  This
module makes that determinism pay: :class:`ResultStore` maps
``sha256(canonical RunSpec fingerprint + code-version salt)`` to a
serialized :class:`~repro.sim.results.SimulationResult`, and
:class:`CachedBackend` — reachable as ``cached:<inner>`` through the
backend name grammar (``cached:serial``, ``cached:pool+batch``, …) —
partitions a grid into hits (loaded from the store) and misses (delegated
to the inner backend, then written back), preserving spec order.

Cache keys are *content addresses*:

* Settings canonicalize field-order-independently, dropping fields that
  equal their declared defaults (spelling a default explicitly and leaving
  it unset hash identically) and the execution-only knobs (``workers``,
  ``backend``, ``cache_dir``) that cannot change results —
  so a result computed under ``cached:pool+batch`` is a hit for
  ``cached:serial``.
* ``buffer_factory`` (and any other callable) is identified by its
  module-qualified import path — the same picklability contract the pool
  backends already impose.  The factory's *code* is only covered by the
  salt when it lives in the ``repro`` tree; out-of-tree factories that
  change behavior under an unchanged name need a cache clear (or an
  explicit salt).
* A code-version salt hashed over the installed ``repro`` source tree is
  folded into every key, so *any* code change invalidates the store
  wholesale rather than risking stale hits.

Writes go through a same-directory temp file and :func:`os.replace`, so
concurrent pool workers can never leave a torn entry; loads treat any
unreadable, undecodable, or mismatching entry as a miss, never a crash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import uuid
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.experiments.backends import CACHED_PREFIX
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.backends import (
        ExecutionBackend,
        ProgressCallback,
        RunSpec,
    )
    from repro.experiments.runner import ExperimentSettings

log = logging.getLogger("repro.experiments.store")

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EXECUTION_ONLY_FIELDS",
    "STATS_FILENAME",
    "CachedBackend",
    "ResultStore",
    "StoreStats",
    "cached_backend_from_settings",
    "callable_identity",
    "canonical_settings",
    "code_version_salt",
    "settings_fingerprint",
    "spec_fingerprint",
]

#: Where ``cached:<inner>`` backends keep entries when no cache_dir is set.
DEFAULT_CACHE_DIR = ".sweep-cache"

#: Settings fields that select *how* a sweep executes, not *what* it
#: computes — excluded from fingerprints so results cache across backends.
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "backend",
        "cache_dir",
        "workers",
    }
)

#: Name of the per-store JSON stats dump (the CI cache gate reads it).
STATS_FILENAME = "store-stats.json"

_FINGERPRINT_ATTR = "_repro_settings_fingerprint"


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------


def callable_identity(fn: Any) -> str:
    """``module:qualname`` for a module-level callable.

    Fingerprints identify callables (buffer factories) by import path — the
    same constraint the pool backends already impose via pickling.  Lambdas
    and local functions have no stable import path and are rejected.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ConfigurationError(
            f"cannot fingerprint {fn!r}: cached sweeps need module-level "
            "callables (lambdas and local functions have no stable identity)"
        )
    return f"{module}:{qualname}"


def _canonical(value: Any) -> Any:
    """``value`` reduced to a deterministic JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_canonical(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, dict):
        return {
            str(key): _canonical(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": f"{type(value).__module__}.{type(value).__qualname__}",
            "fields": {
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if callable(value):
        return callable_identity(value)
    raise ConfigurationError(
        f"cannot fingerprint value of type {type(value).__qualname__!r}; "
        "settings fields must reduce to JSON-serializable primitives"
    )


def _dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canonical_settings(settings: "ExperimentSettings") -> Dict[str, Any]:
    """Field-order-independent canonical form of ``settings``.

    Only fields that *differ* from their declared defaults are included, so
    explicitly spelling a default (``fast_forward=True``, ``dt_on=0.01``)
    and leaving the field unset canonicalize identically, and adding a new
    defaulted field later does not invalidate old keys by itself.  The
    class's module-qualified name is part of the form, so out-of-tree
    settings subclasses never collide with the base class.
    """
    cls = type(settings)
    fields: Dict[str, Any] = {}
    for field in dataclasses.fields(settings):
        if field.name in EXECUTION_ONLY_FIELDS:
            continue
        value = _canonical(getattr(settings, field.name))
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            fields[field.name] = value
            continue
        if value != _canonical(default):
            fields[field.name] = value
    return {"class": f"{cls.__module__}.{cls.__qualname__}", "fields": fields}


def settings_fingerprint(settings: "ExperimentSettings") -> str:
    """Canonical JSON fingerprint of ``settings``, memoized per instance.

    This string doubles as the settings half of
    :attr:`~repro.experiments.backends.RunSpec.group_key`, so lane grouping
    and caching share one identity — and settings subclasses with
    unhashable fields (lists, dicts) group correctly because the key is a
    plain string rather than the dataclass itself.
    """
    cached = getattr(settings, _FINGERPRINT_ATTR, None)
    if cached is None:
        cached = _dumps(canonical_settings(settings))
        try:  # frozen dataclasses still permit object.__setattr__
            object.__setattr__(settings, _FINGERPRINT_ATTR, cached)
        except AttributeError:  # __slots__ classes have nowhere to memoize
            pass
    return cached


def spec_fingerprint(spec: "RunSpec") -> str:
    """Canonical JSON fingerprint of one grid cell (salt not included)."""
    return _dumps(
        {
            "workload": spec.workload,
            "trace": spec.trace_name,
            "buffer_index": spec.buffer_index,
            "buffer_factory": callable_identity(spec.buffer_factory),
            "settings": json.loads(settings_fingerprint(spec.settings)),
        }
    )


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """A digest of the installed ``repro`` source tree.

    Folded into every cache key, so any code change — engine, buffers,
    workloads, anything importable from :mod:`repro` — invalidates the
    store wholesale.  ``ResultStore(salt=...)`` is the one override.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


@dataclass
class StoreStats:
    """Cumulative hit/miss/byte counters for one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            writes=self.writes - other.writes,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
        )

    def snapshot(self) -> "StoreStats":
        return dataclasses.replace(self)

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


#: Process-cumulative stats per store root: one stats file per root reflects
#: every sweep this process ran against it, not just the last one.
_PROCESS_STATS: Dict[str, StoreStats] = {}


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a same-directory temp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResultStore:
    """Content-addressed, on-disk map from run-spec keys to results.

    Entries live at ``root/<key[:2]>/<key>.pkl`` where ``key`` is
    ``sha256(spec fingerprint + salt)``; each pickle payload carries the
    fingerprint it was stored under, which :meth:`load` re-verifies so a
    foreign or recycled file can never surface as a wrong result.  Writes
    are atomic (temp file + :func:`os.replace`, last-writer-wins), and
    loads are corruption-tolerant: any unreadable, undecodable, or
    mismatching entry counts as a miss, never a crash.
    """

    def __init__(self, root: Union[str, Path], salt: Optional[str] = None) -> None:
        self.root = Path(root)
        self.salt = code_version_salt() if salt is None else salt
        self.stats = StoreStats()
        self._process_stats = _PROCESS_STATS.setdefault(
            str(self.root.resolve()), StoreStats()
        )

    def key_for(self, spec: "RunSpec") -> str:
        """The content address of ``spec`` under this store's salt."""
        material = spec_fingerprint(spec) + "\x00" + self.salt
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def entry_path(self, spec: "RunSpec") -> Path:
        """Where ``spec``'s entry lives (whether or not it exists yet)."""
        key = self.key_for(spec)
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, spec: "RunSpec") -> Optional[SimulationResult]:
        """The stored result for ``spec``, or ``None`` (a miss).

        A missing entry is the ordinary cold miss and stays quiet; an
        entry that exists but cannot be used (unreadable, torn, corrupt,
        or carrying a foreign fingerprint) is *also* a miss — the store's
        corruption-tolerance contract — but leaves a log trail, so a
        recurring bad entry is diagnosable instead of silently
        re-simulated forever.
        """
        path = self.entry_path(spec)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._record(misses=1)
            return None
        except OSError as error:
            log.warning("unreadable store entry %s treated as a miss: %s", path, error)
            self._record(misses=1)
            return None
        try:
            payload = pickle.loads(blob)
            result = payload["result"]
            if payload["fingerprint"] != spec_fingerprint(spec):
                raise ValueError("fingerprint mismatch")
            if not isinstance(result, SimulationResult):
                raise TypeError("entry does not hold a SimulationResult")
        except Exception as error:  # torn, corrupt, or foreign entry
            log.warning("corrupt store entry %s treated as a miss: %s", path, error)
            self._record(misses=1)
            return None
        self._record(hits=1, bytes_read=len(blob))
        return result

    def store(self, spec: "RunSpec", result: SimulationResult) -> None:
        """Write ``result`` under ``spec``'s key."""
        payload = {"fingerprint": spec_fingerprint(spec), "result": result}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write(self.entry_path(spec), blob)
        self._record(writes=1, bytes_written=len(blob))

    def write_stats(self) -> Path:
        """Dump this process's cumulative stats for this root as JSON."""
        payload = dict(self._process_stats.as_dict(), root=str(self.root))
        blob = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        path = self.root / STATS_FILENAME
        _atomic_write(path, blob)
        return path

    def _record(self, **deltas: int) -> None:
        for stats in (self.stats, self._process_stats):
            for name, delta in deltas.items():
                setattr(stats, name, getattr(stats, name) + delta)


# --------------------------------------------------------------------------
# The memoizing backend
# --------------------------------------------------------------------------


class CachedBackend:
    """Memoizing wrapper: store hits load, misses run on ``inner``.

    Preserves the backend contract exactly — one result per spec, in spec
    order, bit-identical to the inner backend (a hit is just an earlier
    run's result) — and exposes the last run's hit/miss delta as
    :attr:`last_run_stats`, which :func:`repro.experiments.sweep` surfaces
    as ``SweepResult.cache_stats``.  ``progress`` fires in spec order after
    the grid completes (hits and misses finish interleaved, so there is no
    meaningful earlier moment per cell).  Every run ends by dumping the
    store root's process-cumulative stats to ``store-stats.json``.  A write
    that fails (an ``OSError``, such as a full disk) does not stop the
    others: every computed result is offered to the store, and then the
    first error is raised in place of the results and the stats dump.
    """

    def __init__(self, inner: "ExecutionBackend", store: ResultStore) -> None:
        self.inner = inner
        self.store = store
        self.last_run_stats: Optional[StoreStats] = None

    @property
    def name(self) -> str:
        return CACHED_PREFIX + getattr(self.inner, "name", type(self.inner).__name__)

    def run_specs(
        self,
        specs: Sequence["RunSpec"],
        progress: Optional["ProgressCallback"] = None,
    ) -> List[SimulationResult]:
        specs = list(specs)
        before = self.store.stats.snapshot()
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        miss_indices: List[int] = []
        for index, spec in enumerate(specs):
            hit = self.store.load(spec)
            if hit is None:
                miss_indices.append(index)
            else:
                results[index] = hit
        failure: Optional[OSError] = None
        if miss_indices:
            computed = self.inner.run_specs([specs[i] for i in miss_indices])
            for index, result in zip(miss_indices, computed):
                results[index] = result
                try:
                    self.store.store(specs[index], result)
                except OSError as error:
                    # Keep storing: a failed write (a full disk) must not
                    # discard the rest of the sweep's computed results.
                    failure = failure or error
        self.last_run_stats = self.store.stats - before
        if failure is not None:
            raise failure
        self.store.write_stats()
        ordered: List[SimulationResult] = []
        for result in results:
            assert result is not None  # every spec is a hit or a computed miss
            ordered.append(result)
            if progress is not None:
                progress(result)
        return ordered


def cached_backend_from_settings(
    name: str, settings: "ExperimentSettings"
) -> CachedBackend:
    """Resolve ``cached:<inner>`` into a wrapped backend for ``settings``.

    What :func:`~repro.experiments.backends.resolve_backend` calls for a
    ``cached:`` name; the store root comes from ``settings.cache_dir``
    (default :data:`DEFAULT_CACHE_DIR`).
    """
    from repro.experiments.backends import resolve_backend

    inner_name = name[len(CACHED_PREFIX) :]
    if not inner_name or inner_name.startswith(CACHED_PREFIX):
        raise ConfigurationError(
            f"invalid cached backend name {name!r}; expected cached:<inner> "
            "where <inner> is a non-cached backend"
        )
    inner = resolve_backend(inner_name, settings)
    root = getattr(settings, "cache_dir", None) or DEFAULT_CACHE_DIR
    return CachedBackend(inner, ResultStore(root))
