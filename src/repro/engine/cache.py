"""Two-tier content-addressed result cache.

Tier 1 is a bounded in-memory LRU (dict of payloads); tier 2 is an
optional cache directory holding one ``<hash>.npz`` file (array
payload) plus one ``<hash>.json`` file (scalar payload + human-readable
provenance metadata) per job. Keys are the
:class:`~repro.engine.spec.Job` content hashes, so

- a repeated sweep against a warm directory performs **zero** SWM
  solves;
- interrupted sweeps resume from whatever finished (each job commits
  independently);
- cache directories are shareable between machines — the hash pins
  every physics input, and tags/annotations are deliberately excluded
  from it.

Every file is written to a pid-tagged temp file and moved into place
with :func:`os.replace`, so a concurrent reader never sees a torn file;
two writers racing on one key write byte-identical content anyway. The
``.json`` record is written last and marks an entry as complete. The
directory tier's recency clock is the file mtime, which hits refresh:
the ``max_disk_bytes`` LRU eviction and :meth:`ResultCache.purge` run
on it.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..errors import ConfigurationError
from .spec import ENGINE_VERSION

#: Payload keys persisted as JSON (everything but the array). ``spans``
#: is a list of JSON-ready telemetry span dicts — provenance of the
#: original compute, replayed verbatim on a hit.
_SCALAR_KEYS = ("mean", "std", "n_evals", "seed", "wall_time_s", "pid",
                "spans")


def _jsonable(obj):
    """json.dumps fallback: metadata/tags are free-form provenance, so a
    numpy scalar or array in them must degrade gracefully instead of
    killing the sweep at commit time (after the solve already ran)."""
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance.

    Counters are bumped from every thread that touches the cache (the
    service's ``ThreadingHTTPServer`` runs one thread per request), so
    all mutation goes through :meth:`bump` under a lock — a bare
    ``stats.misses += 1`` is a read-modify-write that can drop counts
    under concurrency. Readers use :meth:`snapshot` for a consistent
    view; monitoring endpoints must not sum fields read one by one.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_evictions: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically increment one counter field."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> dict[str, int]:
        """All counters (plus the ``hits`` total) in one atomic read."""
        with self._lock:
            return {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "disk_evictions": self.disk_evictions,
                "hits": self.memory_hits + self.disk_hits,
            }

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a pid-tagged temp file and
    :func:`os.replace`, so no reader ever sees a torn file."""
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


@dataclass
class ResultCache:
    """In-memory LRU over an optional cache directory.

    Parameters
    ----------
    max_memory_entries:
        LRU capacity; 0 disables the memory tier (useful to force the
        directory path or to disable caching entirely when no directory
        is configured).
    disk_dir:
        Cache directory of the persistent tier; created if missing.
        ``None`` keeps the cache memory-only.
    max_disk_bytes:
        Directory-tier budget. After every store, least-recently-used
        entries (by file mtime — hits refresh it) are evicted until the
        tier fits, so a long-running service cannot fill the volume.
        ``None`` (default) disables eviction.
    """

    max_memory_entries: int = 256
    disk_dir: str | os.PathLike | None = None
    max_disk_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats, init=False)

    def __post_init__(self) -> None:
        if self.max_memory_entries < 0:
            raise ConfigurationError(
                f"max_memory_entries must be >= 0, "
                f"got {self.max_memory_entries}"
            )
        if self.max_disk_bytes is not None and self.max_disk_bytes <= 0:
            raise ConfigurationError(
                f"max_disk_bytes must be positive, got {self.max_disk_bytes}"
            )
        self._memory: OrderedDict[str, dict] = OrderedDict()
        # Running directory-tier byte total (None = not yet scanned).
        # Kept incrementally so enforcing max_disk_bytes is O(1) per
        # store; the full scan only runs on first use and when the
        # budget is actually exceeded (eviction re-synchronizes it).
        self._disk_total: int | None = None
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            try:
                self.disk_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot use {self.disk_dir} as a cache directory: "
                    f"{exc}"
                ) from exc

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.disk_dir is not None and self._disk_paths(key)[0].exists()

    def _disk_paths(self, key: str) -> tuple[Path, Path]:
        """The ``<key>.json`` record and ``<key>.npz`` array files of
        ``key`` (tests and tooling age entries through them)."""
        return (self.disk_dir / f"{key}.json", self.disk_dir / f"{key}.npz")

    # ------------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Look up a payload, promoting directory hits into memory.

        The returned dict is a per-call copy and its ``values`` array is
        read-only: callers mutating a result must not be able to corrupt
        what later cache hits replay.
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.bump("memory_hits")
            if self.max_disk_bytes is not None and self.disk_dir is not None:
                # Directory LRU eviction clocks on the file mtime;
                # without this, a hot entry served from memory would
                # look cold on disk and be the first one evicted.
                self._disk_touch(key)
            return dict(payload)
        if self.disk_dir is not None:
            record = self._disk_record(key)
            if record is not None:
                payload = record["payload"]
                self.stats.bump("disk_hits")
                self._disk_touch(key)
                self._memory_put(key, payload)
                return dict(payload)
        self.stats.bump("misses")
        return None

    def put(self, key: str, payload: dict,
            metadata: Mapping[str, Any] | None = None) -> None:
        """Store a payload under its content hash in both tiers."""
        payload = dict(payload)
        values = np.array(payload["values"], dtype=np.float64, copy=True)
        values.flags.writeable = False
        payload["values"] = values
        self._memory_put(key, payload)
        if self.disk_dir is not None:
            self._disk_put(key, payload, metadata or {})
        self.stats.bump("stores")

    def clear(self) -> None:
        """Drop the memory tier (the cache directory is left intact)."""
        self._memory.clear()

    # ------------------------------------------------------------------

    def _memory_put(self, key: str, payload: dict) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def _disk_record(self, key: str) -> dict | None:
        """The stored record of ``key`` with its read-only ``values``
        array in the payload; ``None`` when the entry is missing, torn,
        unreadable or from another engine version."""
        json_path, npz_path = self._disk_paths(key)
        try:
            record = json.loads(json_path.read_bytes())
            with np.load(io.BytesIO(npz_path.read_bytes())) as npz:
                values = np.asarray(npz["values"])
        except (OSError, ValueError, KeyError):
            return None
        if not isinstance(record, dict) \
                or record.get("engine_version") != ENGINE_VERSION:
            return None
        values.flags.writeable = False
        record["payload"]["values"] = values
        return record

    def _disk_put(self, key: str, payload: dict,
                  metadata: Mapping[str, Any]) -> None:
        record = {
            "engine_version": ENGINE_VERSION,
            "key": key,
            "created_unix": time.time(),
            "payload": {k: payload.get(k) for k in _SCALAR_KEYS},
            "metadata": dict(metadata),
        }
        buf = io.BytesIO()
        np.savez_compressed(buf, values=np.asarray(payload["values"]))
        npz_blob = buf.getvalue()
        json_blob = json.dumps(record, sort_keys=True, indent=1,
                               default=_jsonable).encode("utf-8")
        json_path, npz_path = self._disk_paths(key)
        # The record goes last: its file is what marks the entry
        # complete for readers and for the listing.
        _write_atomic(npz_path, npz_blob)
        _write_atomic(json_path, json_blob)
        if self.max_disk_bytes is not None:
            if self._disk_total is None:
                self._disk_total = sum(
                    size for _, size, _ in self._disk_entries())
            else:
                self._disk_total += len(npz_blob) + len(json_blob)
            if self._disk_total > self.max_disk_bytes:
                self._enforce_disk_budget()

    def _disk_touch(self, key: str) -> None:
        """Refresh the entry's mtime, the directory tier's LRU clock."""
        for path in self._disk_paths(key):
            try:
                os.utime(path)
            except OSError:
                pass  # concurrently evicted/purged — the read still won

    # ------------------------------------------------------------------
    # Directory-tier introspection and GC.
    # ------------------------------------------------------------------

    def _disk_entries(self) -> list[tuple[float, int, str]]:
        """``(mtime, bytes, key)`` per stored entry, least recently
        used first.

        The ``.json`` record makes an entry: an orphaned ``.npz`` is
        not listed, and a record whose ``.npz`` was torn away by an
        eviction race counts with its own size alone.
        """
        entries = []
        for marker in self.disk_dir.glob("*.json"):
            key = marker.stem
            size = 0
            mtime = 0.0
            for path in self._disk_paths(key):
                try:
                    st = path.stat()
                except OSError:
                    continue
                size += st.st_size
                mtime = max(mtime, st.st_mtime)
            entries.append((mtime, size, key))
        entries.sort(key=lambda e: (e[0], e[2]))
        return entries

    def disk_size_bytes(self) -> int:
        """Total bytes of the directory tier (0 when memory-only)."""
        return self.disk_usage()[1]

    def disk_usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` of the directory tier in one scan
        (accounting only — no record is opened; cheap enough for
        monitoring endpoints to poll)."""
        if self.disk_dir is None:
            return 0, 0
        entries = self._disk_entries()
        self._disk_total = sum(size for _, size, _ in entries)
        return len(entries), self._disk_total

    def _evict(self, key: str) -> None:
        # Directory tier only: the memory LRU is bounded independently,
        # and a content-addressed payload can never go stale, so a
        # still-hot memory copy stays servable after its files are
        # evicted.
        for path in self._disk_paths(key):
            try:
                os.remove(path)
            except OSError:
                pass  # already gone: a concurrent eviction or purge won
        self.stats.bump("disk_evictions")

    def _enforce_disk_budget(self) -> None:
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        for _, size, key in entries:
            if total <= self.max_disk_bytes:
                break
            self._evict(key)
            total -= size
        self._disk_total = total  # re-synchronized by the full scan

    def purge(self, older_than_s: float) -> int:
        """Delete stored entries idle for more than ``older_than_s``
        seconds (recency-based, so recently *hit* entries survive).
        Returns the number of entries removed."""
        if older_than_s < 0:
            raise ConfigurationError(
                f"older_than_s must be >= 0, got {older_than_s}"
            )
        if self.disk_dir is None:
            return 0
        cutoff = time.time() - older_than_s
        purged = 0
        for mtime, size, key in self._disk_entries():
            if mtime < cutoff:
                self._evict(key)
                purged += 1
                if self._disk_total is not None:
                    self._disk_total = max(0, self._disk_total - size)
        return purged

    def manifest(self) -> list[dict]:
        """One provenance entry per stored artifact, oldest first.

        Each entry carries ``key``, ``bytes``, ``mtime_unix``,
        ``created_unix`` and the stored ``metadata`` (scenario,
        frequency, estimator, tags). An unreadable record (torn by a
        concurrent eviction) is skipped rather than failing the listing.
        """
        if self.disk_dir is None:
            return []
        out = []
        for mtime, size, key in self._disk_entries():
            try:
                record = json.loads(self._disk_paths(key)[0].read_bytes())
            except (OSError, ValueError):
                continue
            if not isinstance(record, dict):
                continue
            out.append({
                "key": key,
                "bytes": size,
                "mtime_unix": mtime,
                "created_unix": record.get("created_unix"),
                "engine_version": record.get("engine_version"),
                "metadata": record.get("metadata", {}),
            })
        return out
