"""Lightweight span tracing.

A *span* is one timed section of work — ``span("assemble")`` around the
solver's matrix assembly, ``span("job")`` around a whole engine job.
Finished spans become plain JSON-ready dicts::

    {"name": "factor", "start_unix": 1723...,  # wall-clock start
     "duration_s": 0.0123, "pid": 1234, "tid": 140..., "meta": {...}}

so they cross process boundaries inside job payloads and the service
wire format untouched. Two sinks receive every finished span:

- the **thread-local recorder** installed by :func:`record_spans` —
  this is how :func:`repro.engine.runtime.execute_job` captures the
  spans of exactly one job, whatever thread runs it;
- the **process-global aggregate**: per-name count/total statistics
  (:func:`phase_stats`, the ``--profile`` table) and a bounded buffer
  of raw spans (:func:`chrome_trace`, the ``--trace-out`` export).

When telemetry is disabled (:mod:`repro.telemetry.state`),
:func:`span` returns a shared no-op context manager: the hot-path cost
is one flag check and no allocation.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Iterable, Iterator, Mapping

from . import state

#: Raw spans retained for Chrome-trace export (ring buffer).
MAX_TRACE_SPANS = 50_000

_local = threading.local()
_agg_lock = threading.Lock()
_phase_stats: dict[str, list[float]] = {}  # name -> [count, total_s]
_trace: deque = deque(maxlen=MAX_TRACE_SPANS)


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    __slots__ = ("name", "meta", "_start", "_unix")

    def __init__(self, name: str, meta: dict | None) -> None:
        self.name = name
        self.meta = meta

    def __enter__(self) -> "_Span":
        self._unix = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start
        record = {
            "name": self.name,
            "start_unix": self._unix,
            "duration_s": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.meta:
            record["meta"] = self.meta
        buf = getattr(_local, "spans", None)
        if buf is not None:
            buf.append(record)
        _aggregate(record)


def span(name: str, **meta: Any) -> _Span | _NullSpan:
    """Context manager timing one named section (no-op when disabled)."""
    if not state.enabled():
        return _NULL
    return _Span(name, meta or None)


class record_spans:
    """Install a per-thread span recorder; yields the list it fills.

    Nested recorders shadow each other (each ``with`` gets only its own
    spans). When telemetry is disabled, the list stays empty and spans
    cost nothing.
    """

    def __enter__(self) -> list[dict]:
        self._previous = getattr(_local, "spans", None)
        buf: list[dict] = []
        if state.enabled():
            _local.spans = buf
        return buf

    def __exit__(self, *exc) -> None:
        _local.spans = self._previous
        return None


def _aggregate(record: Mapping[str, Any]) -> None:
    name = record["name"]
    with _agg_lock:
        stats = _phase_stats.get(name)
        if stats is None:
            _phase_stats[name] = [1, float(record["duration_s"])]
        else:
            stats[0] += 1
            stats[1] += float(record["duration_s"])
        _trace.append(dict(record))


def phase_stats() -> dict[str, dict[str, float]]:
    """Per-span-name aggregate: ``{name: {count, total_s, mean_s}}``."""
    with _agg_lock:
        return {
            name: {"count": int(count), "total_s": total,
                   "mean_s": total / count if count else 0.0}
            for name, (count, total) in _phase_stats.items()
        }


def iter_trace() -> Iterator[dict]:
    """Snapshot iterator over the retained raw spans (oldest first)."""
    with _agg_lock:
        return iter(list(_trace))


def _record_worker(rec: Mapping[str, Any]) -> str | None:
    """The worker attribution of a span record, if it carries one."""
    worker = rec.get("worker_id")
    if worker is None:
        meta = rec.get("meta")
        if isinstance(meta, Mapping):
            worker = meta.get("worker_id")
    return None if worker is None else str(worker)


def chrome_trace(records: Iterable[Mapping[str, Any]] | None = None
                 ) -> list[dict]:
    """Span records as Chrome trace-format complete events.

    Load the written JSON in ``chrome://tracing`` / Perfetto. Wall-clock
    microsecond timestamps, one row per pid/tid. Defaults to this
    process's retained span buffer; pass ``records`` to render an
    externally merged set (the per-sweep flight recorder).

    Lanes whose spans carry a ``worker_id`` (top-level or in ``meta``)
    get a ``process_name`` metadata event, so a merged fleet trace shows
    ``worker <id>`` lanes instead of anonymous pids.
    """
    if records is None:
        records = iter_trace()
    events = []
    lanes: dict[int, str] = {}
    for rec in records:
        pid = int(rec.get("pid", 0))
        event = {
            "name": rec["name"],
            "ph": "X",
            "ts": float(rec["start_unix"]) * 1e6,
            "dur": float(rec["duration_s"]) * 1e6,
            "pid": pid,
            "tid": int(rec.get("tid", 0)),
        }
        meta = rec.get("meta")
        if meta:
            event["args"] = dict(meta)
        worker = _record_worker(rec)
        if worker is not None:
            lanes.setdefault(pid, worker)
        events.append(event)
    named = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
              "args": {"name": worker if worker == "server"
                       else f"worker {worker}"}}
             for pid, worker in sorted(lanes.items())]
    return named + events


def reset_tracing() -> None:
    """Drop aggregated phase stats and the raw-span buffer (tests)."""
    with _agg_lock:
        _phase_stats.clear()
        _trace.clear()
