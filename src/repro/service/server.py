"""Streaming HTTP front-end over the sweep scheduler (stdlib only).

One long-running process turns the engine into a shared, cache-fronted
compute service: concurrent clients submit :class:`~repro.engine
.SweepSpec` documents (the :mod:`~repro.service.wire` format), cached
points are answered immediately, and overlapping pending work
deduplicates to one solve per unique content hash.

Endpoints (all JSON unless noted):

========================================  =============================
``POST /v1/sweeps``                       submit a wire ``SweepSpec``;
                                          returns the ticket's status
                                          document (+ ``links``),
                                          complete with its result when
                                          the cache served every point
``GET  /v1/sweeps``                       ticket summaries
``GET  /v1/sweeps/<id>``                  status + partial results
                                          (+ full wire ``SweepResult``
                                          once complete)
``GET  /v1/sweeps/<id>/events``           NDJSON progress stream
                                          (terminates on completion)
``GET  /v1/sweeps/<id>/trace``            merged Chrome/Perfetto trace
                                          of the sweep across server +
                                          worker lanes (queue-wait /
                                          lease / solve / upload)
``GET  /v1/experiments``                  registered experiments
``POST /v1/experiments/<name>/run``       plan+submit a registered
                                          experiment (body:
                                          ``{"scale": "quick"}``); the
                                          same status document, with
                                          the reduction once complete
``GET  /v1/cache``                        cache stats + manifest size
``POST /v1/workers/claim``                lease queued jobs to a pull
                                          worker (wire ``WorkerClaim``
                                          list back)
``POST /v1/workers/heartbeat``            extend a worker's leases
``POST /v1/workers/result``               upload a wire ``WorkerResult``
                                          (content hash verified)
``GET  /v1/workers``                      fleet snapshot (workers,
                                          leases, stragglers, queue
                                          depth)
``GET  /v1/workers/<id>``                 one worker's lease counters +
                                          federated telemetry snapshot
``GET  /v1/logs``                         merged structured log records
                                          (``?worker=&level=&since=``)
``GET  /v1/metrics``                      Prometheus text exposition,
                                          server + federated
                                          ``worker="..."`` series
                                          (``text/plain``)
``GET  /v1/healthz``                      liveness probe + fleet/queue
                                          health, uptime, telemetry
                                          flag
========================================  =============================

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies
beyond the standard library, one thread per connection, and the
engine's context-local sessions keep concurrent requests isolated.
Connections speak HTTP/1.1 keep-alive with Nagle's algorithm off, so a
client's next request reuses its connection; one left idle for
:data:`IDLE_TIMEOUT_S` is closed, which frees its thread.

Setting ``REPRO_SERVICE_TOKEN`` (or passing ``token=``) requires
``Authorization: Bearer <token>`` on every mutating (POST) endpoint;
reads stay open. :class:`~repro.service.client.ServiceClient` and the
fleet worker pick the token up from the same variable automatically.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

import numpy as np

from .. import telemetry
from ..errors import ReproError
from ..engine.cache import ResultCache
from ..engine.executors import Executor, ParallelExecutor, SerialExecutor
from ..engine.spec import SweepSpec
from ..experiments import registry
from ..experiments.presets import SCALES, resolve_scale
from .scheduler import COMPLETE, SweepScheduler
from . import wire

#: Media type of the progress stream (one JSON event per line).
NDJSON = "application/x-ndjson"

#: Media type of the Prometheus text exposition format.
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it, so an idle client cannot pin a handler thread.
IDLE_TIMEOUT_S = 30.0

# HTTP-layer instruments (no-ops until telemetry is enabled). Routes
# are normalized (`/v1/sweeps/*`) so per-ticket ids don't explode the
# label space, and every path that matches no route shares one label.
_UNMATCHED_ROUTE = "unmatched"
_M_REQUESTS = telemetry.counter(
    "repro_http_requests_total", "HTTP requests served.",
    labels=("method", "route", "status"))
_M_REQUEST_LATENCY = telemetry.histogram(
    "repro_http_request_seconds", "Wall time per HTTP request.",
    labels=("method", "route"))
# Cache mirrors, refreshed from CacheStats.snapshot() at scrape time
# (gauges, not counters: the source of truth lives in CacheStats).
_M_CACHE_STATS = telemetry.gauge(
    "repro_cache_stats",
    "ResultCache counters mirrored at scrape time "
    "(memory_hits/disk_hits/misses/stores/disk_evictions/hits).",
    labels=("counter",))
_M_CACHE_MEMORY = telemetry.gauge(
    "repro_cache_memory_entries", "Entries in the in-memory LRU tier.")
_M_CACHE_DISK_BYTES = telemetry.gauge(
    "repro_cache_disk_bytes", "Bytes used by the on-disk tier.")
_M_CACHE_ARTIFACTS = telemetry.gauge(
    "repro_cache_artifacts", "Complete entries in the on-disk tier.")


class ServiceError(ReproError):
    """An HTTP-level request error (maps to a 4xx response)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepService:
    """The service application: scheduler + registry glue.

    Owns one :class:`SweepScheduler` (global dedup queue over the
    configured executor/cache) and maps experiment names onto it via
    ``plan``/``reduce``. The HTTP handler below is a thin parser around
    these methods, so tests can drive the application object directly.
    """

    #: Completed tickets whose encoded results are memoized.
    MAX_MEMOIZED_RESULTS = 64

    def __init__(self, executor: Executor | None = None,
                 cache: ResultCache | None = None,
                 scheduler: SweepScheduler | None = None,
                 token: str | None = None) -> None:
        self.scheduler = scheduler if scheduler is not None else \
            SweepScheduler(executor=executor, cache=cache)
        # Bearer token gating mutating endpoints; None/"" disables auth.
        # Defaults from REPRO_SERVICE_TOKEN so one env var arms both
        # ends (pass token="" to force auth off with the var set).
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN") or None
        self.token = token or None
        # ticket id -> (experiment name, scale name) for reduce-on-read
        self._experiment_tickets: dict[str, tuple[str, str]] = {}
        # ticket id -> encoded result/experiment extras; a
        # completed ticket is immutable, so re-assembling + base64
        # re-encoding it (and re-running reduce) on every poll would be
        # pure repeated work.
        self._completed: "OrderedDict[str, dict]" = OrderedDict()
        self._exp_lock = threading.Lock()
        #: Service creation time — healthz reports uptime against the
        #: monotonic twin (uptime is a duration; the unix timestamp is
        #: display/provenance only).
        self.started_unix = time.time()
        self.started_monotonic = time.monotonic()
        self._log = telemetry.get_logger("service.server")

    @property
    def cache(self) -> ResultCache:
        return self.scheduler.cache

    # ------------------------------------------------------------------
    # Application operations (the handler calls only these)
    # ------------------------------------------------------------------

    def submit_sweep(self, body: bytes) -> dict:
        try:
            spec = wire.loads(body)
        except wire.WireError as exc:
            raise ServiceError(400, str(exc)) from exc
        if not isinstance(spec, SweepSpec):
            raise ServiceError(
                400, f"body decodes to "
                f"{type(spec).__name__}, expected SweepSpec")
        return self._submitted(self.scheduler.submit(spec))

    def _submitted(self, ticket_id: str) -> dict:
        """A submit's answer: the ticket's status document plus links.

        A ticket the cache served in full is complete by now, so the
        answer already carries its result and no poll is needed.
        """
        status = self.sweep_status(ticket_id)
        status["links"] = {
            "status": f"/v1/sweeps/{ticket_id}",
            "events": f"/v1/sweeps/{ticket_id}/events",
        }
        return status

    def sweep_status(self, ticket_id: str) -> dict:
        try:
            status = self.scheduler.status(ticket_id)
            if status["state"] == COMPLETE:
                status.update(self._completed_extras(ticket_id))
        except KeyError:
            # Either unknown, or pruned by the scheduler between calls.
            raise ServiceError(404, f"no such sweep {ticket_id!r}") from None
        return status

    def _completed_extras(self, ticket_id: str) -> dict:
        """Encoded result (+ experiment reduction) of a completed
        ticket, memoized — the ticket is immutable now."""
        with self._exp_lock:
            extras = self._completed.get(ticket_id)
            if extras is not None:
                self._completed.move_to_end(ticket_id)
                return extras
            exp = self._experiment_tickets.get(ticket_id)
        result = self.scheduler.result(ticket_id)
        extras = {"result": wire.envelope(wire.to_wire(result))}
        if exp is not None:
            extras["experiment"] = self._reduce(result, *exp)
        with self._exp_lock:
            self._completed[ticket_id] = extras
            while len(self._completed) > self.MAX_MEMOIZED_RESULTS:
                self._completed.popitem(last=False)
        return extras

    @staticmethod
    def _reduce(sweep, name: str, scale_name: str) -> dict:
        experiment = registry.create(name)
        result = experiment.reduce(sweep, resolve_scale(scale_name))
        return result.to_dict()

    def sweep_events(self, ticket_id: str, since: int = 0,
                     timeout: float = 10.0) -> tuple[list[dict], bool]:
        try:
            return self.scheduler.events(ticket_id, since=since,
                                         timeout=timeout)
        except KeyError:
            raise ServiceError(404, f"no such sweep {ticket_id!r}") from None

    def list_sweeps(self) -> dict:
        return {"sweeps": self.scheduler.tickets()}

    def list_experiments(self) -> dict:
        out = []
        for name in registry.names():
            cls = registry.get_class(name)
            out.append({"name": name, "title": cls.title,
                        "run": f"/v1/experiments/{name}/run"})
        return {"experiments": out, "scales": sorted(SCALES)}

    def run_experiment(self, name: str, body: bytes) -> dict:
        if name not in registry.names():
            raise ServiceError(404, f"unknown experiment {name!r} "
                                    f"(choose from {registry.names()})")
        options = _parse_json(body) if body else {}
        scale_name = options.get("scale", "quick")
        if scale_name not in SCALES:
            raise ServiceError(400, f"unknown scale {scale_name!r} "
                                    f"(choose from {sorted(SCALES)})")
        scale = resolve_scale(scale_name)
        experiment = registry.create(name)
        spec = experiment.plan(scale)
        if spec is None:
            # Solve-free experiments (fig2, table1) reduce right here.
            result = experiment.reduce(None, scale)
            return {"experiment": result.to_dict(), "state": COMPLETE,
                    "id": None, "name": name, "scale": scale_name}
        ticket_id = self.scheduler.submit(
            spec, meta={"experiment": name, "scale": scale_name})
        with self._exp_lock:
            # The scheduler prunes old finished tickets; drop our
            # reductions for tickets it no longer knows, so this map
            # cannot grow without bound on a long-running service.
            live = {t["id"] for t in self.scheduler.tickets()}
            for stale in [t for t in self._experiment_tickets
                          if t not in live]:
                del self._experiment_tickets[stale]
            self._experiment_tickets[ticket_id] = (name, scale_name)
        status = self._submitted(ticket_id)
        status.update({"name": name, "scale": scale_name})
        return status

    # -- fleet ---------------------------------------------------------

    def worker_claim(self, body: bytes) -> dict:
        doc = _parse_json(body)
        worker = doc.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ServiceError(400, "claim needs a non-empty 'worker' id")
        try:
            max_jobs = int(doc.get("max_jobs", 1))
            lease_s = float(doc.get("lease_s", 30.0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                400, f"bad claim parameters: {exc}") from exc
        claims = self.scheduler.claim_jobs(worker, max_jobs=max_jobs,
                                           lease_s=lease_s)
        return wire.envelope([wire.to_wire(c) for c in claims])

    def worker_heartbeat(self, body: bytes) -> dict:
        doc = _parse_json(body)
        worker = doc.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ServiceError(400, "heartbeat needs a non-empty 'worker'")
        slots = doc.get("slots")
        if (not isinstance(slots, dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in slots.items())):
            raise ServiceError(
                400, "heartbeat 'slots' must map slot id -> lease token")
        try:
            lease_s = float(doc.get("lease_s", 30.0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                400, f"bad heartbeat parameters: {exc}") from exc
        # Optional federated telemetry: a worker ships it only when its
        # telemetry is enabled.
        snapshot = None
        tdoc = doc.get("telemetry")
        if tdoc is not None:
            try:
                decoded = wire.from_wire(tdoc)
            except wire.WireError as exc:
                raise ServiceError(
                    400, f"bad heartbeat telemetry: {exc}") from exc
            if not isinstance(decoded, wire.WorkerTelemetry):
                raise ServiceError(
                    400, "heartbeat 'telemetry' must be a wire "
                         "WorkerTelemetry document")
            snapshot = decoded
        alive = self.scheduler.heartbeat(worker, slots, lease_s=lease_s,
                                         telemetry_snapshot=snapshot)
        out = {"worker": worker, "alive": alive}
        if snapshot is not None:
            # Ack the highest log seq merged, so the worker can advance
            # its shipped-up-to pointer only on confirmed delivery.
            out["telemetry_seq"] = snapshot.seq
        return out

    def worker_result(self, body: bytes) -> dict:
        try:
            result = wire.loads(body)
        except wire.WireError as exc:
            raise ServiceError(400, str(exc)) from exc
        if not isinstance(result, wire.WorkerResult):
            raise ServiceError(
                400, f"body decodes to {type(result).__name__}, "
                     f"expected WorkerResult")
        if result.error is not None:
            status = self.scheduler.fail_lease(
                result.worker, result.slot, result.token, result.key,
                result.error)
        else:
            status = self.scheduler.complete_lease(
                result.worker, result.slot, result.token, result.key,
                result.payload)
        return {"slot": result.slot, "status": status}

    def list_workers(self) -> dict:
        return self.scheduler.fleet_snapshot()

    def worker_detail(self, worker_id: str) -> dict:
        """One worker's lease counters + federated telemetry."""
        fleet = self.scheduler.fleet_snapshot()
        rows = [w for w in fleet["workers"] if w["id"] == worker_id]
        federated = self.scheduler.federation.worker_snapshot(worker_id)
        if not rows and federated is None:
            raise ServiceError(404, f"unknown worker {worker_id!r}")
        out = dict(rows[0]) if rows else {"id": worker_id}
        out["telemetry"] = federated
        out["recent_logs"] = self.scheduler.federation.logs(
            worker=worker_id, limit=50)
        return out

    def logs_info(self, query: Mapping[str, str]) -> dict:
        """``GET /v1/logs``: merged server + fleet structured logs."""
        level = query.get("level") or None
        worker = query.get("worker") or None
        try:
            since = (float(query["since"]) if query.get("since")
                     else None)
            limit = int(query.get("limit", 200))
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                400, f"bad log query parameters: {exc}") from exc
        server_records = telemetry.GLOBAL_BUFFER.records(
            level=level, worker=worker, since_unix=since)
        fleet_records = self.scheduler.federation.logs(
            worker=worker, level=level, since_unix=since)
        records = sorted(server_records + fleet_records,
                         key=lambda r: float(r.get("time_unix", 0.0)))
        if limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return {"records": records, "count": len(records)}

    def sweep_trace(self, ticket_id: str) -> dict:
        try:
            return self.scheduler.trace(ticket_id)
        except KeyError:
            raise ServiceError(
                404, f"no such sweep {ticket_id!r}") from None

    def health_info(self) -> dict:
        fleet = self.scheduler.fleet_snapshot()
        return {
            "ok": True,
            "uptime_s": time.monotonic() - self.started_monotonic,
            "telemetry": telemetry.enabled(),
            "workers": {
                "active": fleet["workers_active"],
                "known": len(fleet["workers"]),
                "leases_active": fleet["leases_active"],
                "leases_expired_total": fleet["leases_expired_total"],
            },
            "queue_depth": fleet["queue_depth"],
            "jobs_in_flight": fleet["jobs_in_flight"],
            "local_dispatch": fleet["local_dispatch"],
        }

    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        stats = self.cache.stats.snapshot()
        stats.pop("hits", None)  # derived; keep the wire doc as before
        artifacts, disk_bytes = self.cache.disk_usage()
        return {
            "memory_entries": len(self.cache),
            "disk_dir": (str(self.cache.disk_dir)
                         if self.cache.disk_dir is not None else None),
            "disk_bytes": disk_bytes,
            "max_disk_bytes": self.cache.max_disk_bytes,
            "artifacts": artifacts,
            "stats": stats,
        }

    def metrics_text(self) -> str:
        """The ``/v1/metrics`` Prometheus document.

        Pull-model metrics (queue health, cache counters, calibration
        status) are mirrored into gauges at scrape time from their
        lock-consistent snapshots; push-model series (request
        latencies, job counters, histograms) render as accumulated.
        The federated fleet document — every worker's heartbeat-shipped
        series re-rendered with a ``worker="..."`` label — is appended
        below the server's own, so one scrape covers the whole fleet.
        """
        snap = self.scheduler.telemetry_snapshot()
        self.scheduler._m_queue_depth.set(snap["queue_depth"])
        self.scheduler._m_in_flight.set(snap["jobs_in_flight"])
        fleet = self.scheduler.fleet_snapshot()
        self.scheduler._m_workers_active.set(fleet["workers_active"])
        self.scheduler._m_leases_active.set(fleet["leases_active"])
        for counter, value in self.cache.stats.snapshot().items():
            _M_CACHE_STATS.set(value, counter=counter)
        artifacts, disk_bytes = self.cache.disk_usage()
        _M_CACHE_MEMORY.set(len(self.cache))
        _M_CACHE_DISK_BYTES.set(disk_bytes or 0)
        _M_CACHE_ARTIFACTS.set(artifacts)
        return (telemetry.render_prometheus()
                + self.scheduler.federation.render_prometheus())

    def shutdown(self) -> None:
        self.scheduler.shutdown()


def _parse_json(body: bytes) -> dict:
    try:
        doc = json.loads(body)
    except (ValueError, TypeError) as exc:
        raise ServiceError(400, f"request body is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServiceError(400, "request body must be a JSON object")
    return doc


def _json_default(obj: Any):
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Route parser over the :class:`SweepService` application."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweep-service/1"
    # Headers and body leave in two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers on a kept-alive
    # connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # Set by make_server() on the handler subclass.
    service: SweepService
    quiet: bool = True

    # -- helpers -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def send_response(self, code: int, message: str | None = None) -> None:
        self._status = code  # captured for the request counter's label
        super().send_response(code, message)

    def _send_json(self, doc: Mapping, status: int = 200) -> None:
        data = json.dumps(doc, default=_json_default).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            # Tells a keep-alive client not to send on this connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status: int, message: str) -> None:
        # An error path may not have read the request body; on a
        # keep-alive connection those unread bytes would be parsed as
        # the next request line. Close instead of desyncing.
        self.close_connection = True
        self._send_json({"error": message}, status=status)

    def _send_text(self, text: str, content_type: str = PROMETHEUS) -> None:
        data = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # Checked before reading: rfile.read(-1) would block the
            # handler until the client closes the connection.
            raise ServiceError(400, "Content-Length must be a "
                                    f"non-negative integer, got {raw!r}")
        return self.rfile.read(length) if length else b""

    def _route(self) -> list[str]:
        path = self.path.split("?", 1)[0]
        return [part for part in path.split("/") if part]

    def _query(self) -> dict[str, str]:
        if "?" not in self.path:
            return {}
        from urllib.parse import parse_qsl
        return dict(parse_qsl(self.path.split("?", 1)[1]))

    @staticmethod
    def _normalize_route(parts: list[str]) -> str:
        """Collapse path ids (`/v1/sweeps/<id>` -> `/v1/sweeps/*`) so
        metric label cardinality stays bounded. The fleet verbs under
        `/v1/workers/` (claim/heartbeat/result) stay literal — they are
        protocol endpoints, not ids; anything else after `workers` is a
        worker id and collapses."""
        out: list[str] = []
        prev = None
        for part in parts:
            if prev in ("sweeps", "experiments"):
                out.append("*")
            elif (prev == "workers"
                    and part not in ("claim", "heartbeat", "result")):
                out.append("*")
            else:
                out.append(part)
            prev = part
        return "/" + "/".join(out)

    def _dispatch(self, method: str) -> None:
        parts = self._route()
        self._status = 200
        self._routed = True
        start = time.perf_counter()
        try:
            if not parts or parts[0] != "v1":
                self._routed = False
                raise ServiceError(404, f"unknown path {self.path!r}")
            self._dispatch_v1(method, parts[1:])
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-stream
        except ReproError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        finally:
            if telemetry.enabled():
                route = (self._normalize_route(parts) if self._routed
                         else _UNMATCHED_ROUTE)
                _M_REQUEST_LATENCY.observe(time.perf_counter() - start,
                                           method=method, route=route)
                _M_REQUESTS.inc(method=method, route=route,
                                status=str(self._status))

    def _check_auth(self) -> None:
        """Enforce the service's bearer token on mutating requests."""
        token = self.service.token
        if not token:
            return
        header = self.headers.get("Authorization", "")
        provided = header[len("Bearer "):] \
            if header.startswith("Bearer ") else ""
        if not hmac.compare_digest(provided.encode("utf-8"),
                                   token.encode("utf-8")):
            raise ServiceError(401, "missing or invalid bearer token")

    def _dispatch_v1(self, method: str, parts: list[str]) -> None:
        service = self.service
        if method == "POST":
            self._check_auth()
        match (method, parts):
            case ("GET", ["healthz"]):
                self._send_json(service.health_info())
            case ("GET", ["cache"]):
                self._send_json(service.cache_info())
            case ("GET", ["metrics"]):
                self._send_text(service.metrics_text())
            case ("GET", ["experiments"]):
                self._send_json(service.list_experiments())
            case ("POST", ["experiments", name, "run"]):
                self._send_json(service.run_experiment(name, self._body()),
                                status=202)
            case ("POST", ["sweeps"]):
                self._send_json(service.submit_sweep(self._body()),
                                status=202)
            case ("GET", ["sweeps"]):
                self._send_json(service.list_sweeps())
            case ("GET", ["sweeps", ticket_id]):
                self._send_json(service.sweep_status(ticket_id))
            case ("GET", ["sweeps", ticket_id, "events"]):
                self._stream_events(ticket_id)
            case ("GET", ["sweeps", ticket_id, "trace"]):
                self._send_json(service.sweep_trace(ticket_id))
            case ("POST", ["workers", "claim"]):
                self._send_json(service.worker_claim(self._body()))
            case ("POST", ["workers", "heartbeat"]):
                self._send_json(service.worker_heartbeat(self._body()))
            case ("POST", ["workers", "result"]):
                self._send_json(service.worker_result(self._body()))
            case ("GET", ["workers"]):
                self._send_json(service.list_workers())
            case ("GET", ["workers", worker_id]):
                self._send_json(service.worker_detail(worker_id))
            case ("GET", ["logs"]):
                self._send_json(service.logs_info(self._query()))
            case _:
                self._routed = False
                raise ServiceError(
                    404, f"no route for {method} {self.path!r}")

    def _stream_events(self, ticket_id: str) -> None:
        """NDJSON progress stream: one event object per line, closing
        once the sweep completes or fails (chunked transfer)."""
        query = self._query()
        try:
            since = int(query.get("since", 0))
        except ValueError:
            raise ServiceError(
                400, f"'since' must be an integer, "
                     f"got {query.get('since')!r}") from None
        self.service.sweep_events(ticket_id, since=since, timeout=0)
        self.send_response(200)
        self.send_header("Content-Type", NDJSON)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data + b"\r\n")

        def write_event(doc: Mapping) -> None:
            line = json.dumps(doc, default=_json_default) + "\n"
            write_chunk(line.encode("utf-8"))

        # Headers are out: from here on an error must not become a
        # second HTTP response inside the chunked body (it would
        # corrupt the stream). Emit it as a final error event instead.
        try:
            finished = False
            while not finished:
                events, finished = self.service.sweep_events(
                    ticket_id, since=since, timeout=10.0)
                for event in events:
                    write_event(event)
                since += len(events)
                self.wfile.flush()
        except BrokenPipeError:
            raise  # client went away; nothing left to salvage
        except Exception as exc:  # noqa: BLE001 — stream-level error
            self.close_connection = True
            write_event({"event": "stream_error",
                         "error": f"{type(exc).__name__}: {exc}"})
        write_chunk(b"")  # terminating chunk
        self.wfile.flush()

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


def make_server(host: str = "127.0.0.1", port: int = 8321,
                service: SweepService | None = None,
                executor: Executor | None = None,
                cache: ResultCache | None = None,
                quiet: bool = True,
                enable_telemetry: bool = True,
                token: str | None = None) -> ThreadingHTTPServer:
    """A ready-to-serve threading HTTP server (not yet serving).

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``. The server gets ``.service`` attached
    for introspection and shutdown. A service is exactly the long-lived
    entry point telemetry exists for, so it is switched on here unless
    ``enable_telemetry=False``.
    """
    if enable_telemetry:
        telemetry.enable()
    if service is None:
        service = SweepService(executor=executor, cache=cache, token=token)
    handler = type("BoundHandler", (_Handler,),
                   {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(host: str = "127.0.0.1", port: int = 8321,
          jobs: int = 1, cache_dir: str | None = None,
          max_disk_bytes: int | None = None,
          quiet: bool = False, fleet: bool = False,
          token: str | None = None) -> int:
    """Run the sweep service until interrupted (the CLI entry point).

    ``fleet=True`` never starts the scheduler's local worker: queued work
    is only executed by pull workers (``repro-experiments worker``)
    claiming it over ``/v1/workers/*``.
    """
    executor = ParallelExecutor(jobs) if jobs > 1 else SerialExecutor()
    cache = ResultCache(disk_dir=cache_dir, max_disk_bytes=max_disk_bytes)
    scheduler = SweepScheduler(executor=executor, cache=cache,
                               local_dispatch=not fleet)
    service = SweepService(scheduler=scheduler, token=token)
    server = make_server(host, port, service=service, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    mode = "fleet (pull workers only)" if fleet \
        else f"local (executor={executor.name}, jobs={jobs})"
    log = telemetry.stderr_logger("service.server")
    log.info(f"listening on http://{bound_host}:{bound_port}",
             dispatch=mode, cache_dir=cache_dir,
             auth="bearer" if service.token else "off")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.service.shutdown()  # type: ignore[attr-defined]
        server.server_close()
    return 0
