"""Thin HTTP client for the sweep service.

:class:`ServiceClient` mirrors :func:`repro.engine.run_sweep`'s call
signature: ``submit`` a :class:`~repro.engine.SweepSpec`, stream
progress, and get back a fully decoded :class:`~repro.engine
.SweepResult` that is bit-identical to an in-process run of the same
spec against the same cache. The fleet worker (:mod:`repro.fleet`)
speaks the lease protocol through the same client.

Standard library only: calls travel over persistent HTTP/1.1
connections (``http.client``), and the NDJSON event stream opens its
own ``urllib`` connection. Errors surface as :class:`ServiceUnavailable`
(transport) or :class:`~repro.errors.ConfigurationError` (HTTP 4xx with
a decoded server message).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError, ReproError
from ..engine.api import ProgressFn
from ..engine.results import SweepResult
from ..engine.spec import SweepSpec
from . import wire

#: ``progress(done, total)`` — same shape the engine uses.
Progress = ProgressFn

#: HTTP statuses treated as transient on idempotent requests.
_TRANSIENT_HTTP = frozenset({500, 502, 503, 504})


class ServiceUnavailable(ReproError):
    """The server could not be reached (connection/transport error)."""


class ServiceClient:
    """HTTP client for one sweep-service base URL.

    Calls reuse persistent HTTP/1.1 connections: each takes an idle
    connection, or opens one, and puts it back once the response is
    read, so threads sharing a client never interleave two requests on
    one connection. :meth:`close`, or leaving a ``with ServiceClient(...)``
    block, closes the idle connections; a later call opens a new one.
    Connections go straight to the server: unlike ``urllib``,
    ``http.client`` does not read the ``*_proxy`` environment variables.
    :meth:`run_sweep` and :meth:`run_experiment` poll only while the
    submitted ticket runs, so a warm sweep is one request.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8321"`` (trailing slash optional).
    timeout:
        Per-request socket timeout in seconds.
    poll_interval:
        Sleep between status polls when not streaming events.
    token:
        Bearer token sent on every request; defaults from
        ``REPRO_SERVICE_TOKEN`` (the variable the server arms its auth
        from), so a matched client/server pair needs no wiring.
    max_retries:
        Extra attempts for **idempotent GETs** that hit a transport
        error or transient HTTP status (500/502/503/504), with capped
        exponential backoff + jitter. POSTs never retry here — the
        fleet worker owns its own (lease-aware) retry policy. Apart
        from that, any call whose reused connection fails before a
        response byte arrives (the server closed it while it sat idle)
        is sent once more on a fresh connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 poll_interval: float = 0.25,
                 token: str | None = None,
                 max_retries: int = 3,
                 backoff_base_s: float = 0.2,
                 backoff_cap_s: float = 5.0) -> None:
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigurationError(
                f"service URL must be http(s)://host[:port], got "
                f"{base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)
        self._path_prefix = url.path
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self.timeout = timeout
        self.poll_interval = poll_interval
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN") or None
        self.token = token or None
        self.max_retries = max(int(max_retries), 0)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _headers(self, body: bytes | None) -> dict[str, str]:
        headers: dict[str, str] = {}
        if body:
            headers["Content-Type"] = "application/json"
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (1-based): capped exponential
        with multiplicative jitter, so a worker fleet hammering one
        recovering server naturally de-synchronizes."""
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * (2.0 ** (attempt - 1)))
        time.sleep(delay * random.uniform(0.5, 1.0))

    def _connect(self) -> http.client.HTTPConnection:
        conn = self._connection_class(*self._address, timeout=self.timeout)
        try:
            conn.connect()
            # http.client writes headers and body separately: with
            # Nagle on, the body waits out the server's delayed ACK.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            conn.close()
            raise
        return conn

    def _exchange(self, method: str, path: str, body: bytes | None,
                  headers: Mapping[str, str]) -> tuple[int, bytes]:
        """One request and its whole response, ``(status, body)``."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        keep = False
        try:
            while True:
                try:
                    conn.request(method, self._path_prefix + path,
                                 body=body, headers=headers)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    # Reset or closed before any response byte: on a
                    # reused connection, the server dropped it idle.
                    if not reused:
                        raise
                    conn.close()
                    conn, reused = self._connect(), False
            data = response.read()
            keep = not response.will_close
        finally:
            if keep:
                with self._idle_lock:
                    self._idle.append(conn)
            else:
                conn.close()
        return response.status, data

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> bytes:
        """One call's response body, under the retry policy."""
        headers = self._headers(body)
        attempts = 1 + (self.max_retries if method == "GET" else 0)
        for attempt in range(1, attempts + 1):
            try:
                status, data = self._exchange(method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                if attempt < attempts:
                    self._backoff(attempt)
                    continue
                raise ServiceUnavailable(
                    f"cannot reach sweep service at {self.base_url}: "
                    f"{exc}"
                ) from exc
            if 200 <= status < 300:
                return data
            if status in _TRANSIENT_HTTP and attempt < attempts:
                self._backoff(attempt)
                continue
            try:
                message = json.loads(data).get("error", data.decode())
            except (ValueError, AttributeError):
                message = data.decode("utf-8", "replace")
            raise ConfigurationError(
                f"{method} {path} -> HTTP {status}: {message}")
        raise AssertionError("unreachable")  # loop always returns/raises

    def _get(self, path: str) -> dict:
        return json.loads(self._request("GET", path))

    def _post(self, path: str, body: bytes | None = None) -> dict:
        return json.loads(self._request("POST", path, body=body))

    # ------------------------------------------------------------------
    # Service API
    # ------------------------------------------------------------------

    def healthy(self) -> bool:
        """True iff the server answers its liveness probe."""
        try:
            return bool(self._get("/v1/healthz").get("ok"))
        except ReproError:
            return False

    def experiments(self) -> list[dict]:
        """The server's registered experiments."""
        return self._get("/v1/experiments")["experiments"]

    def cache_info(self) -> dict:
        """The server cache's stats/size snapshot."""
        return self._get("/v1/cache")

    def metrics_text(self) -> str:
        """The server's ``/v1/metrics`` Prometheus text document."""
        return self._request("GET", "/v1/metrics").decode("utf-8")

    def submit(self, spec: SweepSpec) -> str:
        """Submit a sweep; returns the ticket id immediately."""
        return self._post(
            "/v1/sweeps", wire.dumps(spec).encode("utf-8"))["id"]

    def status(self, ticket_id: str) -> dict:
        """The ticket's status document (see the server docs)."""
        return self._get(f"/v1/sweeps/{ticket_id}")

    def events(self, ticket_id: str,
               on_event: Callable[[dict], None] | None = None
               ) -> list[dict]:
        """Consume the NDJSON progress stream until it closes.

        Blocks until the sweep finishes; every parsed event is passed
        to ``on_event`` as it arrives and the full list is returned.
        """
        req = urllib.request.Request(
            f"{self.base_url}/v1/sweeps/{ticket_id}/events")
        events = []
        try:
            with urllib.request.urlopen(req, timeout=None) as resp:
                for raw in resp:
                    line = raw.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    events.append(event)
                    if on_event is not None:
                        on_event(event)
        except urllib.error.HTTPError as exc:
            raise ConfigurationError(
                f"events stream -> HTTP {exc.code}") from exc
        except urllib.error.URLError as exc:
            raise ServiceUnavailable(
                f"cannot reach sweep service at {self.base_url}: "
                f"{exc.reason}"
            ) from exc
        return events

    def wait(self, ticket_id: str,
             progress: Progress | None = None,
             timeout: float | None = None) -> dict:
        """Poll until the ticket completes/fails; returns final status."""
        return self._follow(self.status(ticket_id), progress, timeout)

    def _follow(self, status: dict, progress: Progress | None,
                timeout: float | None) -> dict:
        """Poll from a ticket's status document while the ticket runs;
        returns the final document.

        A submit's answer is complete, with its result, when the cache
        served every point, so a warm sweep makes no poll. An answer
        that is complete without its result (a server that answers a
        submit with the ticket's links only) is fetched once more.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if progress is not None:
                progress(status["done"], status["total"])
            if status["state"] in ("complete", "failed"):
                break
            if deadline is not None and time.monotonic() > deadline:
                raise ConfigurationError(
                    f"sweep {status['id']} still {status['state']} after "
                    f"{timeout} s ({status['done']}/{status['total']})"
                )
            time.sleep(self.poll_interval)
            status = self.status(status["id"])
        if status["state"] == "complete" and "result" not in status:
            status = self.status(status["id"])
        return status

    @staticmethod
    def _decode_result(status: dict) -> SweepResult:
        """Decode the ``SweepResult`` out of a final status document."""
        ticket_id = status.get("id")
        if status["state"] == "failed":
            raise ConfigurationError(
                f"sweep {ticket_id} failed: {status.get('error')}"
            )
        if "result" not in status:
            raise ConfigurationError(
                f"sweep {ticket_id} is {status['state']} "
                f"({status['done']}/{status['total']}); no result yet"
            )
        body = wire.open_envelope(status["result"])
        result = wire.from_wire(body)
        if not isinstance(result, SweepResult):
            raise ConfigurationError(
                f"server returned {type(result).__name__}, "
                "expected SweepResult")
        return result

    def result(self, ticket_id: str) -> SweepResult:
        """Fetch and decode a completed ticket's :class:`SweepResult`."""
        return self._decode_result(self.status(ticket_id))

    def run_sweep(self, spec: SweepSpec,
                  progress: Progress | None = None,
                  timeout: float | None = None) -> SweepResult:
        """Remote analogue of :func:`repro.engine.run_sweep`.

        Submit, then poll (reporting ``progress(done, total)``) only
        while the ticket runs, and decode. The submit's answer is the
        ticket's status document, which carries the encoded result once
        the ticket is complete: a sweep the server's cache serves in
        full is one request, with no solve.
        """
        if not isinstance(spec, SweepSpec):
            raise ConfigurationError(
                f"run_sweep expects a SweepSpec, got {type(spec).__name__}"
            )
        submitted = self._post("/v1/sweeps", wire.dumps(spec).encode("utf-8"))
        return self._decode_result(
            self._follow(submitted, progress, timeout))

    def run_experiment(self, name: str, scale: str = "quick",
                       progress: Progress | None = None,
                       timeout: float | None = None) -> dict:
        """Run a registered experiment server-side; returns the reduced
        :class:`~repro.experiments.base.ExperimentResult` dict."""
        submitted = self._post(
            f"/v1/experiments/{name}/run",
            json.dumps({"scale": scale}).encode("utf-8"))
        if submitted.get("id") is None:  # solve-free: reduced inline
            return submitted["experiment"]
        status = self._follow(submitted, progress, timeout)
        if status["state"] == "failed":
            raise ConfigurationError(
                f"experiment {name!r} failed remotely: "
                f"{status.get('error')}"
            )
        if "experiment" not in status:
            raise ConfigurationError(
                f"sweep {submitted['id']} finished without an "
                "experiment reduction"
            )
        return status["experiment"]

    # ------------------------------------------------------------------
    # Fleet worker protocol
    # ------------------------------------------------------------------

    def claim_jobs(self, worker: str, max_jobs: int = 1,
                   lease_s: float = 30.0) -> list[wire.WorkerClaim]:
        """Lease up to ``max_jobs`` queued jobs; empty list = drained."""
        doc = self._post("/v1/workers/claim", json.dumps({
            "worker": worker, "max_jobs": max_jobs, "lease_s": lease_s,
        }).encode("utf-8"))
        claims = wire.from_wire(wire.open_envelope(doc))
        if (not isinstance(claims, list)
                or not all(isinstance(c, wire.WorkerClaim)
                           for c in claims)):
            raise ConfigurationError(
                "claim response is not a wire WorkerClaim list")
        return claims

    def heartbeat(self, worker: str, slots: Mapping[str, str],
                  lease_s: float = 30.0,
                  telemetry: wire.WorkerTelemetry | None = None,
                  ) -> dict[str, bool]:
        """Extend leases; maps slot id -> still-alive.

        ``telemetry`` piggybacks the worker's federated metric/log
        snapshot on the heartbeat; it is optional because a worker
        ships it only when its telemetry is enabled.
        """
        body: dict[str, Any] = {
            "worker": worker, "slots": dict(slots), "lease_s": lease_s,
        }
        if telemetry is not None:
            body["telemetry"] = wire.to_wire(telemetry)
        doc = self._post("/v1/workers/heartbeat",
                         json.dumps(body).encode("utf-8"))
        return {str(k): bool(v)
                for k, v in (doc.get("alive") or {}).items()}

    def push_result(self, result: wire.WorkerResult) -> str:
        """Upload one job's result; returns 'committed' or 'stale'."""
        doc = self._post("/v1/workers/result",
                         wire.dumps(result).encode("utf-8"))
        return str(doc.get("status", ""))

    def workers(self) -> dict:
        """The server's fleet snapshot (``GET /v1/workers``)."""
        return self._get("/v1/workers")

    def worker_detail(self, worker_id: str) -> dict:
        """One worker's counters + federated telemetry snapshot."""
        return self._get(f"/v1/workers/{worker_id}")

    def logs(self, worker: str | None = None, level: str | None = None,
             since: float | None = None,
             limit: int | None = None) -> list[dict]:
        """Merged server + fleet structured log records."""
        from urllib.parse import urlencode
        params = {k: v for k, v in (("worker", worker), ("level", level),
                                    ("since", since), ("limit", limit))
                  if v is not None}
        path = "/v1/logs" + (f"?{urlencode(params)}" if params else "")
        return self._get(path).get("records", [])

    def sweep_trace(self, ticket_id: str) -> dict:
        """The sweep's merged Chrome trace document."""
        return self._get(f"/v1/sweeps/{ticket_id}/trace")

