"""The fleet's pull worker: claim, execute, upload, repeat.

One :class:`FleetWorker` is one process's worth of fleet capacity. A
single control loop owns all HTTP traffic (claims, heartbeats,
uploads) while a :class:`~concurrent.futures.ThreadPoolExecutor` of
``concurrency`` threads runs the solves — numpy and LAPACK release the
GIL, so threads scale the same way the engine's in-process
``ParallelExecutor`` threads do. The worker keeps its own pool because
its loop heartbeats between completions.

Failure handling mirrors the lease protocol's guarantees:

- transport errors on claim/upload back off exponentially with jitter
  (capped), so a recovering server is not stampeded;
- a heartbeat answered ``False`` means the lease was reclaimed — the
  job is abandoned locally and its result never uploaded (the re-lease
  owns it now);
- ``stop()`` (the CLI wires it to SIGTERM/SIGINT) drains gracefully:
  no new claims, in-flight jobs finish and upload, then ``run()``
  returns its counters.

Diagnostics go through the structured logger
(:mod:`repro.telemetry.logs`) bound to this worker's ``worker_id`` —
human-readable stderr by default, JSON lines with ``log_json=True``
(the CLI's ``--log-json``), silent with ``quiet=True``. Every record
lands in the process log buffer regardless, and with telemetry enabled
each heartbeat federates the worker's metric snapshot plus the not-yet
-acknowledged log records to the server (wire v4), which is how the
fleet shows up in the server's ``GET /v1/metrics`` / ``/v1/logs``.
"""

from __future__ import annotations

import os
import random
import socket
import sys
import threading
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait

from .. import telemetry
from ..errors import ConfigurationError
from ..engine.runtime import execute_group_isolated, group_by_scenario
from ..service.client import ServiceClient, ServiceUnavailable
from ..service.wire import WorkerClaim, WorkerResult, WorkerTelemetry

#: Log records shipped per heartbeat, at most (the rest follow on the
#: next beat — the buffer's seq ordering makes catch-up lossless until
#: the ring itself overwrites).
_MAX_HEARTBEAT_LOGS = 256

# Worker-side instruments (no-ops until telemetry is enabled). They
# carry no worker label on purpose: the federation layer appends
# ``worker="<id>"`` when re-rendering them server-side, and a label of
# the same name here would collide with it.
_M_JOBS = telemetry.counter(
    "repro_worker_jobs_total",
    "Jobs executed by this fleet worker, by outcome (ok/error).",
    labels=("outcome",))
_M_INFLIGHT = telemetry.gauge(
    "repro_worker_inflight",
    "Leased jobs currently executing on this worker's pool.")
_M_JOB_SECONDS = telemetry.histogram(
    "repro_worker_job_seconds",
    "Wall time per job executed on this fleet worker.")


def default_worker_id() -> str:
    """``host-pid-suffix`` — unique per process, readable in snapshots."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class FleetWorker:
    """Pull loop against one sweep service.

    Parameters
    ----------
    server:
        Base URL, or a configured :class:`ServiceClient` (the way to
        pass a bearer token or custom retry policy). A client the worker
        builds from a URL is closed when :meth:`run` returns; a passed
        one stays its caller's to close.
    concurrency:
        Jobs executed at once on the local thread pool; claims are
        sized to keep the pool full.
    lease_s:
        Lease duration requested per claim; heartbeats go out at a
        third of it.
    exit_when_idle:
        Return from :meth:`run` once a claim comes back empty with
        nothing in flight (batch mode / tests); default is to keep
        polling forever.
    quiet:
        Suppress the stderr stream (records still reach the process
        log buffer, so they still federate and serve ``/v1/logs``).
    log_json:
        Emit stderr diagnostics as JSON lines (one structured record
        per line) instead of the human-readable format.
    """

    def __init__(self, server: str | ServiceClient,
                 worker_id: str | None = None,
                 concurrency: int = 1,
                 lease_s: float = 30.0,
                 idle_poll_s: float = 0.5,
                 backoff_base_s: float = 0.5,
                 backoff_cap_s: float = 30.0,
                 max_upload_retries: int = 5,
                 exit_when_idle: bool = False,
                 quiet: bool = True,
                 log_json: bool = False) -> None:
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}")
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be > 0, got {lease_s}")
        self._owns_client = not isinstance(server, ServiceClient)
        self.client = (ServiceClient(server) if self._owns_client
                       else server)
        self.worker_id = worker_id or default_worker_id()
        self.concurrency = int(concurrency)
        self.lease_s = float(lease_s)
        self.idle_poll_s = float(idle_poll_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.max_upload_retries = int(max_upload_retries)
        self.exit_when_idle = bool(exit_when_idle)
        self.quiet = bool(quiet)
        #: Structured logger bound to this worker's id: every record
        #: carries ``worker_id`` (plus per-call slot/key fields), lands
        #: in the process buffer, and — unless ``quiet`` — streams to
        #: stderr (human format, or JSON lines with ``log_json``).
        self.log = telemetry.get_logger(
            "fleet.worker",
            stream=None if self.quiet else sys.stderr,
            json_lines=log_json,
        ).bind(worker_id=self.worker_id)
        self._stop = threading.Event()
        #: Highest log seq the server has acknowledged receiving.
        self._shipped_seq = 0
        self._inflight_count = 0
        #: Lifetime counters, also returned by :meth:`run`.
        self.stats = {"claimed": 0, "completed": 0, "failed": 0,
                      "stale": 0, "abandoned": 0}

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request a graceful drain (thread/signal-handler safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def _log(self, message: str, *, level: str = "info",
             **fields) -> None:
        self.log.log(level, message, **fields)

    def _sleep_backoff(self, attempt: int) -> None:
        """Jittered, capped exponential backoff (interruptible by
        :meth:`stop`, so a drain never waits out a long retry)."""
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * (2.0 ** (attempt - 1)))
        self._stop.wait(delay * random.uniform(0.5, 1.0))

    # ------------------------------------------------------------------

    def _execute_many(self, claims: list[WorkerClaim]
                      ) -> list[tuple[dict | None, str | None]]:
        """Run one claimed scenario group; one result tuple per claim.

        ``(payload, None)`` or ``(None, error)``: job failures are data,
        not worker crashes — they upload as ``WorkerResult.error`` and
        fail only the tickets waiting on that job, exactly like the
        scheduler's in-process capture.
        :func:`~repro.engine.runtime.execute_group_isolated` runs the
        group as one frequency stack and re-runs a failed group's
        members alone, so a bad job fails only its own lease.
        """
        results = execute_group_isolated([c.job for c in claims])
        for payload, error in results:
            if error is not None:
                _M_JOBS.inc(outcome="error")
                continue
            _M_JOBS.inc(outcome="ok")
            # A group's wall time arrives pre-attributed per job (by
            # cost weight), so the per-job histogram stays meaningful.
            _M_JOB_SECONDS.observe(float(payload.get("wall_time_s", 0.0)))
        return results

    def _push(self, claim: WorkerClaim, payload: dict | None,
              error: str | None) -> str:
        """Upload one result; 'committed', 'stale', or 'abandoned'.

        Transport errors retry with backoff; past the budget the job is
        abandoned — safe, because the unrenewed lease expires and the
        scheduler re-queues the work.
        """
        result = WorkerResult(slot=claim.slot, token=claim.token,
                              worker=self.worker_id, key=claim.key,
                              payload=payload, error=error)
        encoded = None
        for attempt in range(1, self.max_upload_retries + 2):
            try:
                return self.client.push_result(result)
            except ServiceUnavailable as exc:
                encoded = exc
                if attempt > self.max_upload_retries:
                    break
                self._log("upload retry", level="warning",
                          slot=claim.slot, key=claim.key,
                          attempt=attempt, error=str(exc))
                self._sleep_backoff(attempt)
        self._log("abandoning upload", level="error",
                  slot=claim.slot, key=claim.key,
                  retries=self.max_upload_retries, error=str(encoded))
        return "abandoned"

    def _count_push(self, status: str, error: str | None) -> None:
        if status == "committed":
            self.stats["failed" if error is not None else "completed"] += 1
        elif status == "stale":
            self.stats["stale"] += 1
        else:
            self.stats["abandoned"] += 1

    # ------------------------------------------------------------------
    # Telemetry federation (wire v4)
    # ------------------------------------------------------------------

    def _telemetry_snapshot(self) -> WorkerTelemetry:
        """This worker's federated snapshot for one heartbeat.

        Metrics are the full cumulative registry snapshot (families
        with no series yet are skipped — they would only re-declare
        TYPE lines server-side); logs are this worker's records past
        the last server-acknowledged seq, capped per beat.
        """
        records = telemetry.GLOBAL_BUFFER.records(
            worker=self.worker_id, since_seq=self._shipped_seq,
            limit=_MAX_HEARTBEAT_LOGS)
        seq = max((int(r.get("seq", 0)) for r in records),
                  default=self._shipped_seq)
        metrics = {name: fam
                   for name, fam in telemetry.REGISTRY.snapshot().items()
                   if fam.get("series")}
        return WorkerTelemetry(
            worker=self.worker_id, time_unix=time.time(), seq=seq,
            metrics=metrics, logs=tuple(records),
            stats={"concurrency": self.concurrency,
                   "inflight": self._inflight_count, **self.stats})

    def _heartbeat(self, slots: dict[str, str]) -> dict[str, bool]:
        """One heartbeat (possibly with no slots, purely to federate
        telemetry); returns per-slot aliveness, ``{}`` on failure."""
        snapshot = (self._telemetry_snapshot()
                    if telemetry.enabled() else None)
        try:
            alive = self.client.heartbeat(
                self.worker_id, slots, lease_s=self.lease_s,
                telemetry=snapshot)
        except (ServiceUnavailable, ConfigurationError) as exc:
            # Missed heartbeats only shorten the lease; the upload's
            # own retry path owns recovery. Unshipped telemetry stays
            # queued behind _shipped_seq for the next beat.
            self._log("heartbeat failed", level="warning",
                      error=str(exc))
            return {}
        if snapshot is not None:
            self._shipped_seq = snapshot.seq
        return alive

    # ------------------------------------------------------------------

    def run(self) -> dict:
        """Pull until stopped (or idle, with ``exit_when_idle``).

        Returns the lifetime counters: claimed / completed / failed /
        stale / abandoned.
        """
        try:
            return self._pull()
        finally:
            if self._owns_client:
                self.client.close()

    def _pull(self) -> dict:
        heartbeat_every = max(self.lease_s / 3.0, 0.05)
        next_heartbeat = time.monotonic() + heartbeat_every
        claim_failures = 0
        self._log("pulling", server=self.client.base_url,
                  concurrency=self.concurrency, lease_s=self.lease_s)
        with ThreadPoolExecutor(max_workers=self.concurrency,
                                thread_name_prefix="fleet-job") as pool:
            inflight: dict[Future, list[WorkerClaim]] = {}
            abandoned: set[str] = set()  # leases lost to reclaim
            while True:
                draining = self._stop.is_set()
                queue_drained = False
                free = self.concurrency - len(inflight)
                if not draining and free > 0:
                    try:
                        claims = self.client.claim_jobs(
                            self.worker_id, max_jobs=free,
                            lease_s=self.lease_s)
                        claim_failures = 0
                        queue_drained = not claims
                    except ServiceUnavailable as exc:
                        claims = []
                        claim_failures += 1
                        self._log("claim retry", level="warning",
                                  attempt=claim_failures, error=str(exc))
                        self._sleep_backoff(claim_failures)
                    # Same-scenario claims execute as one fused
                    # frequency stack (the server hands them out
                    # adjacently); singletons run as before.
                    for bunch in group_by_scenario(
                            claims, lambda c: c.job):
                        inflight[pool.submit(self._execute_many,
                                             bunch)] = bunch
                        self.stats["claimed"] += len(bunch)
                    if claims:
                        self._log(f"claimed {len(claims)} job(s)",
                                  inflight=len(inflight))
                n_inflight = sum(len(b) for b in inflight.values())
                self._inflight_count = n_inflight
                _M_INFLIGHT.set(n_inflight)
                if not inflight:
                    if draining:
                        break
                    if self.exit_when_idle and queue_drained:
                        break
                    if time.monotonic() >= next_heartbeat:
                        # Nothing leased, but federate telemetry so an
                        # idle worker still reports to the fleet plane.
                        self._heartbeat({})
                        next_heartbeat = time.monotonic() + heartbeat_every
                    self._stop.wait(self.idle_poll_s)
                    continue
                # Wait for completions, but wake in time to heartbeat.
                budget = max(next_heartbeat - time.monotonic(), 0.05)
                done, _ = futures_wait(list(inflight), timeout=budget,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    bunch = inflight.pop(future)
                    for claim, (payload, error) in zip(bunch,
                                                       future.result()):
                        if claim.slot in abandoned:
                            abandoned.discard(claim.slot)
                            self.stats["abandoned"] += 1
                            continue
                        status = self._push(claim, payload, error)
                        self._count_push(status, error)
                n_inflight = sum(len(b) for b in inflight.values())
                self._inflight_count = n_inflight
                _M_INFLIGHT.set(n_inflight)
                if inflight and time.monotonic() >= next_heartbeat:
                    slots = {c.slot: c.token
                             for b in inflight.values() for c in b
                             if c.slot not in abandoned}
                    alive = self._heartbeat(slots)
                    for slot_id, ok in alive.items():
                        if not ok:
                            self._log("lease lost; abandoning",
                                      level="warning", slot=slot_id)
                            abandoned.add(slot_id)
                    next_heartbeat = time.monotonic() + heartbeat_every
        self._inflight_count = 0
        _M_INFLIGHT.set(0)
        if telemetry.enabled():
            # Final federated snapshot, so the server sees this
            # worker's finished counters and last log records even when
            # the run was shorter than one heartbeat interval.
            self._heartbeat({})
        self._log("done", **self.stats)
        return dict(self.stats)
