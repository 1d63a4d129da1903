"""Async job-queue scheduler over the engine's hit/pending split.

The service's execution core: submitted sweeps are split by
:func:`repro.engine.cache_split` into cache hits (answered immediately)
and pending jobs that enter one **global deduplicating queue** — two
clients asking for the same content hash share a single computation,
and its payload fans out to every waiting ticket the moment it commits.

Every mutation appends a JSON-ready event to the owning ticket
(``submitted``/``point``/``complete``/``failed``); pollers and the
HTTP layer's NDJSON stream read those via :meth:`SweepScheduler.events`
which supports long-polling on the scheduler's condition variable.

**One dispatch path: the lease protocol.** A worker calls
:meth:`SweepScheduler.claim_jobs` to lease up to ``n`` queued
computations, longest-first by the dense-solve cost model
(:func:`estimate_job_cost`) with the scenario hash as tie-break,
:meth:`~SweepScheduler.heartbeat` to keep its leases alive, and
:meth:`~SweepScheduler.complete_lease` / :meth:`~SweepScheduler
.fail_lease` to commit. Those two calls are the only way into the
commit funnel, so waiter fan-out, events, telemetry, the cost
calibrator, the flight recorder and the result cache behave the same
wherever a job ran.

In-process execution is the scheduler's own worker, :data:`LOCAL_WORKER`: a
thread that claims every queued computation and hands the round to the
configured :class:`~repro.engine.Executor` as scenario groups, so a
``ParallelExecutor`` parallelizes across every client's pending work at
once. Its leases never expire and its id is reserved;
``local_dispatch=False`` never starts it (a pure fleet queue). A fleet
lease that misses its deadline is reclaimed and re-queued (lazily, on
the next lease-path call — no extra thread), and every re-lease
rotates the lease token, so a worker that went silent and commits late
is detected and its stale upload dropped. A slot is handed out at most
once at a time, and cache hits never enter the queue.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from .. import telemetry
from ..errors import ConfigurationError
from ..engine.api import cache_split
from ..engine.cache import ResultCache
from ..engine.cost import estimate_job_cost, job_kind
from ..engine.executors import Executor, SerialExecutor
from ..engine.results import PointResult, SweepResult
from ..engine.runtime import execute_group_isolated, group_by_scenario
from ..engine.spec import Job, SweepSpec
from .wire import WorkerClaim, WorkerTelemetry


# ----------------------------------------------------------------------
# Tickets
# ----------------------------------------------------------------------

#: Ticket lifecycle states.
PENDING, RUNNING, COMPLETE, FAILED = "pending", "running", "complete", "failed"

#: Worker id of the scheduler's own in-process worker. Reserved:
#: :meth:`SweepScheduler.claim_jobs` refuses it, so no fleet worker can
#: merge its counters into the local row.
LOCAL_WORKER = "local"

#: Payload fields :meth:`SweepScheduler.result` reads; an upload that
#: lacks one is refused before it can reach the cache.
_PAYLOAD_FIELDS = ("mean", "std", "values", "n_evals", "seed",
                   "wall_time_s")

#: EWMA smoothing for per-worker throughput (higher = more reactive).
_RATE_ALPHA = 0.3

#: A worker is flagged slow (straggler) when its EWMA throughput drops
#: below this fraction of the fleet median.
_SLOW_FACTOR = 0.5

#: Recent lease expirations retained for attribution in the fleet
#: snapshot (who lost which job, and how often).
_MAX_EXPIRATIONS = 64


@dataclass
class _Ticket:
    """One submitted sweep and its progress."""

    id: str
    spec: SweepSpec
    jobs: list[Job]
    payloads: list[dict | None]
    hits: list[bool]
    meta: dict[str, Any]
    created_unix: float
    #: Monotonic twin of ``created_unix``: ticket wall times are
    #: *durations*, so they clock on the monotonic pair (the unix
    #: fields stay for display and cross-machine merging only).
    created_monotonic: float = field(default_factory=time.monotonic)
    #: Per-job relative costs / scenario kinds, precomputed at admit so
    #: ``status()`` can price the remaining work without touching specs.
    costs: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    done: int = 0
    state: str = PENDING
    error: str | None = None
    events: list[dict] = field(default_factory=list)
    finished_unix: float | None = None
    finished_monotonic: float | None = None
    #: Flight-recorder entries, one per committed slot this ticket
    #: waited on: wall-clock queue/claim/commit timestamps, the worker
    #: (``LOCAL_WORKER`` for in-process execution) and its job spans —
    #: everything :meth:`SweepScheduler.trace` needs to lay the sweep
    #: out as one merged Chrome trace across processes.
    flight: list[dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.jobs)


@dataclass
class _Slot:
    """One unique pending computation and the points waiting on it."""

    job: Job
    cost: float
    waiters: list[tuple[str, int]]  # (ticket id, point index)
    queued: bool = True
    #: Monotonic enqueue time — queue-wait telemetry clocks on it.
    queued_monotonic: float = field(default_factory=time.monotonic)
    #: Wall-clock twin timestamps for the flight recorder (monotonic
    #: clocks cannot be merged across machines; Chrome traces can).
    queued_unix: float = field(default_factory=time.time)
    claimed_unix: float | None = None
    # ---- lease state; None while queued ------------------------------
    leased_to: str | None = None
    lease_token: str | None = None
    lease_deadline: float | None = None  # monotonic
    lease_attempts: int = 0


@dataclass
class _WorkerInfo:
    """One pull worker's registration and counters."""

    id: str
    first_seen_unix: float
    last_seen_unix: float
    last_seen_monotonic: float
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    expired: int = 0
    #: EWMA of committed cost-units per wall-clock second — the
    #: straggler signal. Cost units are the scheduler's relative
    #: ``estimate_job_cost`` scale, so the number only means something
    #: *compared across workers running the same mix*, which is exactly
    #: how :meth:`SweepScheduler.fleet_snapshot` uses it (vs the fleet
    #: median).
    rate_ewma: float = 0.0
    rate_n: int = 0


class SweepScheduler:
    """Global deduplicating job queue with its own lease-holding worker.

    Parameters
    ----------
    executor:
        Backend the local worker hands each claimed round to (default
        serial).
    cache:
        Result cache shared by the split and the commits (default: a
        fresh in-memory :class:`~repro.engine.ResultCache`).
    local_dispatch:
        When False the local worker thread is never started and queued
        work is only retired by fleet workers claiming it — the
        pure pull-queue mode behind ``repro-experiments serve --fleet``.
    max_lease_attempts:
        A slot whose lease expires is re-queued at most this many times
        before its waiters are failed (guards against a job that kills
        every worker that touches it).
    worker_ttl_s:
        A worker that holds no lease and has not been heard from for
        this long is dropped from the registry (and from the
        ``workers_active`` health count).
    """

    def __init__(self, executor: Executor | None = None,
                 cache: ResultCache | None = None,
                 max_finished_tickets: int = 256,
                 local_dispatch: bool = True,
                 max_lease_attempts: int = 5,
                 worker_ttl_s: float = 60.0) -> None:
        if max_finished_tickets < 1:
            raise ConfigurationError(
                f"max_finished_tickets must be >= 1, "
                f"got {max_finished_tickets}"
            )
        if max_lease_attempts < 1:
            raise ConfigurationError(
                f"max_lease_attempts must be >= 1, got {max_lease_attempts}"
            )
        if worker_ttl_s <= 0:
            raise ConfigurationError(
                f"worker_ttl_s must be > 0, got {worker_ttl_s}"
            )
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache if cache is not None else ResultCache()
        self.max_finished_tickets = max_finished_tickets
        #: Online per-kind cost->wall-clock regression behind ``eta_s``.
        self.calibrator = telemetry.CostCalibrator()
        # Instrument handles; every update is a no-op until
        # telemetry.enable(). The registry dedupes by family name, so
        # several schedulers in one process share these series.
        self._m_jobs = telemetry.counter(
            "repro_scheduler_jobs_total",
            "Jobs resolved by the scheduler, by scenario kind and how "
            "they resolved (computed/cached/failed).",
            labels=("kind", "outcome"))
        self._m_queue_depth = telemetry.gauge(
            "repro_scheduler_queue_depth",
            "Unique pending computations waiting for a claim.")
        self._m_in_flight = telemetry.gauge(
            "repro_scheduler_jobs_in_flight",
            "Unique computations leased and not yet committed.")
        self._m_round = telemetry.histogram(
            "repro_scheduler_round_seconds",
            "Local-worker round latency (one executor batch).")
        self._m_queue_wait = telemetry.histogram(
            "repro_scheduler_queue_wait_seconds",
            "Time a unique computation spent queued before a claim.")
        self._m_job_wall = telemetry.histogram(
            "repro_scheduler_job_wall_seconds",
            "Worker-reported wall time per computed job.",
            labels=("kind",))
        self._m_leases = telemetry.counter(
            "repro_fleet_leases_total",
            "Lease transitions, local and fleet workers, by outcome "
            "(claimed/committed/failed/expired/stale).",
            labels=("outcome",))
        self._m_workers_active = telemetry.gauge(
            "repro_fleet_workers_active",
            "Workers holding a lease or heard from within the TTL.")
        self._m_leases_active = telemetry.gauge(
            "repro_fleet_leases_active",
            "Slots currently leased to a worker, local or fleet.")
        self._m_worker_slow = telemetry.gauge(
            "repro_fleet_worker_slow",
            "1 when the worker's EWMA throughput is below "
            f"{_SLOW_FACTOR:g}x the fleet median (straggler), else 0.",
            labels=("worker",))
        #: Server-side merge of worker heartbeat telemetry (wire v4):
        #: per-worker metric snapshots + fleet logs behind /v1/metrics,
        #: /v1/workers/<id> and /v1/logs.
        self.federation = telemetry.FederatedTelemetry()
        self._log = telemetry.get_logger("service.scheduler")
        self._recent_expirations: deque[dict] = deque(
            maxlen=_MAX_EXPIRATIONS)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)  # local worker waits
        self._changed = threading.Condition(self._lock)  # pollers wait
        self._tickets: dict[str, _Ticket] = {}
        self._slots: dict[str, _Slot] = {}  # slot id -> slot
        self._slot_by_key: dict[str, str] = {}  # cacheable hash -> slot id
        self._uncacheable = itertools.count()
        self._closed = False
        self.local_dispatch = bool(local_dispatch)
        self.max_lease_attempts = int(max_lease_attempts)
        self.worker_ttl_s = float(worker_ttl_s)
        self._workers: dict[str, _WorkerInfo] = {}
        self._expired_total = 0
        self._thread: threading.Thread | None = None
        if self.local_dispatch:
            self._thread = threading.Thread(target=self._local_worker,
                                            name="sweep-scheduler",
                                            daemon=True)
            self._thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, spec: SweepSpec,
               meta: Mapping[str, Any] | None = None) -> str:
        """Queue one sweep; returns its ticket id.

        Cache hits are recorded on the ticket immediately (a fully warm
        sweep completes before ``submit`` returns); the rest join the
        global queue, deduplicated against every other ticket's pending
        jobs by content hash.
        """
        if not isinstance(spec, SweepSpec):
            raise ConfigurationError(
                f"submit expects a SweepSpec, got {type(spec).__name__}"
            )
        jobs = spec.jobs()
        with self._lock:
            if self._closed:
                raise ConfigurationError("scheduler is shut down")
            # The hit/pending split runs under the scheduler lock:
            # commits (cache.put) hold the same lock, so a job can
            # never fall between "not yet cached" and "no longer
            # queued" — each unique content hash is computed exactly
            # once even under concurrent overlapping submissions.
            hits, _ = cache_split(jobs, self.cache)
            kinds = [job_kind(job) for job in jobs]
            costs = [estimate_job_cost(job) for job in jobs]
            ticket = _Ticket(
                id=uuid.uuid4().hex[:16],
                spec=spec,
                jobs=jobs,
                payloads=[hits.get(i) for i in range(len(jobs))],
                hits=[i in hits for i in range(len(jobs))],
                meta=dict(meta or {}),
                created_unix=time.time(),
                costs=costs,
                kinds=kinds,
                done=len(hits),
            )
            for i in hits:
                self._m_jobs.inc(kind=kinds[i], outcome="cached")
            self._tickets[ticket.id] = ticket
            self._prune_finished_locked()
            n_new = 0
            for i, job in enumerate(jobs):
                if ticket.payloads[i] is not None:
                    continue
                slot_id = (self._slot_by_key.get(job.key)
                           if job.cacheable else None)
                if slot_id is not None and slot_id in self._slots:
                    self._slots[slot_id].waiters.append((ticket.id, i))
                    continue
                slot_id = (job.key if job.cacheable
                           else f"once-{next(self._uncacheable)}")
                self._slots[slot_id] = _Slot(
                    job=job, cost=costs[i],
                    waiters=[(ticket.id, i)])
                if job.cacheable:
                    self._slot_by_key[job.key] = slot_id
                n_new += 1
            self._update_gauges_locked()
            self._event(ticket, {
                "event": "submitted",
                "total": ticket.total,
                "cache_hits": ticket.done,
                "pending": ticket.total - ticket.done,
                "deduplicated": ticket.total - ticket.done - n_new,
            })
            if ticket.done == ticket.total:
                self._finish_locked(ticket)
            else:
                ticket.state = RUNNING
                self._wakeup.notify_all()
            self._changed.notify_all()
        return ticket.id

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _update_gauges_locked(self) -> None:
        """Refresh queue-depth / in-flight / fleet gauges (lock held)."""
        if not telemetry.enabled():
            return
        queued = sum(1 for s in self._slots.values() if s.queued)
        self._m_queue_depth.set(queued)
        self._m_in_flight.set(len(self._slots) - queued)
        self._m_leases_active.set(len(self._slots) - queued)
        self._m_workers_active.set(self._active_workers_locked())

    def _local_worker(self) -> None:
        """The scheduler's own worker: claim, execute, commit, repeat.

        Its leases never expire, so a claim whose result never arrives
        (the executor raised or skipped it) is failed here: nothing
        else would retire it.
        """
        while True:
            with self._lock:
                while not self._closed and not any(
                        s.queued for s in self._slots.values()):
                    self._wakeup.wait()
                if self._closed:
                    return
                claims = self._claim_locked(LOCAL_WORKER, len(self._slots),
                                            math.inf)
            # Grouped jobs share a cost (it is a function of the spec
            # alone) and claims keep a scenario's jobs adjacent, so the
            # groups stay in longest-first order.
            groups = group_by_scenario(claims, lambda claim: claim.job)
            unsettled = {claim.slot: claim for claim in claims}

            def _commit(pos: int, results: list) -> None:
                for claim, (payload, error) in zip(groups[pos], results):
                    if error is None:
                        self.complete_lease(LOCAL_WORKER, claim.slot,
                                            claim.token, claim.key, payload)
                    else:
                        self.fail_lease(LOCAL_WORKER, claim.slot,
                                        claim.token, claim.key, error)
                    del unsettled[claim.slot]

            reason = "executor returned no result for this job"
            round_start = time.perf_counter()
            try:
                with telemetry.span("dispatch_round", jobs=len(claims),
                                    groups=len(groups)):
                    self.executor.run(
                        execute_group_isolated,
                        [[claim.job for claim in group] for group in groups],
                        on_result=_commit)
            except Exception as exc:  # noqa: BLE001 — executor-level error
                reason = f"{type(exc).__name__}: {exc}"
            self._m_round.observe(time.perf_counter() - round_start)
            for claim in unsettled.values():
                self.fail_lease(LOCAL_WORKER, claim.slot, claim.token,
                                claim.key, reason)

    def _commit_slot_locked(self, slot_id: str, payload: dict,
                            error: str | None) -> None:
        """Commit one leased slot's result to its waiters (lock held).

        The single funnel behind :meth:`complete_lease` and
        :meth:`fail_lease` (``error`` set, ``payload`` empty), its only
        callers — so caching, calibration, events and fan-out cannot
        diverge between the local worker and the fleet.
        """
        slot = self._slots.pop(slot_id)
        job = slot.job
        kind = job_kind(job)
        self._record_flight_locked(slot, payload, error)
        if error is not None:
            if job.cacheable:
                self._slot_by_key.pop(job.key, None)
            self._m_jobs.inc(kind=kind, outcome="failed")
            self._update_gauges_locked()
            self._log.warning("job failed", key=job.key,
                              worker_id=slot.leased_to, error=error)
            self._fail_waiters_locked(slot.waiters, error)
            self._changed.notify_all()
            return
        self._m_jobs.inc(kind=kind, outcome="computed")
        self._update_gauges_locked()
        wall = payload.get("wall_time_s")
        # Cache hits never enter a slot, but a fleet upload comes from
        # outside the program: one tagged ``cached`` replays an older
        # compute's wall time, which must never reach the calibrator.
        if (not payload.get("cached") and isinstance(wall, (int, float))
                and wall > 0.0):
            self.calibrator.observe(kind, slot.cost, float(wall))
            self._m_job_wall.observe(float(wall), kind=kind)
        if job.cacheable:
            self._slot_by_key.pop(job.key, None)
            owner = self._tickets.get(slot.waiters[0][0])
            tags = dict(owner.spec.tags) if owner is not None else {}
            meta = owner.meta if owner is not None else {}
            self.cache.put(job.key, payload,
                           metadata=job.cache_metadata(tags or meta))
        for ticket_id, index in slot.waiters:
            ticket = self._tickets.get(ticket_id)
            if ticket is None or ticket.payloads[index] is not None:
                continue
            ticket.payloads[index] = payload
            ticket.done += 1
            self._event(ticket, {
                "event": "point",
                "scenario": job.scenario.name,
                "frequency_hz": float(job.frequency_hz),
                "estimator": job.estimator_label,
                "key": job.key,
                "mean": payload["mean"],
                "done": ticket.done,
                "total": ticket.total,
            })
            if payload.get("spans"):
                # Worker-recorded solver/job spans ride the payload;
                # surfaced as their own event so the NDJSON stream
                # carries traces without bloating every "point".
                self._event(ticket, {
                    "event": "trace",
                    "key": job.key,
                    "scenario": job.scenario.name,
                    "spans": list(payload["spans"]),
                })
            if ticket.done == ticket.total:
                self._finish_locked(ticket)
        self._changed.notify_all()

    def _record_flight_locked(self, slot: _Slot, payload: dict,
                              error: str | None) -> None:
        """Append one committed slot's flight record to its tickets.

        Captures the wall-clock phase boundaries (queued -> claimed ->
        committed), the executing worker (``LOCAL_WORKER`` in-process) and
        a *copy* of the worker's job spans — the payload itself is
        never touched, so fleet bit-identity cannot be perturbed.
        """
        now = time.time()
        record = {
            "key": slot.job.key,
            "scenario": slot.job.scenario.name,
            "worker": slot.leased_to,
            "queued_unix": slot.queued_unix,
            "claimed_unix": slot.claimed_unix,
            "committed_unix": now,
            "lease_attempts": slot.lease_attempts,
            "wall_time_s": payload.get("wall_time_s"),
            "error": error,
            "spans": [dict(s) for s in payload.get("spans") or ()],
        }
        for ticket_id, _ in slot.waiters:
            ticket = self._tickets.get(ticket_id)
            if ticket is not None:
                ticket.flight.append(record)

    def _fail_waiters_locked(self, waiters: list[tuple[str, int]],
                      message: str) -> None:
        """Fail every live ticket waiting on one slot (lock held)."""
        for ticket_id, _ in waiters:
            ticket = self._tickets.get(ticket_id)
            if ticket is None or ticket.state in (COMPLETE, FAILED):
                continue
            ticket.state = FAILED
            ticket.error = message
            ticket.finished_unix = time.time()
            ticket.finished_monotonic = time.monotonic()
            self._event(ticket, {"event": "failed", "error": message})

    def _drop_slot_locked(self, slot_id: str, message: str) -> None:
        """Retire a slot no one will run; its waiters fail (lock held)."""
        slot = self._slots.pop(slot_id)
        if slot.job.cacheable:
            self._slot_by_key.pop(slot.job.key, None)
        if telemetry.enabled():
            self._m_jobs.inc(kind=job_kind(slot.job), outcome="failed")
        self._fail_waiters_locked(slot.waiters, message)

    def _finish_locked(self, ticket: _Ticket) -> None:
        ticket.state = COMPLETE
        ticket.finished_unix = time.time()
        ticket.finished_monotonic = time.monotonic()
        self._event(ticket, {
            "event": "complete",
            "total": ticket.total,
            "cache_hits": sum(ticket.hits),
            "wall_time_s": (ticket.finished_monotonic
                            - ticket.created_monotonic),
        })

    def _prune_finished_locked(self) -> None:
        """Bound ticket history: drop the oldest finished tickets once
        more than ``max_finished_tickets`` have completed/failed (their
        results stay replayable through the cache)."""
        finished = [t for t in self._tickets.values()
                    if t.state in (COMPLETE, FAILED)]
        if len(finished) <= self.max_finished_tickets:
            return
        finished.sort(key=lambda t: t.finished_unix or 0.0)
        for t in finished[:len(finished) - self.max_finished_tickets]:
            self._tickets.pop(t.id, None)

    @staticmethod
    def _event(ticket: _Ticket, event: dict) -> None:
        event["ticket"] = ticket.id
        event["seq"] = len(ticket.events)
        event["time_unix"] = time.time()
        ticket.events.append(event)

    # ------------------------------------------------------------------
    # Fleet lease protocol
    # ------------------------------------------------------------------

    def _touch_worker_locked(self, worker_id: str) -> _WorkerInfo:
        info = self._workers.get(worker_id)
        now_unix, now_mono = time.time(), time.monotonic()
        if info is None:
            info = _WorkerInfo(id=worker_id, first_seen_unix=now_unix,
                               last_seen_unix=now_unix,
                               last_seen_monotonic=now_mono)
            self._workers[worker_id] = info
        else:
            info.last_seen_unix = now_unix
            info.last_seen_monotonic = now_mono
        return info

    def _active_workers_locked(self) -> int:
        """Workers holding a lease or heard from within the TTL."""
        leased = {s.leased_to for s in self._slots.values() if not s.queued}
        now = time.monotonic()
        return sum(1 for w in self._workers.values()
                   if w.id in leased
                   or now - w.last_seen_monotonic <= self.worker_ttl_s)

    def _reclaim_expired_locked(self) -> int:
        """Re-queue every slot whose lease deadline passed (lock held).

        Each reclaim rotates the slot's token (so the late worker's
        eventual upload is recognized as stale and dropped) and, past
        ``max_lease_attempts`` or after shutdown, fails the waiters
        instead of re-queuing a job that keeps killing workers or that
        no one can claim. Returns the reclaim count.
        """
        now = time.monotonic()
        reclaimed = 0
        for slot_id, slot in list(self._slots.items()):
            if slot.queued or now < slot.lease_deadline:
                continue
            reclaimed += 1
            self._expired_total += 1
            self._m_leases.inc(outcome="expired")
            # A worker holding a lease is never pruned from the registry.
            self._workers[slot.leased_to].expired += 1
            self._recent_expirations.append({
                "time_unix": time.time(),
                "worker": slot.leased_to,
                "key": slot.job.key,
                "attempts": slot.lease_attempts,
            })
            self._log.warning("lease expired", key=slot.job.key,
                              worker_id=slot.leased_to,
                              attempts=slot.lease_attempts)
            slot.leased_to = None
            slot.lease_token = None
            slot.lease_deadline = None
            if self._closed:
                self._drop_slot_locked(slot_id, "scheduler shut down")
            elif slot.lease_attempts >= self.max_lease_attempts:
                self._drop_slot_locked(slot_id, (
                    f"lease expired {slot.lease_attempts} times "
                    f"(max_lease_attempts={self.max_lease_attempts})"))
            else:
                slot.queued = True
                slot.queued_monotonic = now
        if reclaimed:
            self._update_gauges_locked()
            self._wakeup.notify_all()  # the local worker may claim them
            self._changed.notify_all()
        return reclaimed

    def claim_jobs(self, worker_id: str, max_jobs: int = 1,
                   lease_s: float = 30.0) -> list[WorkerClaim]:
        """Lease up to ``max_jobs`` queued computations to a fleet worker.

        Claims come out longest-first by cost, with same-scenario jobs
        adjacent so one claim batch tends to hold whole frequency stacks
        the worker can execute fused. Each claim carries a fresh opaque
        token the worker must echo back on heartbeat/commit. An empty
        list means the queue is drained. ``LOCAL_WORKER`` is reserved.
        """
        if not worker_id:
            raise ConfigurationError("claim needs a non-empty worker id")
        if worker_id == LOCAL_WORKER:
            raise ConfigurationError(f"worker id {LOCAL_WORKER!r} is reserved")
        max_jobs = max(1, min(int(max_jobs), 256))
        lease_s = float(lease_s)
        if not 0.0 < lease_s <= 3600.0:
            raise ConfigurationError(
                f"lease_s must be in (0, 3600], got {lease_s}"
            )
        with self._lock:
            if self._closed:
                raise ConfigurationError("scheduler is shut down")
            return self._claim_locked(worker_id, max_jobs, lease_s)

    def _claim_locked(self, worker_id: str, max_jobs: int,
                      lease_s: float) -> list[WorkerClaim]:
        """Lease queued slots to a worker (lock held): the one claim
        path, shared by :meth:`claim_jobs` and the local worker."""
        self._reclaim_expired_locked()
        worker = self._touch_worker_locked(worker_id)
        queued = [(sid, s) for sid, s in self._slots.items() if s.queued]
        # Longest-first, with the scenario hash as tie-break: jobs of
        # one scenario share a cost, so the secondary key keeps a
        # frequency stack adjacent and a claim batch tends to carry
        # whole groups the worker can fuse.
        queued.sort(key=lambda pair: (-pair[1].cost,
                                      pair[1].job.scenario.key))
        now = time.monotonic()
        claims: list[WorkerClaim] = []
        now_unix = time.time()
        for slot_id, slot in queued[:max_jobs]:
            slot.queued = False
            slot.claimed_unix = now_unix
            slot.leased_to = worker_id
            slot.lease_token = uuid.uuid4().hex
            slot.lease_deadline = now + lease_s
            slot.lease_attempts += 1
            self._m_queue_wait.observe(now - slot.queued_monotonic)
            self._m_leases.inc(outcome="claimed")
            worker.claimed += 1
            claims.append(WorkerClaim(
                slot=slot_id, token=slot.lease_token,
                key=slot.job.key, lease_s=lease_s, job=slot.job))
        if claims:
            self._update_gauges_locked()
        return claims

    def heartbeat(self, worker_id: str, slots: Mapping[str, str],
                  lease_s: float = 30.0,
                  telemetry_snapshot: WorkerTelemetry | None = None,
                  ) -> dict[str, bool]:
        """Extend the worker's leases; returns per-slot aliveness.

        ``slots`` maps slot id -> lease token. A False entry means the
        lease was lost (expired and reclaimed, or committed elsewhere);
        the worker should abandon that job and skip its upload.

        ``telemetry_snapshot`` (optional: a worker ships it only when
        its telemetry is enabled) is the worker's federated telemetry:
        its metric snapshot and fresh log records merge into
        :attr:`federation`, which backs the fleet half of
        ``GET /v1/metrics`` and the ``/v1/workers/<id>`` / ``/v1/logs``
        endpoints.
        """
        lease_s = float(lease_s)
        if not 0.0 < lease_s <= 3600.0:
            raise ConfigurationError(
                f"lease_s must be in (0, 3600], got {lease_s}"
            )
        with self._lock:
            self._reclaim_expired_locked()
            self._touch_worker_locked(worker_id)
            now = time.monotonic()
            alive: dict[str, bool] = {}
            for slot_id, token in slots.items():
                slot = self._slots.get(slot_id)
                ok = (slot is not None and not slot.queued
                      and slot.leased_to == worker_id
                      and slot.lease_token == token)
                if ok:
                    slot.lease_deadline = now + lease_s
                alive[slot_id] = ok
        # Federation has its own lock; merging outside the scheduler
        # lock keeps snapshot-sized work off the lease hot path.
        if telemetry_snapshot is not None:
            self.federation.ingest(
                worker_id,
                metrics=telemetry_snapshot.metrics or None,
                logs=telemetry_snapshot.logs,
                stats=telemetry_snapshot.stats,
                time_unix=telemetry_snapshot.time_unix,
            )
        return alive

    def _verify_lease_locked(self, worker_id: str, slot_id: str,
                             token: str, key: str) -> _Slot | None:
        """Validate a commit's lease; None means benignly stale.

        Deliberately lenient about the deadline: an expired-but-not-yet
        -reclaimed lease still commits (the work is deterministic and
        correct — dropping it would only waste a re-execution). Only a
        reclaim, which rotates the token, makes the old lease stale. A
        key mismatch is never stale — it is a protocol violation and
        raises.
        """
        slot = self._slots.get(slot_id)
        if (slot is None or slot.queued or slot.leased_to != worker_id
                or slot.lease_token != token):
            return None
        if key and slot.job.key != key:
            raise ConfigurationError(
                f"content-hash mismatch on slot {slot_id}: lease is for "
                f"{slot.job.key}, result claims {key}"
            )
        return slot

    def complete_lease(self, worker_id: str, slot_id: str, token: str,
                       key: str, payload: dict) -> str:
        """Commit a leased job's payload; 'committed' or 'stale'.

        A payload missing a field :meth:`result` reads is refused before
        the lease is verified or any state touched, so the lease stays
        live for a correct upload. A stale commit (lease reclaimed,
        token rotated, slot already retired) is dropped benignly — the
        re-leased execution is the one that counts.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"complete expects a payload dict, got "
                f"{type(payload).__name__}"
            )
        missing = [name for name in _PAYLOAD_FIELDS if name not in payload]
        if missing:
            raise ConfigurationError(f"payload for content-hash {key} lacks "
                                     f"{', '.join(missing)}")
        with self._lock:
            slot = self._verify_lease_locked(worker_id, slot_id, token, key)
            worker = self._touch_worker_locked(worker_id)
            if slot is None:
                self._m_leases.inc(outcome="stale")
                return "stale"
            worker.completed += 1
            wall = payload.get("wall_time_s")
            if isinstance(wall, (int, float)) and wall > 0.0:
                rate = slot.cost / float(wall)
                worker.rate_ewma = (rate if worker.rate_n == 0 else
                                    _RATE_ALPHA * rate
                                    + (1.0 - _RATE_ALPHA)
                                    * worker.rate_ewma)
                worker.rate_n += 1
            self._m_leases.inc(outcome="committed")
            self._commit_slot_locked(slot_id, payload, None)
            return "committed"

    def fail_lease(self, worker_id: str, slot_id: str, token: str,
                   key: str, error: str) -> str:
        """Report a leased job's execution failure; 'committed'|'stale'.

        Only the tickets waiting on this job fail. The local worker
        reports the per-job errors of
        :func:`~repro.engine.runtime.execute_group_isolated` here too.
        """
        with self._lock:
            slot = self._verify_lease_locked(worker_id, slot_id, token, key)
            worker = self._touch_worker_locked(worker_id)
            if slot is None:
                self._m_leases.inc(outcome="stale")
                return "stale"
            worker.failed += 1
            self._m_leases.inc(outcome="failed")
            self._commit_slot_locked(
                slot_id, {}, str(error) or "worker-reported failure")
            return "committed"

    def fleet_snapshot(self) -> dict:
        """JSON-ready fleet health: workers, leases, queue depth.

        Runs a reclaim pass first (the fleet endpoints and ``healthz``
        are the lease path's clock), then prunes workers past the TTL
        that hold no lease.
        """
        with self._lock:
            self._reclaim_expired_locked()
            now = time.monotonic()
            leased_by: dict[str, int] = {}
            for s in self._slots.values():
                if not s.queued:
                    leased_by[s.leased_to] = leased_by.get(s.leased_to, 0) + 1
            for wid, info in list(self._workers.items()):
                if (wid not in leased_by
                        and now - info.last_seen_monotonic
                        > self.worker_ttl_s):
                    del self._workers[wid]
            queued = sum(1 for s in self._slots.values() if s.queued)
            # Straggler detection: a worker whose EWMA throughput (in
            # relative cost units/s, so only comparable across workers)
            # sits below _SLOW_FACTOR x the fleet median is flagged and
            # its repro_fleet_worker_slow gauge raised. Needs >= 2
            # measured workers — one worker has no peer to lag behind.
            rates = sorted(w.rate_ewma for w in self._workers.values()
                           if w.rate_n > 0)
            median = (rates[len(rates) // 2] if len(rates) % 2 else
                      0.5 * (rates[len(rates) // 2 - 1]
                             + rates[len(rates) // 2])) if rates else 0.0
            slow_ids = set()
            if len(rates) >= 2 and median > 0.0:
                slow_ids = {w.id for w in self._workers.values()
                            if w.rate_n > 0
                            and w.rate_ewma < _SLOW_FACTOR * median}
            for w in self._workers.values():
                self._m_worker_slow.set(1.0 if w.id in slow_ids else 0.0,
                                        worker=w.id)
            workers = [
                {
                    "id": w.id,
                    "first_seen_unix": w.first_seen_unix,
                    "last_seen_unix": w.last_seen_unix,
                    "leases_held": leased_by.get(w.id, 0),
                    "claimed": w.claimed,
                    "completed": w.completed,
                    "failed": w.failed,
                    "expired": w.expired,
                    "rate_ewma": w.rate_ewma,
                    "slow": w.id in slow_ids,
                }
                for w in sorted(self._workers.values(),
                                key=lambda w: w.first_seen_unix)
            ]
            return {
                "workers": workers,
                "workers_active": self._active_workers_locked(),
                "leases_active": sum(leased_by.values()),
                "leases_expired_total": self._expired_total,
                "recent_expirations": list(self._recent_expirations),
                "queue_depth": queued,
                "jobs_in_flight": len(self._slots) - queued,
                "local_dispatch": self.local_dispatch,
            }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _ticket_locked(self, ticket_id: str) -> _Ticket:
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise KeyError(ticket_id)
        return ticket

    def _eta_s_locked(self, t: _Ticket) -> float | None:
        """Predicted seconds until ``t`` completes (lock held).

        Sums the calibrator's per-kind wall-clock predictions over the
        still-undone points and divides by the executor's width (a
        parallel backend retires that many at once, to first order).
        ``0.0`` once the ticket is terminal; ``None`` while any pending
        kind has no observations yet — an honest "unknown" beats a
        made-up number.
        """
        if t.state in (COMPLETE, FAILED):
            return 0.0
        total = 0.0
        for i in range(t.total):
            if t.payloads[i] is not None:
                continue
            pred = self.calibrator.predict(t.kinds[i], t.costs[i])
            if pred is None:
                return None
            total += pred
        width = max(int(getattr(self.executor, "n_jobs", 1) or 1), 1)
        return total / width

    def status(self, ticket_id: str) -> dict:
        """JSON-ready snapshot of one ticket's progress."""
        with self._lock:
            t = self._ticket_locked(ticket_id)
            points = [
                {
                    "scenario": job.scenario.name,
                    "frequency_hz": float(job.frequency_hz),
                    "estimator": job.estimator_label,
                    "key": job.key,
                    "done": t.payloads[i] is not None,
                    "cache_hit": t.hits[i],
                    "mean": (t.payloads[i]["mean"]
                             if t.payloads[i] is not None else None),
                }
                for i, job in enumerate(t.jobs)
            ]
            return {
                "id": t.id,
                "state": t.state,
                "done": t.done,
                "total": t.total,
                "cache_hits": sum(t.hits),
                "error": t.error,
                "eta_s": self._eta_s_locked(t),
                "meta": dict(t.meta),
                "created_unix": t.created_unix,
                "finished_unix": t.finished_unix,
                "points": points,
            }

    def trace(self, ticket_id: str) -> dict:
        """One merged Chrome trace of the ticket's flight records.

        Lays the sweep's wall-clock out across processes: the server
        lane carries each computation's **queue-wait** (submit ->
        claim), and each executing worker's lane (``LOCAL_WORKER`` for
        in-process execution) carries its **lease** window (claim ->
        commit), the worker-recorded **solve** spans that rode the
        payload, and the **upload** tail (solve end -> commit). A
        ``job`` span, or the ``job_group`` span of a frequency stack
        (which rides its first member's payload), ends the solve; a
        payload without spans gets a solve synthesized from its
        wall-time share. Lanes are synthetic pids named via
        ``worker_id`` (:func:`repro.telemetry.chrome_trace`), so a
        fleet of threads sharing one OS pid still renders as separate
        worker rows. Viewable in ``chrome://tracing`` / Perfetto as-is.
        """
        with self._lock:
            t = self._ticket_locked(ticket_id)
            flights = list(t.flight)
            state = t.state
        lanes: dict[str, int] = {"server": 1}
        records: list[dict] = []
        for f in flights:
            worker = f["worker"]
            pid = lanes.setdefault(worker, len(lanes) + 1)
            queued = float(f["queued_unix"])
            claimed = float(f["claimed_unix"])
            committed = float(f["committed_unix"])
            args = {"key": f.get("key"), "scenario": f.get("scenario"),
                    "ticket": ticket_id}
            records.append({
                "name": "queue-wait", "start_unix": queued,
                "duration_s": max(claimed - queued, 0.0),
                "pid": lanes["server"], "tid": 0,
                "worker_id": "server", "meta": args})
            records.append({
                "name": "lease", "start_unix": claimed,
                "duration_s": max(committed - claimed, 0.0),
                "pid": pid, "tid": 1, "worker_id": worker,
                "meta": dict(args, attempts=f.get("lease_attempts"),
                             error=f.get("error"))})
            solve_end = None
            for s in f.get("spans") or ():
                rec = dict(s)
                rec["pid"] = pid
                rec["worker_id"] = worker
                records.append(rec)
                if rec.get("name") in ("job", "job_group"):
                    solve_end = (float(rec["start_unix"])
                                 + float(rec["duration_s"]))
            wall = f.get("wall_time_s")
            if (solve_end is None and isinstance(wall, (int, float))
                    and wall > 0.0):
                # Telemetry was off on the executing side: synthesize
                # the solve phase from the reported wall time.
                records.append({
                    "name": "solve", "start_unix": claimed,
                    "duration_s": float(wall), "pid": pid, "tid": 0,
                    "worker_id": worker, "meta": args})
                solve_end = min(claimed + float(wall), committed)
            if solve_end is not None:
                records.append({
                    "name": "upload", "start_unix": solve_end,
                    "duration_s": max(committed - solve_end, 0.0),
                    "pid": pid, "tid": 1, "worker_id": worker,
                    "meta": args})
        return {
            "traceEvents": telemetry.chrome_trace(records),
            "displayTimeUnit": "ms",
            "metadata": {"ticket": ticket_id, "state": state,
                         "records": len(flights)},
        }

    def events(self, ticket_id: str, since: int = 0,
               timeout: float | None = None) -> tuple[list[dict], bool]:
        """Events after sequence ``since`` (long-poll up to ``timeout``).

        Returns ``(events, finished)``; with a timeout, blocks until a
        new event arrives, the ticket finishes, or the timeout expires.
        A negative ``since`` is rejected: as a slice start it would count
        from the end and replay events the cursor has passed.
        """
        if since < 0:
            raise ConfigurationError(f"'since' must be >= 0, got {since}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            t = self._ticket_locked(ticket_id)
            while True:
                fresh = t.events[since:]
                finished = t.state in (COMPLETE, FAILED)
                if fresh or finished or deadline is None:
                    return list(fresh), finished
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._changed.wait(remaining)

    def wait(self, ticket_id: str, timeout: float | None = None) -> bool:
        """Block until the ticket completes or fails; True if it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            t = self._ticket_locked(ticket_id)
            while t.state not in (COMPLETE, FAILED):
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._changed.wait(remaining)
            return True

    def result(self, ticket_id: str) -> SweepResult:
        """Assemble the completed ticket's :class:`SweepResult`.

        Its points come from :meth:`PointResult.from_payload`, as
        :func:`repro.engine.run_batch`'s do, so a service-side sweep of
        a spec equals the in-process result bit-for-bit (modulo wall
        time and executor provenance).
        """
        with self._lock:
            t = self._ticket_locked(ticket_id)
            if t.state == FAILED:
                raise ConfigurationError(
                    f"sweep {ticket_id} failed: {t.error}"
                )
            if t.state != COMPLETE:
                raise ConfigurationError(
                    f"sweep {ticket_id} is {t.state} "
                    f"({t.done}/{t.total} points)"
                )
            points = tuple(
                PointResult.from_payload(job, payload, hit)
                for job, payload, hit in zip(t.jobs, t.payloads, t.hits)
            )
            return SweepResult(
                frequencies_hz=t.spec.frequencies_hz,
                points=points,
                tags=dict(t.spec.tags),
                executor=f"service:{self.executor.name}",
                wall_time_s=((t.finished_monotonic or t.created_monotonic)
                             - t.created_monotonic),
            )

    def tickets(self) -> list[dict]:
        """Summaries of every ticket (newest first)."""
        with self._lock:
            out = [{"id": t.id, "state": t.state, "done": t.done,
                    "total": t.total, "meta": dict(t.meta),
                    "created_unix": t.created_unix}
                   for t in self._tickets.values()]
        out.sort(key=lambda d: d["created_unix"], reverse=True)
        return out

    def telemetry_snapshot(self) -> dict:
        """One atomic, JSON-ready view of queue health + calibration.

        ``GET /v1/metrics`` refreshes its scheduler gauges from this
        (lock-consistent, unlike reading the pieces one by one).
        """
        with self._lock:
            queued = sum(1 for s in self._slots.values() if s.queued)
            states: dict[str, int] = {}
            for t in self._tickets.values():
                states[t.state] = states.get(t.state, 0) + 1
            return {
                "queue_depth": queued,
                "jobs_in_flight": len(self._slots) - queued,
                "tickets": states,
                "calibration": self.calibrator.snapshot(),
            }

    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the local worker and fail every queued job: no one can
        claim after shutdown. A fleet lease that expires later fails
        too; leased work, local or fleet, still commits."""
        with self._lock:
            self._closed = True
            for slot_id in [sid for sid, s in self._slots.items()
                            if s.queued]:
                self._drop_slot_locked(slot_id, "scheduler shut down")
            self._update_gauges_locked()
            self._wakeup.notify_all()
            self._changed.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
