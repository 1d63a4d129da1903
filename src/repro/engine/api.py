"""`run_sweep` / `run_batch` — the entry points of the execution engine.

Execution policy (executor + cache) is resolved per call:

1. explicit ``executor=`` / ``cache=`` arguments win;
2. otherwise the active :func:`engine_session` defaults apply (this is
   how ``runner.py --jobs N --cache-dir P`` reaches every sweep inside
   the experiments without threading arguments through them);
3. otherwise: serial execution against a process-global in-memory LRU,
   so repeated sweeps in one process are near-free even with no setup.

:func:`run_batch` executes several named sweeps as **one merged job
stream**: all pending jobs go to the executor as a single batch (so
parallelism spans experiments, not just one figure's points), cacheable
jobs that appear in more than one sweep are computed once, and the
optional ``batch_progress`` callback attributes completed points back to
the sweep that owns them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from .cache import ResultCache
from .executors import Executor, ParallelExecutor, SerialExecutor
from .results import PointResult, SweepResult
from .runtime import execute_job
from .spec import Job, SweepSpec

#: ``progress(done, total)`` — points finished so far, cache hits included.
ProgressFn = Callable[[int, int], None]

#: ``batch_progress(name, done, total)`` — per-sweep point attribution.
BatchProgressFn = Callable[[str, int, int], None]

#: Fallback cache when neither an argument nor a session provides one.
_GLOBAL_CACHE = ResultCache(max_memory_entries=256)


@dataclass(frozen=True)
class _SessionDefaults:
    executor: Executor | None = None
    cache: ResultCache | None = None


# Context-local, not module-global: concurrent callers (the threaded
# HTTP service, notebook background tasks) each get their own session
# stack, so one thread entering engine_session can never redirect
# another thread's sweeps to its executor/cache. Threads and asyncio
# tasks start from an empty Context, i.e. from the no-session default.
_SESSION: ContextVar[_SessionDefaults] = ContextVar(
    "repro_engine_session", default=_SessionDefaults())


def default_cache() -> ResultCache:
    """The process-global in-memory cache (tier 1 only)."""
    return _GLOBAL_CACHE


@contextmanager
def engine_session(n_jobs: int | None = None,
                   cache_dir: str | None = None,
                   executor: Executor | None = None,
                   cache: ResultCache | None = None) -> Iterator[None]:
    """Scope default execution policy for every ``run_sweep`` inside.

    ``n_jobs > 1`` selects a :class:`ParallelExecutor`; ``cache_dir``
    adds a persistent tier. Explicit ``executor``/``cache`` objects
    override the convenience knobs. Nested sessions inherit whatever
    the inner session leaves unspecified (setting only ``n_jobs``
    inside a ``cache_dir`` session keeps the outer cache).
    """
    if executor is None and n_jobs is not None:
        executor = (ParallelExecutor(n_jobs) if n_jobs > 1
                    else SerialExecutor())
    if cache is None and cache_dir is not None:
        cache = ResultCache(disk_dir=cache_dir)
    previous = _SESSION.get()
    if executor is None:
        executor = previous.executor
    if cache is None:
        cache = previous.cache
    token = _SESSION.set(_SessionDefaults(executor=executor, cache=cache))
    try:
        yield
    finally:
        _SESSION.reset(token)


def _resolve(executor: Executor | None,
             cache: ResultCache | None) -> tuple[Executor, ResultCache]:
    session = _SESSION.get()
    if executor is None:
        executor = (session.executor if session.executor is not None
                    else SerialExecutor())
    if cache is None:
        # NB: an *empty* ResultCache is falsy (it has __len__), so the
        # fallbacks must test identity, not truthiness.
        cache = session.cache if session.cache is not None \
            else _GLOBAL_CACHE
    return executor, cache


def cache_split(jobs: SweepSpec | Sequence[Job],
                cache: ResultCache | None = None
                ) -> tuple[dict[int, dict], list[Job]]:
    """Split a job stream into cache hits and pending computations.

    This is the scheduler core of :func:`run_sweep`/:func:`run_batch`,
    exposed for services that answer hits immediately and enqueue the
    rest (the async sweep service of :mod:`repro.service` is built on
    it). ``jobs`` is a :class:`SweepSpec` (its materialized job list is
    used) or an explicit job sequence; ``cache`` defaults to the active
    session's cache, like :func:`run_sweep`.

    Returns ``(hits, pending)``: ``hits`` maps job index -> cached
    payload dict, ``pending`` lists the jobs that still need an
    executor (non-cacheable jobs are always pending). Looking up a hit
    counts in the cache's stats, exactly as running the sweep would.
    """
    if isinstance(jobs, SweepSpec):
        jobs = jobs.jobs()
    _, cache = _resolve(None, cache)
    hits: dict[int, dict] = {}
    pending: list[Job] = []
    for i, job in enumerate(jobs):
        payload = cache.get(job.key) if job.cacheable else None
        if payload is not None:
            hits[i] = payload
        else:
            pending.append(job)
    return hits, pending


def run_batch(specs: Mapping[str, SweepSpec],
              executor: Executor | None = None,
              cache: ResultCache | None = None,
              progress: ProgressFn | None = None,
              batch_progress: BatchProgressFn | None = None
              ) -> dict[str, SweepResult]:
    """Execute several named sweeps as one merged, deduplicated batch.

    Cached points are served without any SWM solve; every remaining job
    — across all sweeps — goes to the executor as one batch, and each
    point commits to the cache the moment it finishes. A cacheable job
    appearing in more than one sweep (identical content hash) is
    executed once and fanned out to every owner; its cache entry's
    human-readable metadata records the *first* owner's tags (payloads
    are identical by construction, and tags never enter content
    hashes).

    ``progress(done, total)`` counts points over the whole batch (cache
    hits included); ``batch_progress(name, done, total)`` additionally
    attributes each completed point to the sweep that owns it. Every
    returned :class:`SweepResult` reports the batch's shared wall time.
    """
    executor, cache = _resolve(executor, cache)
    start = time.perf_counter()

    jobs_by_name = {name: spec.jobs() for name, spec in specs.items()}
    totals = {name: len(jobs) for name, jobs in jobs_by_name.items()}
    total = sum(totals.values())
    payloads = {name: [None] * n for name, n in totals.items()}
    hits = {name: [False] * n for name, n in totals.items()}
    done_in = dict.fromkeys(specs, 0)

    # One execution slot per distinct pending computation; a slot's
    # targets are every (sweep, point) its payload satisfies.
    slots: list[tuple] = []          # (job, [(name, index), ...])
    slot_by_key: dict[str, int] = {}  # cacheable job hash -> slot
    for name, jobs in jobs_by_name.items():
        for i, job in enumerate(jobs):
            if job.cacheable:
                cached = cache.get(job.key)
                if cached is not None:
                    payloads[name][i] = cached
                    hits[name][i] = True
                    done_in[name] += 1
                    continue
                slot_idx = slot_by_key.get(job.key)
                if slot_idx is not None:
                    slots[slot_idx][1].append((name, i))
                    continue
                slot_by_key[job.key] = len(slots)
            slots.append((job, [(name, i)]))

    done_points = sum(done_in.values())
    if done_points:
        if progress is not None:
            progress(done_points, total)
        if batch_progress is not None:
            for name, done in done_in.items():
                if done:
                    batch_progress(name, done, totals[name])

    if slots:
        def _commit(slot_idx: int, payload: dict) -> None:
            # Committed per result as it arrives, so a batch that dies
            # midway (worker error, Ctrl-C) keeps everything finished.
            nonlocal done_points
            job, targets = slots[slot_idx]
            if job.cacheable:
                owner, _ = targets[0]
                cache.put(job.key, payload,
                          metadata=job.cache_metadata(specs[owner].tags))
            for name, i in targets:
                payloads[name][i] = payload
                done_in[name] += 1
            done_points += len(targets)
            if progress is not None:
                progress(done_points, total)
            if batch_progress is not None:
                for name in dict.fromkeys(name for name, _ in targets):
                    batch_progress(name, done_in[name], totals[name])

        executor.run(execute_job, [job for job, _ in slots],
                     on_result=_commit)

    wall = time.perf_counter() - start
    results: dict[str, SweepResult] = {}
    for name, spec in specs.items():
        points = tuple(
            PointResult.from_payload(job, payload, hit)
            for job, payload, hit in zip(jobs_by_name[name],
                                         payloads[name], hits[name]))
        results[name] = SweepResult(
            frequencies_hz=spec.frequencies_hz,
            points=points,
            tags=dict(spec.tags),
            executor=executor.name,
            wall_time_s=wall,
        )
    return results


def run_sweep(spec: SweepSpec, executor: Executor | None = None,
              cache: ResultCache | None = None,
              progress: ProgressFn | None = None) -> SweepResult:
    """Execute (or replay from cache) every job of one sweep.

    Cached points are served without any SWM solve; the remaining jobs
    go to the executor as one batch. ``progress(done, total)`` counts
    sweep points, cache hits included.
    """
    if not isinstance(spec, SweepSpec):
        raise ConfigurationError(
            f"run_sweep expects a SweepSpec, got {type(spec).__name__}"
        )
    return run_batch({"sweep": spec}, executor=executor, cache=cache,
                     progress=progress)["sweep"]
