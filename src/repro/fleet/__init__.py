"""Pull-based worker fleet over the sweep service's job leases.

:mod:`repro.service` made the engine a shared server; this package
makes it *horizontally scalable*. The scheduler's global deduplicating
queue is claimable over HTTP (``POST /v1/workers/claim`` leases jobs,
heartbeats keep them, ``POST /v1/workers/result`` commits), and
:class:`FleetWorker` is the pull loop that lives on the other end:
claim a batch, execute each same-scenario group of jobs as one
frequency stack (:func:`repro.engine.runtime.execute_group_isolated`)
on a local thread pool (the solver's LAPACK calls release the GIL),
upload the payloads, repeat until drained or told to stop.

The protocol is crash-safe by leasing, not by trust: a worker that
dies silently simply stops heartbeating, its leases expire, and the
scheduler re-queues the jobs for the next claimant — with a rotated
lease token, so if the "dead" worker comes back and uploads late, the
stale commit is recognized and dropped. Content hashes ride every
lease and are verified on commit, and in-process execution is itself a
worker of this protocol (the scheduler's ``local`` worker), so fleet
and local results take one path to the commit. The jobs are
deterministic, so a fleet-executed sweep is bit-identical to a local
one no matter how many workers died along the way.

Run a fleet from the CLI::

    repro-experiments serve --fleet --port 8321 --cache-dir ./cache
    repro-experiments worker --server http://host:8321 --concurrency 4
    repro-experiments worker --server http://host:8321 --concurrency 4

Set ``REPRO_SERVICE_TOKEN`` on both ends to require bearer auth on
every mutating endpoint.

Workers keep no results of their own: every payload is uploaded, and
the server's :class:`~repro.engine.ResultCache` (its ``--cache-dir``)
is the one place results persist.
"""

from ..service.wire import WorkerClaim, WorkerResult, WorkerTelemetry
from .top import fetch_view, render_view
from .worker import FleetWorker

__all__ = [
    "FleetWorker",
    "WorkerClaim",
    "WorkerResult",
    "WorkerTelemetry",
    "fetch_view",
    "render_view",
]
