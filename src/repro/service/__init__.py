"""Async sweep service: the engine as a long-running multi-client server.

Chen & Wong's SSCM turns each loss statistic into a small set of
content-addressed solver jobs — exactly the shape a shared,
cache-fronted compute service exploits. This subsystem stacks four
layers over :mod:`repro.engine`, the first place the engine outlives a
single process:

- :mod:`.wire` — versioned JSON wire format; ``SweepSpec``/``Job``/
  ``SweepResult`` cross process and machine boundaries with their
  content hashes (and array payloads) intact.
- :mod:`.scheduler` — :class:`SweepScheduler`, an async job queue over
  :func:`repro.engine.cache_split`'s hit/pending split: hits answer
  immediately, pending jobs deduplicate globally by content hash
  (concurrent clients requesting overlapping figures share one solve
  per unique job) and are leased longest-first by the dense-solve
  ``O(n^3)`` cost model to workers; the scheduler's own ``local``
  worker runs its leases on any engine :class:`~repro.engine.Executor`.
- :mod:`.server` — stdlib-only streaming HTTP front-end
  (``POST /v1/sweeps``, NDJSON ``/events``, registry-backed
  ``/v1/experiments`` and ``/v1/cache`` stats). Start one with
  ``repro-experiments serve`` or :func:`repro.service.server.serve`.
- :mod:`.client` — :class:`ServiceClient`, the remote ``run_sweep``:
  every ticket is a sweep, submitted as a spec and read back as a
  decoded :class:`~repro.engine.SweepResult`, over persistent HTTP/1.1
  connections.

Pull workers (:mod:`repro.fleet`) speak the same lease protocol over
``/v1/workers/*`` — claim, heartbeat, upload — scaling one server
across machines; ``serve --fleet`` never starts the local worker.

Quickstart::

    # server: repro-experiments serve --port 8321 --jobs 4 \\
    #                                 --cache-dir ./sweep-cache
    from repro.service import ServiceClient
    import repro.api

    spec = repro.api.plan("fig3", scale="quick")
    with ServiceClient("http://127.0.0.1:8321") as client:
        result = client.run_sweep(spec)
"""

from .client import ServiceClient, ServiceUnavailable
from .scheduler import SweepScheduler, estimate_job_cost
from .server import ServiceError, SweepService, make_server, serve
from .wire import (
    WIRE_VERSION,
    WireError,
    WorkerClaim,
    WorkerResult,
    register_correlation,
)

__all__ = [
    "WIRE_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "SweepScheduler",
    "SweepService",
    "WireError",
    "WorkerClaim",
    "WorkerResult",
    "estimate_job_cost",
    "make_server",
    "register_correlation",
    "serve",
]
