"""repro.telemetry — metrics, span tracing, and cost calibration.

The observability layer of the stack, stdlib only and **off by
default**: with telemetry disabled every :func:`span` and metric update
is a flag check, so library users and benchmarks pay nothing. The sweep
service (:mod:`repro.service.server`) and the experiments runner's
``--profile``/``--trace-out`` flags enable it; set ``REPRO_TELEMETRY=1``
to enable it anywhere else.

Three pieces:

- :mod:`~repro.telemetry.metrics` — thread-safe, label-aware counters,
  gauges and fixed-bucket histograms on a process-global registry,
  rendered in Prometheus text format (``GET /v1/metrics``);
- :mod:`~repro.telemetry.tracing` — ``with span("assemble"): ...``
  section timing inside the solvers, engine jobs, scheduler rounds and
  HTTP handlers; finished spans are JSON-ready dicts that ride job
  payloads across processes and the wire, feed the ``trace`` events on
  the NDJSON stream, and export as Chrome trace JSON;
- :mod:`~repro.telemetry.calibration` — the online per-scenario-kind
  regression that turns the scheduler's relative ``evals x N^3`` cost
  model into wall-clock ETAs on ticket status responses;
- :mod:`~repro.telemetry.logs` — structured JSON-lines logging with
  levels, a bounded ring buffer, and bindable correlation fields
  (worker_id, lease token, job hash, ticket id) behind
  ``GET /v1/logs``;
- :mod:`~repro.telemetry.federation` — the server-side merge of worker
  heartbeat telemetry (wire v4): per-worker-labeled metric series on
  ``GET /v1/metrics`` and fleet-merged logs, deduplicated by the log
  buffer's monotonic ``seq``.
"""

from .state import enable, disable, enabled
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    render_prometheus,
)
from .tracing import (
    chrome_trace,
    phase_stats,
    record_spans,
    reset_tracing,
    span,
)
from .calibration import CostCalibrator
from .metrics import parse_prometheus
from .logs import (
    GLOBAL_BUFFER,
    LEVELS,
    LogBuffer,
    StructuredLogger,
    format_human,
    get_logger,
    level_rank,
    stderr_logger,
)
from .federation import FederatedTelemetry

__all__ = [
    "enable", "disable", "enabled",
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "REGISTRY", "counter", "gauge", "histogram", "render_prometheus",
    "parse_prometheus",
    "chrome_trace", "phase_stats", "record_spans",
    "reset_tracing", "span",
    "CostCalibrator",
    "GLOBAL_BUFFER", "LEVELS", "LogBuffer", "StructuredLogger",
    "format_human", "get_logger", "level_rank", "stderr_logger",
    "FederatedTelemetry",
]
