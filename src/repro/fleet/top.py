"""``repro-experiments top`` — a polling terminal fleet dashboard.

A read-only loop over the service's public observability endpoints
(``/v1/healthz``, ``/v1/workers``, ``/v1/metrics``, ``/v1/logs`` and
the sweep list): queue depth, per-worker throughput and straggler
flags, running sweeps with their ETAs, the cache hit ratio, and the
most recent warning-or-worse log records — one screen, refreshed every
``interval`` seconds.

Split deliberately into :func:`fetch_view` (HTTP -> plain dict) and
:func:`render_view` (dict -> string) so tests can exercise the layout
without a server, and other frontends can reuse the snapshot.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

from .. import telemetry
from ..errors import ReproError
from ..service.client import ServiceClient

#: Warning-or-worse records shown at the bottom of the screen.
_MAX_WARNINGS = 5

#: Running sweeps listed (newest first).
_MAX_SWEEPS = 4

#: ANSI clear-screen + cursor-home, used between refreshes.
_CLEAR = "\x1b[2J\x1b[H"


def _counter_total(series: list[tuple[dict, float]],
                   **match: str) -> float:
    """Sum a parsed metric's samples whose labels include ``match``."""
    return sum(value for labels, value in series
               if all(labels.get(k) == v for k, v in match.items()))


def fetch_view(client: ServiceClient) -> dict[str, Any]:
    """One dashboard snapshot from the service's read endpoints."""
    health = client._get("/v1/healthz")
    fleet = client.workers()
    metrics = telemetry.parse_prometheus(client.metrics_text())
    cache = metrics.get("repro_cache_stats", [])
    hits = _counter_total(cache, counter="hits")
    misses = _counter_total(cache, counter="misses")
    sweeps = [t for t in client._get("/v1/sweeps").get("sweeps", [])
              if t.get("state") in ("pending", "running")]
    etas = {}
    for ticket in sweeps[:_MAX_SWEEPS]:
        try:
            etas[ticket["id"]] = client.status(ticket["id"]).get("eta_s")
        except ReproError:
            etas[ticket["id"]] = None
    try:
        warnings = client.logs(level="warning", limit=_MAX_WARNINGS)
    except ReproError:
        warnings = []  # pre-PR-8 servers have no /v1/logs
    return {
        "base_url": client.base_url,
        "time_unix": time.time(),
        "health": health,
        "fleet": fleet,
        "sweeps": sweeps,
        "etas": etas,
        "cache_hit_ratio": (hits / (hits + misses)
                            if hits + misses > 0 else None),
        "warnings": warnings,
        # Federated per-worker jobs, if any worker heartbeated them in.
        "worker_jobs": metrics.get("repro_worker_jobs_total", []),
    }


def _fmt_rate(rate: float) -> str:
    return f"{rate:.3g}" if rate else "-"


def _fmt_eta(eta: Any) -> str:
    if not isinstance(eta, (int, float)):
        return "eta ?"
    return f"eta {eta:.1f}s"


def render_view(view: dict[str, Any]) -> str:
    """Render one :func:`fetch_view` snapshot as a terminal screen."""
    health = view.get("health", {})
    fleet = view.get("fleet", {})
    lines = []
    telem = "on" if health.get("telemetry") else "OFF"
    uptime = health.get("uptime_s")
    uptime_s = f"up {uptime:.0f}s" if isinstance(uptime, (int, float)) \
        else "up ?"
    lines.append(f"repro sweep service — {view.get('base_url', '?')}  "
                 f"[{uptime_s}, telemetry {telem}]")
    ratio = view.get("cache_hit_ratio")
    lines.append(
        f"queue: {health.get('queue_depth', '?')} queued, "
        f"{health.get('jobs_in_flight', '?')} in flight, "
        f"dispatch={'local' if health.get('local_dispatch') else 'fleet'}"
        f"  cache hits: "
        + (f"{100.0 * ratio:.1f}%" if ratio is not None else "n/a"))
    sweeps = view.get("sweeps", [])
    if sweeps:
        etas = view.get("etas", {})
        shown = ", ".join(
            f"{t['id'][:8]} {t.get('done', '?')}/{t.get('total', '?')} "
            f"({_fmt_eta(etas.get(t['id']))})"
            for t in sweeps[:_MAX_SWEEPS])
        extra = len(sweeps) - _MAX_SWEEPS
        lines.append(f"sweeps: {shown}"
                     + (f" (+{extra} more)" if extra > 0 else ""))
    else:
        lines.append("sweeps: none running")
    lines.append("")
    workers = fleet.get("workers", [])
    lines.append(f"{'WORKER':<28} {'LEASES':>6} {'DONE':>6} {'FAIL':>5} "
                 f"{'EXPIRED':>7} {'RATE':>9}  FLAGS")
    if workers:
        for w in workers:
            flags = "SLOW" if w.get("slow") else ""
            lines.append(
                f"{str(w.get('id', '?'))[:28]:<28} "
                f"{w.get('leases_held', 0):>6} "
                f"{w.get('completed', 0):>6} {w.get('failed', 0):>5} "
                f"{w.get('expired', 0):>7} "
                f"{_fmt_rate(float(w.get('rate_ewma') or 0.0)):>9}  "
                f"{flags}")
    else:
        lines.append("  (no workers registered)")
    warnings = view.get("warnings", [])
    lines.append("")
    if warnings:
        lines.append("recent warnings:")
        for record in warnings[-_MAX_WARNINGS:]:
            lines.append("  " + telemetry.format_human(record))
    else:
        lines.append("recent warnings: none")
    return "\n".join(lines) + "\n"


def top(server: str, interval: float = 2.0, once: bool = False,
        out: TextIO | None = None) -> int:
    """Poll and render until interrupted (the CLI entry point).

    ``once=True`` prints a single snapshot and returns (useful in
    scripts and CI smokes); otherwise the screen clears between
    refreshes like its namesake.
    """
    out = out if out is not None else sys.stdout
    with ServiceClient(server) as client:
        try:
            while True:
                reachable = True
                try:
                    screen = render_view(fetch_view(client))
                except ReproError as exc:
                    reachable = False
                    screen = (f"repro sweep service — {client.base_url}: "
                              f"unreachable ({exc})\n")
                if once:
                    out.write(screen)
                    return 0 if reachable else 1
                out.write(_CLEAR + screen)
                out.flush()
                time.sleep(max(float(interval), 0.1))
        except KeyboardInterrupt:
            return 0
