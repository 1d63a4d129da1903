"""Command-line runner for the paper-experiment reproductions.

Usage::

    python -m repro.experiments.runner             # run everything, quick
    python -m repro.experiments.runner fig3 fig7   # selected experiments
    python -m repro.experiments.runner --scale standard table1
    python -m repro.experiments.runner --list      # available experiments
    python -m repro.experiments.runner --jobs 4 --cache-dir ./sweep-cache
    python -m repro.experiments.runner --format json --output results/
    python -m repro.experiments.runner serve --port 8321 --jobs 4
    python -m repro.experiments.runner worker --server http://host:8321
    python -m repro.experiments.runner top --server http://host:8321

A thin argument-parsing layer over :mod:`repro.api`: the selected
experiments execute as **one merged engine batch**
(:func:`repro.api.run_many`), so ``--jobs N`` parallelizes across the
whole figure set and ``--cache-dir`` replays every previously computed
point. ``--format table`` (default) prints each experiment's
paper-style series table; ``--format json`` prints one machine-readable
document; ``--output DIR`` additionally writes one ``<name>.json``
artifact per experiment. Exits non-zero if any qualitative check fails,
with a stderr summary naming each failing check per experiment.

The ``serve`` subcommand runs the async sweep service instead
(:mod:`repro.service`): a long-lived HTTP server that accepts wire
``SweepSpec`` documents, answers cached points immediately, and
streams NDJSON progress — see the README's "Running as a service".
With ``--fleet`` the server stops executing jobs itself and only hands
them out as leases; the ``worker`` subcommand (:mod:`repro.fleet`)
runs the matching pull worker — see "Scaling out with workers". The
``top`` subcommand is a polling terminal dashboard over a running
service's observability endpoints (queue depth, per-worker rates,
straggler flags, cache hit ratio, recent warnings).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

from ..errors import ConfigurationError
from . import registry
from .presets import SCALES


def _serve_main(argv: list[str]) -> int:
    """``repro-experiments serve ...`` — run the async sweep service."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve sweeps over HTTP (async job queue, "
                    "content-addressed cache, NDJSON progress).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port (default: 8321; 0 = ephemeral)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads per dispatch round "
                             "(default: 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persistent result-cache directory")
    parser.add_argument("--max-disk-bytes", type=int, default=None,
                        metavar="B",
                        help="disk-cache budget; least-recently-used "
                             "artifacts are evicted beyond it")
    parser.add_argument("--fleet", action="store_true",
                        help="do not execute jobs in-process; only hand "
                             "them out as leases to pull workers "
                             "('repro-experiments worker')")
    parser.add_argument("--token", default=None, metavar="TOKEN",
                        help="require this bearer token on mutating "
                             "endpoints (default: $REPRO_SERVICE_TOKEN "
                             "if set)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    from ..service.server import serve

    try:
        return serve(host=args.host, port=args.port, jobs=args.jobs,
                     cache_dir=args.cache_dir,
                     max_disk_bytes=args.max_disk_bytes,
                     quiet=not args.verbose, fleet=args.fleet,
                     token=args.token)
    except ConfigurationError as exc:
        parser.error(str(exc))


def _worker_main(argv: list[str]) -> int:
    """``repro-experiments worker ...`` — run a fleet pull worker."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments worker",
        description="Pull-based fleet worker: claim leased jobs from a "
                    "sweep service, execute them locally, upload the "
                    "results. SIGTERM/SIGINT drain gracefully.")
    parser.add_argument("--server", required=True, metavar="URL",
                        help="sweep-service base URL, e.g. "
                             "http://127.0.0.1:8321")
    parser.add_argument("--concurrency", type=int, default=1, metavar="N",
                        help="jobs executed at once (default: 1)")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable worker id (default: host-pid-rand)")
    parser.add_argument("--lease-s", type=float, default=30.0, metavar="S",
                        help="lease duration per claim (default: 30)")
    parser.add_argument("--token", default=None, metavar="TOKEN",
                        help="bearer token for the server (default: "
                             "$REPRO_SERVICE_TOKEN if set)")
    parser.add_argument("--exit-when-idle", action="store_true",
                        help="exit once the queue is drained instead of "
                             "polling forever")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-claim progress on stderr")
    parser.add_argument("--log-json", action="store_true",
                        help="emit worker progress as JSON lines instead "
                             "of human-readable stderr text")
    args = parser.parse_args(argv)
    if args.concurrency < 1:
        parser.error(f"--concurrency must be >= 1, got {args.concurrency}")
    if args.lease_s <= 0:
        parser.error(f"--lease-s must be > 0, got {args.lease_s}")

    import signal

    from .. import telemetry
    from ..fleet import FleetWorker
    from ..service.client import ServiceClient

    # Workers record solver spans so traces ride the uploaded payloads
    # back to the server's NDJSON stream.
    telemetry.enable()
    try:
        client = ServiceClient(args.server, token=args.token)
        worker = FleetWorker(
            client,
            worker_id=args.worker_id, concurrency=args.concurrency,
            lease_s=args.lease_s, exit_when_idle=args.exit_when_idle,
            quiet=args.quiet, log_json=args.log_json)
    except ConfigurationError as exc:
        parser.error(str(exc))

    def _drain(signum, frame):  # noqa: ARG001 — signal API
        worker.stop()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    with client:
        stats = worker.run()
    print(f"[worker {worker.worker_id}] "
          + ", ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _top_main(argv: list[str]) -> int:
    """``repro-experiments top ...`` — live fleet dashboard."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments top",
        description="Polling terminal dashboard for a running sweep "
                    "service: queue depth, per-worker throughput and "
                    "straggler flags, cache hit ratio, recent warnings.")
    parser.add_argument("--server", required=True, metavar="URL",
                        help="sweep-service base URL, e.g. "
                             "http://127.0.0.1:8321")
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="refresh period in seconds (default: 2)")
    parser.add_argument("--once", action="store_true",
                        help="print a single snapshot and exit (no "
                             "screen clearing; script/CI friendly)")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error(f"--interval must be > 0, got {args.interval}")

    from ..fleet.top import top

    return top(args.server, interval=args.interval, once=args.once)


def _format_phase_table(stats: dict[str, dict]) -> str:
    """Per-phase profile table from :func:`repro.telemetry.phase_stats`.

    Sorted by total time so the dominant phase reads first; the share
    column is of the *summed* span time (phases nest — ``job`` contains
    ``assemble``/``factor`` — so shares can exceed 100 together).
    """
    if not stats:
        return "[profile] no spans recorded"
    rows = sorted(stats.items(), key=lambda kv: kv[1]["total_s"],
                  reverse=True)
    top = max(r["total_s"] for _, r in rows) or 1.0
    lines = [f"{'phase':<16} {'calls':>8} {'total s':>10} "
             f"{'mean ms':>10} {'share':>7}",
             "-" * 55]
    for name, r in rows:
        lines.append(
            f"{name:<16} {r['count']:>8d} {r['total_s']:>10.3f} "
            f"{1e3 * r['mean_s']:>10.3f} {100.0 * r['total_s'] / top:>6.1f}%")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "lint":
        # The invariant linter (lock discipline, hash purity, wire
        # compat, kernel numerics); see `repro-experiments lint --help`.
        from ..analysis.cli import main as _lint_main
        return _lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures "
                    "(or 'serve' them over HTTP: see "
                    "'repro-experiments serve --help').")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiments to run (default: all; "
                             "see --list)")
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES),
                        help="execution scale (default: quick)")
    parser.add_argument("--list", action="store_true", dest="list_",
                        help="list available experiments and exit")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads for the sweep engine "
                             "(default: 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persistent result-cache directory "
                             "(re-runs replay cached sweep points)")
    parser.add_argument("--format", default="table",
                        choices=("table", "json"), dest="format_",
                        help="stdout format (default: table)")
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="write one machine-readable <name>.json "
                             "per experiment into DIR")
    parser.add_argument("--profile", action="store_true",
                        help="enable telemetry and print a per-phase "
                             "breakdown (assemble/factor/power/...) "
                             "after the run")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="enable telemetry and write the run's "
                             "spans as Chrome trace JSON "
                             "(chrome://tracing, Perfetto)")
    args = parser.parse_args(argv)

    if args.list_:
        for name in registry.names():
            print(name)
        return 0

    unknown = sorted(set(args.experiments) - set(registry.names()))
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(registry.names())})")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    from ..engine import ResultCache

    cache = None
    if args.cache_dir is not None:
        try:
            cache = ResultCache(disk_dir=args.cache_dir)
        except ConfigurationError as exc:
            parser.error(f"--cache-dir: {exc}")

    output_dir = None
    if args.output is not None:
        output_dir = Path(args.output)
        try:
            output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"--output: cannot create {output_dir}: {exc}")

    from .. import api, telemetry

    trace_out = None
    if args.trace_out is not None:
        trace_out = Path(args.trace_out)
        if trace_out.parent and not trace_out.parent.is_dir():
            try:
                trace_out.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                parser.error(f"--trace-out: cannot create "
                             f"{trace_out.parent}: {exc}")
    if args.profile or trace_out is not None:
        telemetry.enable()

    # Repeated names on the command line would recompute nothing (the
    # engine dedups the jobs) but run_many rejects duplicates, so fold
    # them here, first occurrence wins.
    names = list(dict.fromkeys(args.experiments)) or registry.names()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = api.run_many(names, scale=args.scale, jobs=args.jobs,
                               cache=cache)
    elapsed = time.perf_counter() - start

    if args.format_ == "json":
        print(json.dumps({name: result.to_dict()
                          for name, result in results.items()}, indent=2))
    else:
        for name, result in results.items():
            print(result.format_table())
            print()
        print(f"[{len(results)} experiment(s) at scale {args.scale!r} "
              f"in {elapsed:.1f} s, jobs={args.jobs}]")

    if output_dir is not None:
        for name, result in results.items():
            (output_dir / f"{name}.json").write_text(result.to_json(),
                                                     encoding="utf-8")

    if args.profile:
        print()
        print(_format_phase_table(telemetry.phase_stats()))
    if trace_out is not None:
        trace_out.write_text(json.dumps(telemetry.chrome_trace()),
                             encoding="utf-8")
        print(f"[trace] wrote {trace_out}", file=sys.stderr)

    failed = {name: result.failing_checks()
              for name, result in results.items()
              if not result.all_checks_pass()}
    if failed:
        for name, checks in failed.items():
            print(f"{name}: failing check(s): {', '.join(checks)}",
                  file=sys.stderr)
        print("SOME CHECKS FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
