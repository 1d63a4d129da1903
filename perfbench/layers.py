"""Per-layer instrumentation from outside the program.

:class:`LayerProbe` wraps public functions of each layer (engine job
executors, the result cache, experiment plan/reduce, surface models,
surrogate sampling, kernel-table construction, the service client and
wire codec) with timers and counters, and reads the solver spans the
program already records (:func:`repro.telemetry.phase_stats` plus the
raw span buffer for the ``batch``/``freqs``/``n`` span metadata).
Nothing in the program changes: the wrappers are installed for the
traced operations only and removed afterwards.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import stats

#: Solver span names aggregated into ``swm.*`` metrics.
SOLVER_PHASES = ("plan", "assemble", "factor", "power")

_MISSING = object()


class LayerProbe:
    """Timers and counters around the program's layer boundaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.client_thread: int | None = None
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.durations[name].append(seconds)

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] += k

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def p50(self, name: str) -> float:
        values = self.durations.get(name)
        return stats.median(values) if values else 0.0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        # Remember the owner's own binding (absent for instance
        # attributes that normally resolve through the class).
        raw = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _set_everywhere(self, func, new) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name (``from .runtime import execute_job``)."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(mod, func.__name__, None) is func:
                self._set(mod, func.__name__, new)

    def _timed(self, name: str, fn, client_only: bool = False):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if client_only and threading.get_ident() != probe.client_thread:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.add(name, time.perf_counter() - start)
        return wrapper

    def _engine_wrapper(self, fn, grouped: bool):
        """execute_job / execute_job_group: count jobs once, even when a
        group falls back to per-job execute_job calls inside."""
        probe, local = self, self._local

        @functools.wraps(fn)
        def wrapper(arg):
            if getattr(local, "depth", 0):
                return fn(arg)
            if grouped:
                arg = list(arg)
                probe.count("engine.jobs", len(arg))
                if len(arg) >= 2:
                    probe.count("engine.fused_jobs", len(arg))
            else:
                probe.count("engine.jobs")
            local.depth = 1
            start = time.perf_counter()
            try:
                return fn(arg)
            finally:
                local.depth = 0
                probe.add("engine.job", time.perf_counter() - start)
        return wrapper

    def install(self) -> None:
        """Wrap every instrumented layer boundary."""
        from repro.core.pipeline import StochasticLossModel
        from repro.engine import ResultCache, runtime
        from repro.service import wire
        from repro.service.client import ServiceClient
        from repro.stochastic.sscm import SSCMResult
        from repro.surfaces.generation import ProfileGenerator
        from repro.swm.fastkernel import KernelTables

        self._set_everywhere(runtime.execute_job, self._engine_wrapper(
            runtime.execute_job, grouped=False))
        self._set_everywhere(runtime.execute_job_group, self._engine_wrapper(
            runtime.execute_job_group, grouped=True))

        probe = self
        cache_get, cache_put = ResultCache.get, ResultCache.put

        def get(cache, key):
            payload = cache_get(cache, key)
            probe.count("engine.cache_hits" if payload is not None
                        else "engine.cache_misses")
            return payload

        def put(cache, key, payload, metadata=None):
            probe.count("engine.cache_puts")
            return cache_put(cache, key, payload, metadata)

        self._set(ResultCache, "get", functools.wraps(cache_get)(get))
        self._set(ResultCache, "put", functools.wraps(cache_put)(put))

        for owner, attr, name in (
                (StochasticLossModel, "__init__", "surfaces.model"),
                (StochasticLossModel, "surface_from_xi", "surfaces.realize"),
                (ProfileGenerator, "from_white_noise", "surfaces.realize"),
                (SSCMResult, "sample_surrogate", "stochastic.surrogate"),
                (KernelTables, "__init__", "swm.table_build"),
                (ServiceClient, "submit", "service.submit"),
                (ServiceClient, "status", "service.status")):
            self._set(owner, attr, self._timed(name, vars(owner)[attr]))
        # The server decodes specs and encodes results with the same
        # codec on its own threads; only the client's calls count.
        self._set(wire, "dumps", self._timed(
            "service.encode", wire.dumps, client_only=True))
        self._set(wire, "from_wire", self._timed(
            "service.decode", wire.from_wire, client_only=True))

    def wrap_experiment(self, experiment) -> None:
        """Time one experiment instance's plan and reduce."""
        for attr in ("plan", "reduce"):
            self._set(experiment, attr, self._timed(
                f"experiments.{attr}", getattr(experiment, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def solver_span_totals() -> dict[str, float]:
    """``swm.*`` totals from the spans recorded since the last
    :func:`repro.telemetry.reset_tracing`.

    Phase totals and call counts come from ``phase_stats``; the
    meta-derived quantities (solves, kernel entries, factor flops,
    samples x frequencies per assemble call) from the raw span buffer,
    whose completeness is checked against the phase counts.
    """
    from repro.telemetry import phase_stats
    from repro.telemetry.tracing import iter_trace

    phases = phase_stats()
    out: dict[str, float] = {
        f"swm.{p}_s": float(phases.get(p, {}).get("total_s", 0.0))
        for p in SOLVER_PHASES}
    out["swm.assemble_calls"] = int(
        phases.get("assemble", {}).get("count", 0))
    solves = entries = batch_freqs = 0
    flops = 0.0
    seen = {"assemble": 0, "factor": 0}
    for rec in iter_trace():
        name = rec.get("name")
        if name not in seen:
            continue
        seen[name] += 1
        meta = rec.get("meta") or {}
        n, batch = int(meta.get("n", 0)), int(meta.get("batch", 1))
        if name == "assemble":
            freqs = int(meta.get("freqs", 1))
            batch_freqs += batch * freqs
            entries += stats.kernel_entries(batch, freqs, n)
        else:
            solves += batch
            flops += stats.factor_flops(batch, n)
    factor_calls = int(phases.get("factor", {}).get("count", 0))
    if seen["assemble"] != out["swm.assemble_calls"] \
            or seen["factor"] != factor_calls:
        raise RuntimeError("span buffer overflowed; solver totals would "
                           "be incomplete")
    out["swm.solves"] = solves
    out["swm.kernel_entries"] = entries
    out["swm.batch_freqs"] = batch_freqs
    out["swm.factor_flops"] = flops
    return out
