"""One workload in a fresh interpreter: set up, measure, check, report.

``run.py`` starts this script once per run (and once more per extra
set-up sample). It prints ``READY`` when set-up is done, then measures
operations for the requested seconds and prints one JSON report as its
last line. ``--make-references`` instead records every workload
variant's outputs into ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import references  # noqa: E402
import stats  # noqa: E402
from layers import SOLVER_PHASES, LayerProbe, solver_span_totals  # noqa: E402
from workloads import VARIANTS, WORKLOADS, ServiceWarm, variant_of  # noqa: E402

#: Problems kept verbatim in a report (the rest are only counted).
MAX_PROBLEMS = 10

#: Seconds of operations between two passes of the reference kernel
#: (taken at operation boundaries, so after every compute operation).
CALIBRATE_EVERY_S = 2.0

#: Thread-count variables recorded in the fingerprint.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_revision() -> str | None:
    """HEAD's commit id read from ``.git`` directly (no git process, so
    nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    blas: dict = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: v for k, v in deps.get("blas", {}).items()
                if k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # noqa: BLE001 — the fingerprint is informational
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": src_lines,
    }


class Run:
    """Measure one workload for a fixed time and build its report."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        from repro import telemetry

        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.telemetry = telemetry
        self.service = isinstance(workload, ServiceWarm)
        self.probe = LayerProbe()
        self.probe.client_thread = threading.get_ident()
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.n_problems = 0
        self.attempted = self.failed = 0
        self.bit_identical: bool | None = None
        self.checks: dict = {}
        self.server_s = 0.0
        self.server_sweeps = 0
        self.tail: float | None = None
        self.calibrations: list[float] = []
        self.reference = None
        if not workload.toy:
            self.reference = references.load().get(
                workload.name, {}).get(str(workload.variant))
            if self.reference is None:
                self._problem(f"no reference recorded for {workload.name} "
                              f"variant {workload.variant}")

    # ------------------------------------------------------------------

    def _problem(self, message: str) -> None:
        self.n_problems += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def _against_reference(self, points: list[dict]) -> list[str]:
        if self.reference is None:
            return []
        problems, identical = references.compare(points, self.reference)
        self.bit_identical = identical and self.bit_identical is not False
        return problems

    def _check(self, outcome) -> list[str]:
        sweep = outcome.sweep
        if sweep is None:
            return ["operation returned no sweep"]
        problems = []
        expected = self.wl.expected
        if self.service:
            if sweep.cache_hits != sweep.n_points:
                problems.append(f"{sweep.n_points - sweep.cache_hits} of "
                                f"{sweep.n_points} points missed the cache")
            got, cold = (references.points_of(sweep),
                         references.points_of(self.wl.cold))
            if [(p["mean"], p["values"]) for p in got] != \
                    [(p["mean"], p["values"]) for p in cold]:
                problems.append("warm response differs from the cold fill")
            return problems
        if sweep.cache_hits:
            problems.append(f"{sweep.cache_hits} cache hits in a cold run")
        if expected and (sweep.n_points, sweep.n_evals) != \
                (expected["jobs"], expected["solves"]):
            problems.append(f"{sweep.n_points} jobs / {sweep.n_evals} solves, "
                            f"plan has {expected['jobs']} / "
                            f"{expected['solves']}")
        problems += self._against_reference(references.points_of(sweep))
        self.checks = outcome.checks
        return problems

    # ------------------------------------------------------------------

    def _switch(self, traced: bool) -> None:
        if traced:
            self.telemetry.enable()
            self.probe.install()
            if hasattr(self.wl, "experiment"):
                self.probe.wrap_experiment(self.wl.experiment)
            if self.service:
                self._server_mark = self.wl.server_seconds()
        else:
            self.probe.uninstall()
            self.telemetry.disable()

    def _end_traced_block(self, n_ops: int) -> None:
        if self.service:
            self.server_s += self.wl.server_seconds() - self._server_mark
            self.server_sweeps += n_ops

    def measure(self) -> None:
        wl = self.wl
        if self.service:
            # The cold fill is checked like any other operation.
            self.attempted += 1
            problems = self._against_reference(
                references.points_of(wl.cold))
            if wl.cold.cache_hits:
                problems.append("cold fill hit a warm cache")
            if problems:
                self.failed += 1
                for p in problems:
                    self._problem(f"cold fill: {p}")
        if self.trace:
            self.telemetry.reset_tracing()
        cycle = wl.block * (2 if self.trace else 1)
        traced = False
        self.calibrations.append(calibrate.kernel_seconds())
        start = last_calibration = time.perf_counter()
        uncalibrated: list[dict] = []
        i = 0
        while True:
            if i % wl.block == 0:
                traced = self.trace and (i // wl.block) % 2 == 1
                self._switch(traced)
            op = self._one_op(f"op {i}", traced)
            self.ops.append(op)
            uncalibrated.append(op)
            i += 1
            if traced and i % wl.block == 0:
                self._end_traced_block(wl.block)
            now = time.perf_counter()
            done = i % cycle == 0 and now - start >= self.seconds
            if done or now - last_calibration >= CALIBRATE_EVERY_S:
                self._calibrate(uncalibrated)
                uncalibrated = []
                last_calibration = time.perf_counter()
            if done:
                break
        self._switch(False)

    def _calibrate(self, ops: list[dict]) -> None:
        """Express the walls of ``ops`` at the reference host speed, from
        the reference kernel timed just before and just after them."""
        before = self.calibrations[-1]
        self.calibrations.append(calibrate.kernel_seconds())
        scale = calibrate.NOMINAL_S / (0.5 * (before + self.calibrations[-1]))
        for op in ops:
            op["ref_wall"] = op["wall"] * scale

    def _one_op(self, label: str, traced: bool) -> dict:
        """Prepare, time and check one operation."""
        self.wl.prepare()
        if self.telemetry.enabled() != traced:
            self._problem(f"telemetry enabled={self.telemetry.enabled()} "
                          f"in a {'traced' if traced else 'untraced'} op")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outcome, error = self.wl.op(), None
        except Exception as exc:  # noqa: BLE001 — counted as failed
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += 1
        problems = [error] if error else self._check(outcome)
        if problems:
            self.failed += 1
            for p in problems:
                self._problem(f"{label}: {p}")
        sweep = outcome.sweep if outcome else None
        return {"wall": wall, "cpu": cpu, "traced": traced,
                "points": sweep.n_points if sweep else 0,
                "solves": sweep.n_evals if sweep else 0}

    # ------------------------------------------------------------------

    def end_to_end(self, plain: list[dict]) -> dict:
        """Timings at the reference host speed (see calibrate.py)."""
        walls = [o["ref_wall"] for o in plain]
        if self.service:
            throughput = len(plain) / sum(walls)
        else:
            throughput = stats.median(o["solves"] / o["ref_wall"]
                                      for o in plain)
        return {
            "wall_s": stats.median(walls),
            "throughput_per_s": throughput,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, plain: list[dict], traced: list[dict]) -> dict:
        probe, n = self.probe, len(traced)
        counts = probe.counts
        sw = solver_span_totals()
        job_s = probe.total("engine.job")
        plan_s = probe.total("experiments.plan")
        reduce_s = probe.total("experiments.reduce")
        jobs = counts["engine.jobs"]
        layer = {
            "engine.jobs": jobs / n,
            "engine.job_s": job_s / n,
            "engine.fused_frac": counts["engine.fused_jobs"] / jobs
            if jobs else 0.0,
            "engine.overhead_s": 0.0 if self.service else
            (sum(o["wall"] for o in traced) - job_s - plan_s - reduce_s) / n,
            "engine.cache_hits": counts["engine.cache_hits"] / n,
            "engine.cache_puts": counts["engine.cache_puts"] / n,
            "experiments.plan_s": plan_s / n,
            "experiments.reduce_s": reduce_s / n,
            "surfaces.model_s": probe.total("surfaces.model") / n,
            "surfaces.realizations": probe.calls("surfaces.realize") / n,
            "surfaces.realize_s": probe.total("surfaces.realize") / n,
            "stochastic.eval_points": sum(o["solves"] for o in traced) / n,
            "stochastic.surrogate_s": probe.total("stochastic.surrogate") / n,
            "swm.solves": sw["swm.solves"] / n,
            "swm.assemble_calls": sw["swm.assemble_calls"] / n,
            "swm.batch_mean": sw["swm.batch_freqs"] / sw["swm.assemble_calls"]
            if sw["swm.assemble_calls"] else 0.0,
        }
        for phase in SOLVER_PHASES:
            layer[f"swm.{phase}_s"] = sw[f"swm.{phase}_s"] / n
        entries, flops = sw["swm.kernel_entries"], sw["swm.factor_flops"]
        layer.update({
            "swm.assemble_share": sw["swm.assemble_s"] / job_s
            if job_s else 0.0,
            "swm.kernel_entries": entries / n,
            "swm.assemble_ns_per_entry": sw["swm.assemble_s"] * 1e9 / entries
            if entries else 0.0,
            "swm.table_builds": probe.calls("swm.table_build") / n,
            "swm.factor_gflop": flops / 1e9 / n,
            "swm.factor_gflop_per_s": flops / 1e9 / sw["swm.factor_s"]
            if sw["swm.factor_s"] else 0.0,
        })
        for name in ("submit", "status", "encode", "decode"):
            layer[f"service.{name}_ms"] = probe.p50(f"service.{name}") * 1e3
        layer["service.server_ms"] = (self.server_s / self.server_sweeps * 1e3
                                      if self.server_sweeps else 0.0)
        walls = [o["wall"] for o in plain]
        self.tail = stats.tail_percentile(len(walls)) if self.service else None
        layer["service.latency_tail_ms"] = (
            stats.percentile(walls, self.tail) * 1e3 if self.tail else 0.0)
        layer["telemetry.overhead_frac"] = (
            stats.median(o["wall"] for o in traced) / stats.median(walls) - 1)
        layer["proc.cpu_s"] = stats.median(o["cpu"] for o in plain)
        layer["proc.raw_wall_s"] = stats.median(walls)
        layer["proc.host_speed"] = (calibrate.NOMINAL_S
                                    / stats.median(self.calibrations))
        self._check_counters(traced, counts, sw)
        return layer

    def _check_counters(self, traced: list[dict], counts, sw) -> None:
        """Exact counters of the traced operations must match the plan."""
        points = sum(o["points"] for o in traced)
        solves = sum(o["solves"] for o in traced)
        unknowns = self.wl.unknowns
        if self.service:
            want = {"engine.jobs": 0, "swm.solves": 0,
                    "engine.cache_hits": points, "engine.cache_puts": 0}
        else:
            want = {"engine.jobs": points, "swm.solves": solves,
                    "swm.kernel_entries": 2 * solves * unknowns ** 2,
                    "engine.cache_hits": 0, "engine.cache_puts": points}
        got = {**{k: counts[k] for k in want if k.startswith("engine.")},
               **{k: sw[k] for k in want if k.startswith("swm.")}}
        for key, value in want.items():
            if got[key] != value:
                self._problem(f"{key} = {got[key]}, plan says {value}")

    # ------------------------------------------------------------------

    def report(self) -> dict:
        self.measure()
        plain = [o for o in self.ops if not o["traced"]]
        traced = [o for o in self.ops if o["traced"]]
        # Key order matters: per_layer() records the counter checks and
        # the tail percentile that later entries read.
        return {
            "workload": self.wl.name,
            "variant": self.wl.variant,
            "toy": self.wl.toy,
            "trace": self.trace,
            "ops": len(plain),
            "traced_ops": len(traced),
            "end_to_end": self.end_to_end(plain),
            "per_layer": self.per_layer(plain, traced) if traced else None,
            "tail_percentile": self.tail,
            # Set-up ran just before the first kernel pass.
            "setup_scale": calibrate.NOMINAL_S / self.calibrations[0],
            "bit_identical": self.bit_identical,
            "checks": self.checks,
            "fingerprint": fingerprint(),
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0 and self.n_problems == 0,
            "problems": self.problems,
            "n_problems": self.n_problems,
        }


def make_references() -> int:
    """Record every workload variant's outputs at bench scale."""
    recorded: dict = {}
    for name, cls in WORKLOADS.items():
        recorded[name] = {}
        for variant in range(VARIANTS):
            wl = cls(variant)
            wl.setup()
            try:
                sweep = wl.reference_sweep()
            finally:
                wl.close()
            recorded[name][str(variant)] = references.points_of(sweep)
            print(f"{name} variant {variant}: {sweep.n_points} points, "
                  f"{sweep.n_evals} solves", file=sys.stderr, flush=True)
    note = ("Recorded by perfbench/worker.py --make-references; "
            f"git revision {_git_revision()}")
    references.save(recorded, note)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args(argv)
    # Coarse bench grids trip the solver's skin-depth advisory by design.
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.make_references:
        return make_references()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload](variant_of(args.seed), toy=args.toy)
    wl.setup()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        report = Run(wl, args.seconds, bool(args.trace)).report()
    finally:
        wl.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
