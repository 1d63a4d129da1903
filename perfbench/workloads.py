"""The benchmark's workloads, each driven through a public entry point.

- ``fig3_sweep``   — Fig. 3's plan (3 Gaussian-CF scenarios x 4
  frequencies x order-1 SSCM, M = 8) at bench scale, via
  :func:`repro.api.run`.
- ``fig7_cdf``     — Fig. 7 (MC 24 + SSCM1 17 + SSCM2 161 solves at one
  frequency, two 20 000-sample surrogate CDFs), via
  :func:`repro.api.run`.
- ``profile2d_mc`` — Fig. 6's 2D Monte-Carlo baseline alone (3
  :class:`~repro.engine.ProfileScenario` x 4 frequencies x 8 samples),
  via :func:`repro.engine.run_sweep`.
- ``service_warm`` — one closed-loop client re-submitting an 8-point
  sweep to an in-process :func:`~repro.service.server.make_server`
  whose cache is warm, via :class:`~repro.service.client.ServiceClient`.

The workload seed selects one of :data:`VARIANTS` input variants (a
surface roughness or a Monte-Carlo seed); every variant's outputs are
recorded in ``references.json``, so every run is checked point by point.
The ``toy`` flag shrinks every workload to a seconds-long smoke size
that keeps its shape (no reference exists at toy size).
"""

from __future__ import annotations

import dataclasses
import threading

#: Number of recorded input variants; ``--seed s`` runs variant s % 8.
VARIANTS = 8

#: Grid points per side of the 3D workloads (2N = 128 unknowns).
BENCH_GRID = 8

#: 2D profile points of ``profile2d_mc`` (2N = 128 unknowns).
BENCH_PROFILE_N = 64

#: Base Monte-Carlo seed (the paper-figure default); variant v adds v.
BASE_SEED = 2009


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def _sigma_um(variant: int) -> float:
    """Surface RMS height of a variant: 1 um, +5% per variant."""
    return 1.0 + 0.05 * variant


@dataclasses.dataclass
class Outcome:
    """What one operation produced, for checking and counting."""

    sweep: object
    checks: dict = dataclasses.field(default_factory=dict)


class Workload:
    """One benchmark workload: set up once, then repeat :meth:`op`."""

    name = ""
    #: Operations per traced/untraced block in a traced run.
    block = 1
    #: ``{"jobs": ..., "solves": ...}`` per operation at bench scale.
    expected: dict | None = None
    #: Unknowns N per scenario system (the solver's ``n`` span meta).
    unknowns = 0

    def __init__(self, variant: int, toy: bool = False) -> None:
        self.variant = variant
        self.toy = toy
        if toy:
            self.expected = None

    def setup(self) -> None:
        """Imports, spec construction and anything else a user pays
        once before the first operation."""

    def prepare(self) -> None:
        """Untimed per-operation isolation."""

    def op(self) -> Outcome:
        raise NotImplementedError

    def reference_sweep(self):
        """The sweep recorded as this variant's reference."""
        self.prepare()
        return self.op().sweep

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class ComputeWorkload(Workload):
    """Cold-cache figure runs: every operation solves every point."""

    def prepare(self) -> None:
        from repro.engine import ResultCache
        from repro.engine.runtime import clear_memo

        # A fresh memory-only cache and no memoized models: without
        # this, the engine's process-wide defaults would turn the
        # second operation into a replay.
        clear_memo()
        self.cache = ResultCache(disk_dir=None)


class ExperimentWorkload(ComputeWorkload):
    """A registered paper experiment through :func:`repro.api.run`."""

    experiment_name = ""

    def experiment_params(self) -> dict:
        return {}

    def bench_scale(self):
        from repro.experiments.presets import QUICK

        grid = 4 if self.toy else BENCH_GRID
        changes = dict(name="bench", grid_n=grid, grid_cap=grid)
        if self.toy:
            changes.update(max_modes=2, mc_samples=8,
                           surrogate_samples=2000)
        return dataclasses.replace(QUICK, **changes)

    def setup(self) -> None:
        import repro.api

        self.scale = self.bench_scale()
        self.unknowns = self.scale.grid_n ** 2
        self.experiment = repro.api.get(self.experiment_name,
                                        **self.experiment_params())
        # Keep the sweep that reduce() consumes: it carries every
        # point's values for the reference check.
        reduce = self.experiment.reduce

        def capture(sweep, scale):
            self._sweep = sweep
            return reduce(sweep, scale)

        self.experiment.reduce = capture
        self.spec = self.experiment.plan(self.scale)

    def op(self) -> Outcome:
        import repro.api
        from repro.engine import SerialExecutor

        self._sweep = None
        result = repro.api.run(self.experiment_name, self.scale,
                               executor=SerialExecutor(), cache=self.cache,
                               experiment=self.experiment)
        return Outcome(self._sweep, dict(result.checks))


class Fig3Sweep(ExperimentWorkload):
    name = "fig3_sweep"
    experiment_name = "fig3"
    expected = {"jobs": 12, "solves": 204}

    def experiment_params(self) -> dict:
        return {"sigma_um": _sigma_um(self.variant)}


class Fig7CDF(ExperimentWorkload):
    name = "fig7_cdf"
    experiment_name = "fig7"
    expected = {"jobs": 3, "solves": 202}

    def experiment_params(self) -> dict:
        return {"seed": BASE_SEED + self.variant}


class Profile2DMC(ComputeWorkload):
    name = "profile2d_mc"
    expected = {"jobs": 12, "solves": 96}

    def setup(self) -> None:
        import numpy as np

        from repro.constants import GHZ
        from repro.engine import (
            EstimatorSpec,
            ProfileScenario,
            SerialExecutor,
            SweepSpec,
            run_sweep,
        )
        from repro.surfaces import GaussianCorrelation

        self.unknowns = 16 if self.toy else BENCH_PROFILE_N
        n_samples = 4 if self.toy else 8
        seed = BASE_SEED + self.variant

        def build_spec():
            scenarios = [
                ProfileScenario(f"bem2-eta{eta:g}um",
                                GaussianCorrelation(sigma=1.0, eta=eta),
                                period_um=5.0 * eta, n=self.unknowns,
                                normalize=True)
                for eta in (1.0, 2.0, 3.0)]
            return SweepSpec(
                scenarios=scenarios,
                frequencies_hz=np.linspace(1.0, 5.0, 4) * GHZ,
                estimators=EstimatorSpec(kind="montecarlo",
                                         n_samples=n_samples, seed=seed),
                tags={"bench": self.name})

        def run(cache):
            sweep = run_sweep(build_spec(), executor=SerialExecutor(),
                              cache=cache)
            for name in sweep.scenario_names:
                sweep.mean_curve(name)
            return sweep

        self._run = run
        self.spec = build_spec()

    def op(self) -> Outcome:
        return Outcome(self._run(self.cache))


class ServiceWarm(Workload):
    name = "service_warm"
    block = 50
    expected = {"jobs": 0, "solves": 0}

    def setup(self) -> None:
        import numpy as np

        from repro.constants import GHZ, UM
        from repro.core import StochasticLossConfig
        from repro.engine import (
            EstimatorSpec,
            ResultCache,
            SerialExecutor,
            StochasticScenario,
            SweepSpec,
        )
        from repro.service.client import ServiceClient
        from repro.service.server import make_server
        from repro.surfaces import GaussianCorrelation

        grid, modes = (4, 2) if self.toy else (10, 4)
        sigma = _sigma_um(self.variant)
        self.spec = SweepSpec(
            scenarios=[
                StochasticScenario(
                    f"eta{eta:g}um", GaussianCorrelation(sigma * UM, eta * UM),
                    StochasticLossConfig(points_per_side=grid,
                                         max_modes=modes))
                for eta in (1.0, 2.0)],
            frequencies_hz=np.linspace(1.0, 5.0, 4) * GHZ,
            estimators=EstimatorSpec(kind="sscm", order=1),
            tags={"bench": self.name})
        self.server = make_server(port=0, executor=SerialExecutor(),
                                  cache=ResultCache(disk_dir=None),
                                  enable_telemetry=False)
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}",
                                    poll_interval=0.002)
        # The cold fill runs through the service's own dispatcher.
        self.cold = self.client.run_sweep(self.spec, timeout=120)

    def op(self) -> Outcome:
        return Outcome(self.client.run_sweep(self.spec, timeout=60))

    def reference_sweep(self):
        """The in-process reference: the same spec through run_sweep
        on a fresh cache (no server involved)."""
        from repro.engine import ResultCache, SerialExecutor, run_sweep

        return run_sweep(self.spec, executor=SerialExecutor(),
                         cache=ResultCache(disk_dir=None))

    def server_seconds(self) -> float:
        """Total seconds the server has spent on sweep routes, from the
        request histogram on its ``/v1/metrics``."""
        from repro.telemetry import parse_prometheus

        doc = parse_prometheus(self.client.metrics_text())
        return sum(value for labels, value
                   in doc.get("repro_http_request_seconds_sum", ())
                   if labels.get("route", "").startswith("/v1/sweeps"))

    def close(self) -> None:
        self.server.service.shutdown()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(10)


WORKLOADS = {cls.name: cls for cls in (Fig3Sweep, Fig7CDF, Profile2DMC,
                                       ServiceWarm)}
