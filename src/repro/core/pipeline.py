"""End-to-end loss pipelines (surface model -> SWM -> statistics).

This module is the public face of the reproduction: given a correlation
function (in SI meters) it reproduces the paper's methodology —

1. sample/parameterize the doubly-periodic random surface;
2. Karhunen-Loeve-reduce the correlated heights to M independent normals;
3. solve the deterministic SWM problem per sample (kernel tables cached
   per frequency, which is what makes collocation sweeps cheap);
4. compute statistics by SSCM (sparse-grid collocation + Hermite chaos)
   or Monte-Carlo.

The paper's default geometry is used when not overridden: patch period
``L = 5 eta`` and grid step ``eta / 8``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..constants import METER_TO_UM
from ..errors import ConfigurationError
from ..materials import PAPER_SYSTEM, TwoMediumSystem
from ..stochastic.montecarlo import MonteCarloResult
from ..stochastic.sscm import SSCMEstimator, SSCMResult
from ..surfaces.correlation import CorrelationFunction
from ..surfaces.kl import KLExpansion, build_kl
from ..swm.solver import SWMOptions, SWMResult, SWMSolver3D


@dataclass(frozen=True)
class StochasticLossConfig:
    """Geometry/reduction configuration of the stochastic pipeline.

    Lengths are in meters (SI). ``points_per_side = None`` uses the
    paper's ``L / (eta/8)`` with ``L = 5 eta`` => 40, capped at
    ``max_points_per_side`` for tractability (a capped grid trades
    accuracy for time: the result is then discretization-limited).
    """

    period_m: float | None = None
    points_per_side: int | None = None
    max_points_per_side: int = 24
    energy_fraction: float = 0.95
    max_modes: int = 20
    #: Project out the constant-offset (DC) covariance mode: a rigid
    #: height shift leaves Pr/Ps unchanged, so spending a stochastic
    #: dimension on it is pure waste (and the paper's surfaces have their
    #: mean plane pinned at f = 0).
    remove_mean_mode: bool = True

    def resolve(self, correlation: CorrelationFunction) -> tuple[float, int]:
        """(period_m, n) for a given correlation function."""
        ref = correlation.reference_length
        period = self.period_m if self.period_m is not None else 5.0 * ref
        if period <= 0.0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if self.points_per_side is not None:
            n = self.points_per_side
        else:
            n = int(round(period / (ref / 8.0)))
            n = min(n, self.max_points_per_side)
        if n < 4:
            raise ConfigurationError(f"resolved grid too small: {n}")
        return float(period), int(n)


class DeterministicLossModel:
    """SWM enhancement of explicit (deterministic) surfaces.

    Thin convenience wrapper around :class:`SWMSolver3D` for the
    deterministic experiments (e.g. the Fig. 5 half-spheroid).
    Frequency sweeps route through :mod:`repro.engine`, so they can run
    on any executor and replay from the result cache.
    """

    def __init__(self, system: TwoMediumSystem = PAPER_SYSTEM,
                 options: SWMOptions | None = None) -> None:
        self.system = system
        self.options = options
        self.solver = SWMSolver3D(system, options)

    def enhancement(self, heights_m: np.ndarray, period_m: float,
                    frequencies_hz: np.ndarray, executor=None, cache=None,
                    progress: Callable[[int, int], None] | None = None
                    ) -> np.ndarray:
        """Pr/Ps over a frequency sweep for one surface."""
        from ..engine import DeterministicScenario, SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=DeterministicScenario(
                "surface", np.asarray(heights_m, dtype=np.float64),
                float(period_m), self.system, self.options),
            frequencies_hz=frequencies_hz)
        result = run_sweep(spec, executor=executor, cache=cache,
                           progress=progress)
        return result.mean_curve("surface")

    def solve(self, heights_m: np.ndarray, period_m: float,
              frequency_hz: float) -> SWMResult:
        return self.solver.solve(heights_m, period_m, frequency_hz)


class StochasticLossModel:
    """The paper's full stochastic methodology for one surface process.

    Parameters
    ----------
    correlation:
        Correlation function with lengths in **meters** (e.g.
        ``GaussianCorrelation(sigma=1e-6, eta=1e-6)``).
    config:
        Geometry/KL-truncation configuration.
    system:
        Dielectric/conductor pair (paper defaults).
    options:
        SWM numerical options.

    Examples
    --------
    >>> from repro.constants import UM, GHZ
    >>> from repro.surfaces import GaussianCorrelation
    >>> from repro.core import StochasticLossModel, StochasticLossConfig
    >>> model = StochasticLossModel(
    ...     GaussianCorrelation(sigma=1 * UM, eta=1 * UM),
    ...     StochasticLossConfig(points_per_side=10, max_modes=6))
    >>> res = model.sscm(5 * GHZ, order=1)
    >>> res.mean > 1.0
    True
    """

    def __init__(self, correlation: CorrelationFunction,
                 config: StochasticLossConfig | None = None,
                 system: TwoMediumSystem = PAPER_SYSTEM,
                 options: SWMOptions | None = None) -> None:
        self.correlation = correlation
        self.config = config or StochasticLossConfig()
        self.system = system
        self.options = options
        self.solver = SWMSolver3D(system, options)

        period_m, n = self.config.resolve(correlation)
        self.period_m = period_m
        self.n = n
        self.period_um = period_m * METER_TO_UM

        # Grid points (um) and the KL expansion of the periodic covariance.
        step_um = self.period_um / n
        coords = np.arange(n) * step_um
        xx, yy = np.meshgrid(coords, coords, indexing="ij")
        pts_um = np.column_stack([xx.ravel(), yy.ravel()])
        # Covariance evaluated in um: scale CF lags from um to meters.
        cov = correlation.periodic_covariance_matrix(
            pts_um / METER_TO_UM, self.period_m)
        cov = 0.5 * (cov + cov.T) * METER_TO_UM ** 2  # heights in um
        if self.config.remove_mean_mode:
            npts = cov.shape[0]
            row_mean = cov @ np.ones(npts) / npts
            total_mean = float(np.ones(npts) @ row_mean / npts)
            cov = (cov - row_mean[:, None] - row_mean[None, :] + total_mean)
            cov = 0.5 * (cov + cov.T)
        self.kl: KLExpansion = build_kl(
            cov, energy_fraction=self.config.energy_fraction,
            max_modes=self.config.max_modes)

    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Retained stochastic dimension M."""
        return self.kl.dimension

    def surface_from_xi(self, xi: np.ndarray) -> np.ndarray:
        """Height map (um) for a standard-normal vector (length M)."""
        return self.kl.realize(xi).reshape(self.n, self.n)

    def enhancement_model(self, frequency_hz: float
                          ) -> Callable[[np.ndarray], float]:
        """The deterministic map ``xi -> Pr/Ps`` at one frequency."""
        def model(xi: np.ndarray) -> float:
            heights_um = self.surface_from_xi(xi)
            res = self.solver.solve_um(heights_um, self.period_um,
                                       frequency_hz)
            return res.enhancement
        return model

    def enhancement_batch_model(self, frequency_hz: float
                                ) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized :meth:`enhancement_model`: ``(S, M) -> (S,)``.

        Realizes every sample surface and solves them as one stacked
        batch (:meth:`SWMSolver3D.solve_many_um`), sharing the
        per-frequency kernel tables. Bit-identical to mapping
        :meth:`enhancement_model` over the rows — surfaces are realized
        per sample on purpose (a gemm-based batched KL realize is *not*
        bit-identical to the per-sample gemv), and the batched solve is.
        """
        def batch_model(xis: np.ndarray) -> np.ndarray:
            xis = np.atleast_2d(np.asarray(xis, dtype=np.float64))
            heights_um = np.stack([self.surface_from_xi(xi) for xi in xis])
            results = self.solver.solve_many_um(heights_um, self.period_um,
                                                frequency_hz)
            return np.array([r.enhancement for r in results],
                            dtype=np.float64)
        return batch_model

    # ------------------------------------------------------------------

    def sscm_direct(self, frequency_hz: float, order: int = 2,
                    progress: Callable[[int, int], None] | None = None
                    ) -> SSCMResult:
        """SSCM statistics computed in-process (no engine routing).

        Runs :class:`SSCMEstimator` over this model's solver directly;
        the engine walks the same Smolyak node stream
        (:func:`~repro.stochastic.sscm.node_blocks`), so its node values
        are bit-identical. Prefer :meth:`sscm`, which adds caching and
        executor policy on top. ``progress`` here counts individual
        solver calls (sparse-grid nodes), solved one node at a time.
        """
        est = SSCMEstimator(self.enhancement_model(frequency_hz),
                            self.dimension, order=order)
        return est.run(progress=progress)

    def sscm(self, frequency_hz: float, order: int = 2,
             progress: Callable[[int, int], None] | None = None,
             executor=None, cache=None) -> SSCMResult:
        """SSCM statistics of Pr/Ps at one frequency.

        Routed through :mod:`repro.engine`: the node values are content
        addressed, so a repeated call (same physics inputs) replays from
        cache with zero solves, and the surrogate is re-projected from
        the stored values. ``progress`` counts sweep points (here: 1),
        matching :meth:`montecarlo`.
        """
        from ..engine import EstimatorSpec, SweepSpec, run_sweep
        from ..stochastic.sscm import reproject_node_values

        spec = SweepSpec(
            scenarios=self.scenario(),
            frequencies_hz=frequency_hz,
            estimators=EstimatorSpec(kind="sscm", order=order))
        result = run_sweep(spec, executor=executor, cache=cache,
                           progress=progress)
        return reproject_node_values(result.points[0].values,
                                     self.dimension, order)

    def scenario(self, name: str = "model"):
        """This model as a declarative engine scenario (hash-stable).

        The engine runtime is pre-seeded with ``self``, so same-process
        execution reuses this model instead of rebuilding the KL
        expansion from the spec.
        """
        from ..engine import StochasticScenario
        from ..engine.runtime import seed_model

        scenario = StochasticScenario(name, self.correlation, self.config,
                                      self.system, self.options)
        seed_model(scenario, self)
        return scenario

    def montecarlo(self, frequency_hz: float, n_samples: int,
                   seed: int | None = 0,
                   progress: Callable[[int, int], None] | None = None,
                   executor=None, cache=None) -> MonteCarloResult:
        """Monte-Carlo statistics of Pr/Ps at one frequency.

        Routed through :mod:`repro.engine`: seeded runs are content
        addressed (a repeated call replays from cache), unseeded runs
        always recompute. ``progress`` counts sweep points, not samples.
        """
        from ..engine import EstimatorSpec, SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=self.scenario(),
            frequencies_hz=frequency_hz,
            estimators=EstimatorSpec(kind="montecarlo",
                                     n_samples=n_samples, seed=seed))
        result = run_sweep(spec, executor=executor, cache=cache,
                           progress=progress)
        return MonteCarloResult(samples=result.points[0].values, seed=seed)

    def mean_enhancement(self, frequencies_hz: np.ndarray, order: int = 1,
                         executor=None, cache=None,
                         progress: Callable[[int, int], None] | None = None
                         ) -> np.ndarray:
        """Mean Pr/Ps over a frequency sweep via SSCM (the Fig. 3/4/6
        quantity: 'the mean values computed by SSCM').

        Each frequency is one engine job, so the sweep parallelizes over
        ``executor`` (or the active :func:`repro.engine.engine_session`)
        and replays from the result cache when warm.
        """
        from ..engine import EstimatorSpec, SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=self.scenario(),
            frequencies_hz=frequencies_hz,
            estimators=EstimatorSpec(kind="sscm", order=order))
        result = run_sweep(spec, executor=executor, cache=cache,
                           progress=progress)
        return result.mean_curve("model")
