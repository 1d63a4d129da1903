"""Fig. 7 — CDF of Pr/Ps: Monte-Carlo vs 1st/2nd-order SSCM.

Paper setting: Gaussian CF with sigma = eta = 1 um, f = 5 GHz; MC with
5000 samples as the reference. Expected shape:

- the 2nd-order SSCM CDF lies on top of the MC CDF;
- the 1st-order SSCM CDF is visibly off (here: the loss factor is nearly
  an even functional of the Gaussian surface, so the order-1 chaos
  surrogate collapses to almost a point mass — a vivid version of the
  paper's "1st SSCM insufficient" message);
- SSCM needs an order of magnitude fewer solver calls than MC (Table I).

All three estimators run against one scenario in one sweep (MC, SSCM-1,
SSCM-2 are three jobs of the same spec); ``reduce`` rebuilds the chaos
surrogates by re-projecting the cached sparse-grid node values — no
solver call happens outside the engine.
"""

from __future__ import annotations

import numpy as np

from ..constants import GHZ, UM
from ..core import StochasticLossConfig
from ..stochastic.montecarlo import MonteCarloResult
from ..stochastic.sscm import reproject_node_values
from ..surfaces import GaussianCorrelation
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register


def _cdf_on_grid(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    s = np.sort(np.asarray(samples, dtype=np.float64))
    return np.searchsorted(s, grid, side="right") / s.size


@register
class Fig7LossCDF(Experiment):
    """MC-vs-SSCM distribution comparison at one frequency."""

    name = "fig7"
    title = "Fig. 7"

    def __init__(self, frequency_hz: float = 5.0 * GHZ,
                 seed: int = 2009) -> None:
        self.frequency_hz = frequency_hz
        self.seed = seed

    def _mc_estimator(self, scale: Scale):
        from ..engine import EstimatorSpec

        return EstimatorSpec(kind="montecarlo", n_samples=scale.mc_samples,
                             seed=self.seed)

    def plan(self, scale: Scale):
        from ..engine import EstimatorSpec, StochasticScenario, SweepSpec

        scenario = StochasticScenario(
            "model", GaussianCorrelation(sigma=1.0 * UM, eta=1.0 * UM),
            StochasticLossConfig(points_per_side=scale.grid_n,
                                 max_modes=scale.max_modes))
        return SweepSpec(
            scenarios=scenario,
            frequencies_hz=self.frequency_hz,
            estimators=(self._mc_estimator(scale),
                        EstimatorSpec(kind="sscm", order=1),
                        EstimatorSpec(kind="sscm", order=2)),
            tags={"experiment": self.name, "scale": scale.name})

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        from ..engine import EstimatorSpec
        from ..errors import StochasticError

        mc_point = sweep.point("model",
                               estimator=self._mc_estimator(scale).label)
        mc = MonteCarloResult(samples=mc_point.values, seed=self.seed)
        p1 = sweep.point(
            "model", estimator=EstimatorSpec(kind="sscm", order=1).label)
        p2 = sweep.point(
            "model", estimator=EstimatorSpec(kind="sscm", order=2).label)
        # The retained KL dimension M follows from the level-1 sparse
        # grid's exact 2M + 1 size law (Table I). The reprojection
        # below re-checks both node counts against the actual grids, so
        # a changed sparse-grid growth rule fails loudly, but surface
        # the inference explicitly here rather than deep in project().
        dimension = (p1.values.size - 1) // 2
        if p1.values.size != 2 * dimension + 1:
            raise StochasticError(
                f"level-1 node count {p1.values.size} does not follow "
                "the 2M + 1 law; cannot infer the KL dimension"
            )
        ss1 = reproject_node_values(p1.values, dimension, 1)
        ss2 = reproject_node_values(p2.values, dimension, 2)

        lo = min(mc.samples.min(), ss2.mean - 4 * max(ss2.std, 1e-6))
        hi = max(mc.samples.max(), ss2.mean + 4 * max(ss2.std, 1e-6))
        grid = np.linspace(lo, hi, 60)

        f_mc = _cdf_on_grid(mc.samples, grid)
        f_ss1 = _cdf_on_grid(
            ss1.sample_surrogate(scale.surrogate_samples, self.seed), grid)
        f_ss2 = _cdf_on_grid(
            ss2.sample_surrogate(scale.surrogate_samples, self.seed), grid)

        result = ExperimentResult(
            experiment=self.title,
            description=(f"CDF of Pr/Ps at {self.frequency_hz / GHZ:g} GHz, "
                         f"sigma=eta=1um; MC({mc.n_samples}) vs "
                         f"SSCM1({ss1.n_samples} solves) vs "
                         f"SSCM2({ss2.n_samples} solves)"),
            x_label="Pr/Ps",
            x=grid,
        )
        result.add_series(f"MC({mc.n_samples})", f_mc)
        result.add_series("1st SSCM", f_ss1)
        result.add_series("2nd SSCM", f_ss2)

        ks2 = float(np.max(np.abs(f_ss2 - f_mc)))
        ks1 = float(np.max(np.abs(f_ss1 - f_mc)))
        # MC CDF of S samples has KS fluctuation ~ 1.36/sqrt(S) at 95%.
        tol = 2.2 / np.sqrt(mc.n_samples) + 0.06
        result.check("sscm2_matches_mc", ks2 < tol)
        result.check("sscm1_worse_than_sscm2", ks1 >= ks2)
        result.check("means_agree", abs(ss2.mean - mc.mean)
                     < 4 * mc.stderr + 0.02)
        result.check("sscm_cheaper_than_mc", ss2.n_samples < mc.n_samples
                     or mc.n_samples < 200)  # quick scale shrinks MC
        result.notes.append(
            f"means: MC {mc.mean:.4f} +/- {mc.stderr:.4f}, "
            f"SSCM1 {ss1.mean:.4f}, SSCM2 {ss2.mean:.4f}")
        result.notes.append(f"KS distances: SSCM1 {ks1:.3f}, SSCM2 {ks2:.3f}")
        result.notes.append(
            f"std: MC {mc.std:.4f}, SSCM1 {ss1.std:.4f}, SSCM2 {ss2.std:.4f}")
        return result
