"""Fig. 3 — SWM vs SPM2 vs empirical formula, Gaussian CF.

Paper setting: sigma = 1 um fixed, eta in {1, 2, 3} um, f = 0-9 GHz.
Expected shape (what the checks encode):

- every curve rises with frequency from ~1;
- smaller eta (rougher surface) => higher loss at fixed f;
- SWM tracks SPM2 closely for the smoothest case (eta = 3 um) and
  deviates increasingly as eta shrinks (SPM2 overshoots for strong
  roughness in this scalar setting);
- the empirical eq. (1) is a single curve for all eta (it only sees
  sigma), lying between the family members.

The whole figure is one :class:`~repro.engine.SweepSpec` — three
stochastic scenarios (one per eta) x the frequency grid x the order-1
SSCM estimator — so all curves parallelize together and replay from the
content-addressed cache point by point.
"""

from __future__ import annotations

import numpy as np

from ..constants import GHZ, UM
from ..core import StochasticLossConfig
from ..models.empirical import hammerstad_enhancement
from ..models.spm2 import spm2_enhancement
from ..surfaces import GaussianCorrelation
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register

ETAS_UM = (1.0, 2.0, 3.0)


#: Agreement tolerance on |SWM - SPM2| for the smoothest case (eta = 3 um),
#: per scale: coarse grids bias the SWM mean low.
_SMOOTH_TOL = {"quick": 0.25, "standard": 0.17, "paper": 0.12}


@register
class Fig3GaussianFamily(Experiment):
    """SWM/SPM2/empirical comparison across the Gaussian-CF family."""

    name = "fig3"
    title = "Fig. 3"

    def __init__(self, sigma_um: float = 1.0) -> None:
        self.sigma_um = sigma_um

    def _frequencies_hz(self, scale: Scale) -> np.ndarray:
        return scale.frequency_grid_hz()

    def _grid_points(self, scale: Scale, eta: float) -> int:
        return scale.points_for(5.0 * eta, eta, scale.f_max_hz)

    @staticmethod
    def _scenario_name(eta: float) -> str:
        return f"eta{eta:g}um"

    def plan(self, scale: Scale):
        from ..engine import EstimatorSpec, StochasticScenario, SweepSpec

        scenarios = []
        for eta in ETAS_UM:
            cf = GaussianCorrelation(sigma=self.sigma_um * UM, eta=eta * UM)
            n = self._grid_points(scale, eta)
            scenarios.append(StochasticScenario(
                self._scenario_name(eta), cf,
                StochasticLossConfig(points_per_side=n,
                                     max_modes=scale.max_modes)))
        return SweepSpec(
            scenarios=scenarios,
            frequencies_hz=self._frequencies_hz(scale),
            estimators=EstimatorSpec(kind="sscm", order=1),
            tags={"experiment": self.name, "scale": scale.name})

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        freqs = self._frequencies_hz(scale)
        sigma_um = self.sigma_um
        result = ExperimentResult(
            experiment=self.title,
            description=(f"SWM vs SPM2 vs empirical, Gaussian CF, "
                         f"sigma={sigma_um}um, eta={ETAS_UM}um "
                         f"(scale {scale.name}, M<={scale.max_modes})"),
            x_label="f (GHz)",
            x=freqs / GHZ,
        )

        swm_curves: dict[float, np.ndarray] = {}
        spm_curves: dict[float, np.ndarray] = {}
        for eta in ETAS_UM:
            cf = GaussianCorrelation(sigma=sigma_um * UM, eta=eta * UM)
            swm = sweep.mean_curve(self._scenario_name(eta))
            spm = spm2_enhancement(freqs, cf)
            swm_curves[eta] = swm
            spm_curves[eta] = spm
            result.add_series(f"SWM(eta={eta:g}um)", swm)
            result.add_series(f"SPM2(eta={eta:g}um)", spm)
            n = self._grid_points(scale, eta)
            result.notes.append(f"eta={eta:g}um: {n}x{n} grid")

        emp = hammerstad_enhancement(freqs, sigma_um * UM)
        result.add_series("Empirical", emp)

        # Shape checks mirroring the paper's reading of the figure. The
        # eta = 3 um curve's rise (~1.13 -> 1.21 in truth) is within the
        # discretization bias of sub-paper grids, so the rise check covers
        # eta = 1, 2 um and the eta = 3 um curve only has to stay sane.
        result.check("swm_rises_with_f", all(
            swm_curves[eta][-1] > swm_curves[eta][0] for eta in (1.0, 2.0)))
        result.check("eta3_not_collapsing", bool(
            np.all(swm_curves[3.0] > 0.95)))
        result.check("rougher_is_lossier_swm", bool(
            np.all(swm_curves[1.0] >= swm_curves[2.0] - 0.02)
            and np.all(swm_curves[2.0] >= swm_curves[3.0] - 0.02)))
        dev = {eta: float(np.max(np.abs(swm_curves[eta] - spm_curves[eta])))
               for eta in ETAS_UM}
        result.check("smooth_case_agrees",
                     dev[3.0] < _SMOOTH_TOL.get(scale.name, 0.25))
        result.check("deviation_grows_with_roughness",
                     dev[1.0] > dev[3.0])
        result.check("empirical_single_curve_between", bool(
            np.all(emp <= np.maximum(swm_curves[1.0],
                                     spm_curves[1.0]) + 0.05)))
        result.notes.append(
            "max |SWM-SPM2|: " + ", ".join(
                f"eta={e:g}: {dev[e]:.3f}" for e in ETAS_UM))
        return result
