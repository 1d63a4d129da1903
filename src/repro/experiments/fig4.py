"""Fig. 4 — SWM vs SPM2 with the measurement-extracted CF of eq. (12).

Paper setting: sigma = 1 um, eta1 = 1.4 um, eta2 = 0.53 um, f = 0.1-10
GHz. This roughness is small (ref. [4] showed SPM2 is accurate here), so
SWM and SPM2 should agree across the band — the paper's second
small-roughness validation.
"""

from __future__ import annotations

import numpy as np

from ..constants import GHZ, UM
from ..core import StochasticLossConfig
from ..models.spm2 import spm2_enhancement
from ..surfaces import ExtractedCorrelation
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register

#: Relative SWM-vs-SPM2 agreement tolerance per scale (coarse grids and
#: aggressive KL truncation bias the SWM mean low).
_AGREE_TOL = {"quick": 0.35, "standard": 0.25, "paper": 0.15}

#: Lowest swept frequency per scale: the paper starts at 0.1 GHz, but at
#: 0.1 GHz the physical excess (~2%) is below the discretization error of
#: sub-paper grids, so the reduced scales start higher.
_F_MIN_GHZ = {"quick": 1.0, "standard": 0.5, "paper": 0.1}


@register
class Fig4ExtractedCF(Experiment):
    """SWM vs SPM2 under the measurement-extracted correlation."""

    name = "fig4"
    title = "Fig. 4"

    def __init__(self, sigma_um: float = 1.0, eta1_um: float = 1.4,
                 eta2_um: float = 0.53) -> None:
        self.sigma_um = sigma_um
        self.eta1_um = eta1_um
        self.eta2_um = eta2_um

    def _correlation(self) -> ExtractedCorrelation:
        return ExtractedCorrelation(sigma=self.sigma_um * UM,
                                    eta1=self.eta1_um * UM,
                                    eta2=self.eta2_um * UM)

    def _frequencies_hz(self, scale: Scale) -> np.ndarray:
        return scale.frequency_grid_hz(_F_MIN_GHZ.get(scale.name, 1.0),
                                       min(10.0, 2.0 * scale.f_max_ghz))

    def _grid_points(self, scale: Scale, f_top_hz: float) -> int:
        ref_um = self._correlation().reference_length / UM
        return scale.points_for(5.0 * ref_um, ref_um, f_top_hz)

    def plan(self, scale: Scale):
        from ..engine import EstimatorSpec, StochasticScenario, SweepSpec

        freqs = self._frequencies_hz(scale)
        n = self._grid_points(scale, float(freqs[-1]))
        scenario = StochasticScenario(
            "extracted", self._correlation(),
            StochasticLossConfig(points_per_side=n,
                                 max_modes=scale.max_modes))
        return SweepSpec(
            scenarios=scenario,
            frequencies_hz=freqs,
            estimators=EstimatorSpec(kind="sscm", order=1),
            tags={"experiment": self.name, "scale": scale.name})

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        freqs = self._frequencies_hz(scale)
        n = self._grid_points(scale, float(freqs[-1]))
        cf = self._correlation()
        swm = sweep.mean_curve("extracted")
        spm = spm2_enhancement(freqs, cf)

        result = ExperimentResult(
            experiment=self.title,
            description=(f"SWM vs SPM2, extracted CF eq.(12): "
                         f"sigma={self.sigma_um}um, eta1={self.eta1_um}um, "
                         f"eta2={self.eta2_um}um ({n}x{n} grid)"),
            x_label="f (GHz)",
            x=freqs / GHZ,
        )
        result.add_series("SWM", swm)
        result.add_series("SPM2", spm)

        rel_gap = np.abs(swm - spm) / spm
        result.check("good_agreement",
                     float(np.max(rel_gap)) < _AGREE_TOL.get(scale.name,
                                                             0.35))
        result.check("both_rise", bool(swm[-1] > swm[0] and spm[-1] > spm[0]))
        result.check("enhancement_above_one", bool(
            np.all(swm >= 0.97) and np.all(spm >= 1.0)))
        result.notes.append(
            f"max relative SWM/SPM2 gap: {np.max(rel_gap):.3f}")
        return result
