"""Fig. 6 — 3D SWM vs 2D SWM (Gaussian CF, sigma = 1 um, eta = 1, 2 um).

The paper's point (after Gu et al. [8]): a genuinely 3D rough surface
absorbs markedly more than a 2D (y-uniform, ridged) surface with the same
sigma and eta — so 2D roughness models systematically underestimate the
loss.

We reproduce this two ways:

1. *Closed form.* The scalar SPM2 derived in :mod:`repro.models.spm2`
   evaluated with the 2D spectrum (3D surface) and the 1D spectrum
   (y-uniform surface). The 3D > 2D ordering is exact here and is the
   robust check at every scale.
2. *BEM.* SSCM means from the 3D solver vs Monte-Carlo means from the 2D
   solver. The 2D solver converges much faster in the grid step than the
   3D one, so at reduced scales the raw 3D mean is biased low and can sit
   *below* the converged 2D curve; the ordering check on the BEM pair is
   therefore enforced only at the ``paper`` scale (step = eta/8, the
   paper's own mesh). The notes record the bias.

The BEM halves are one heterogeneous sweep: 3D
:class:`~repro.engine.StochasticScenario` rows under the SSCM estimator
and 2D :class:`~repro.engine.ProfileScenario` rows under seeded
Monte-Carlo, paired via the spec's ``estimator_map``.
"""

from __future__ import annotations

import numpy as np

from ..constants import GHZ, UM
from ..core import StochasticLossConfig
from ..models.spm2 import spm2_enhancement, spm2_enhancement_profile
from ..surfaces import GaussianCorrelation
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register

ETAS_UM = (1.0, 2.0)

_2D_SEED = 2009


@register
class Fig6Dimensionality(Experiment):
    """3D-vs-2D roughness comparison (BEM pair + closed-form pair)."""

    name = "fig6"
    title = "Fig. 6"

    def __init__(self, sigma_um: float = 1.0) -> None:
        self.sigma_um = sigma_um

    def _frequencies_hz(self, scale: Scale) -> np.ndarray:
        return scale.frequency_grid_hz()

    def _grids(self, scale: Scale, eta: float) -> tuple[int, int]:
        """(3D points per side, 2D profile points) for one eta."""
        n3 = scale.points_for(5.0 * eta, eta, scale.f_max_hz)
        return n3, max(96, 8 * n3)

    def plan(self, scale: Scale):
        from ..engine import (
            EstimatorSpec,
            ProfileScenario,
            StochasticScenario,
            SweepSpec,
        )

        n_samples_2d = max(16, scale.mc_samples // 2)
        scenarios = []
        estimator_map = {}
        for eta in ETAS_UM:
            n3, n2d = self._grids(scale, eta)
            cf_si = GaussianCorrelation(sigma=self.sigma_um * UM,
                                        eta=eta * UM)
            scenarios.append(StochasticScenario(
                f"bem3-eta{eta:g}um", cf_si,
                StochasticLossConfig(points_per_side=n3,
                                     max_modes=scale.max_modes)))
            cf_um = GaussianCorrelation(sigma=self.sigma_um, eta=eta)
            scenarios.append(ProfileScenario(
                f"bem2-eta{eta:g}um", cf_um, period_um=5.0 * eta, n=n2d,
                normalize=True))
            estimator_map[f"bem2-eta{eta:g}um"] = EstimatorSpec(
                kind="montecarlo", n_samples=n_samples_2d, seed=_2D_SEED)
        return SweepSpec(
            scenarios=scenarios,
            frequencies_hz=self._frequencies_hz(scale),
            estimators=EstimatorSpec(kind="sscm", order=1),
            estimator_map=estimator_map,
            tags={"experiment": self.name, "scale": scale.name})

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        freqs = self._frequencies_hz(scale)
        sigma_um = self.sigma_um
        result = ExperimentResult(
            experiment=self.title,
            description=(f"3D SWM vs 2D SWM, Gaussian CF, "
                         f"sigma={sigma_um}um, eta={ETAS_UM}um "
                         f"(scale {scale.name})"),
            x_label="f (GHz)",
            x=freqs / GHZ,
        )

        bem3: dict[float, np.ndarray] = {}
        bem2: dict[float, np.ndarray] = {}
        spm3: dict[float, np.ndarray] = {}
        spm1: dict[float, np.ndarray] = {}
        for eta in ETAS_UM:
            n3, n2d = self._grids(scale, eta)
            cf_si = GaussianCorrelation(sigma=sigma_um * UM, eta=eta * UM)
            bem3[eta] = sweep.mean_curve(f"bem3-eta{eta:g}um")
            bem2[eta] = sweep.mean_curve(f"bem2-eta{eta:g}um")
            spm3[eta] = spm2_enhancement(freqs, cf_si)
            spm1[eta] = spm2_enhancement_profile(freqs, cf_si)
            result.add_series(f"3D SWM(eta={eta:g}um)", bem3[eta])
            result.add_series(f"2D SWM(eta={eta:g}um)", bem2[eta])
            result.add_series(f"3D SPM2(eta={eta:g}um)", spm3[eta])
            result.add_series(f"2D SPM2(eta={eta:g}um)", spm1[eta])
            result.notes.append(f"eta={eta:g}um: 3D {n3}x{n3}, 2D n={n2d}")

        # The dimensionality claim, robust at every scale (closed form).
        for eta in ETAS_UM:
            result.check(f"spm2_3d_above_2d_eta{eta:g}",
                         bool(np.all(spm3[eta] > spm1[eta])))
        result.check("bem_curves_rise", all(
            bem3[e][-1] > bem3[e][0] - 0.02 and bem2[e][-1] > bem2[e][0]
            for e in ETAS_UM))
        # BEM ordering only where the 3D mesh is at the paper's resolution.
        if scale.name == "paper":
            for eta in ETAS_UM:
                result.check(f"bem_3d_above_2d_eta{eta:g}", bool(
                    np.all(bem3[eta][1:] >= bem2[eta][1:] - 0.03)))
        else:
            result.notes.append(
                "BEM 3D-vs-2D ordering not asserted at this scale: the 3D "
                "solver needs the paper's eta/8 mesh to converge, while the "
                "2D solver is already converged")
        gap = {e: float(np.mean(bem3[e] - bem2[e])) for e in ETAS_UM}
        result.notes.append("mean BEM 3D-2D gap: " + ", ".join(
            f"eta={e:g}: {gap[e]:+.3f}" for e in ETAS_UM))
        return result
