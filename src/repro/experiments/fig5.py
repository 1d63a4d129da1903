"""Fig. 5 — SWM vs HBM for a single conducting half-spheroid.

Paper setting: half-spheroid with height 5.8 um, base diameter 9.4 um
(from Hall et al. [5]); f = 1-20 GHz (skin depth small against the
protrusion). Expected shape:

- both SWM and HBM show a strong enhancement, rising with frequency;
- SWM tracks HBM (the reference in this regime) within tens of percent,
  from below;
- SPM2 (fed the boss's equivalent sigma/slope) is far outside its valid
  range here and disagrees strongly with both — the paper's closing
  remark on this figure.

Two substitutions:

1. *Similarity transform.* The paper meshes at delta/5, which at 20 GHz
   needs >200 points per side — far beyond a dense pure-Python solve.
   Because the two-medium problem is scale-invariant up to O(k1*L) ~ 1e-3
   corrections, we simulate a 4x smaller boss at 16x higher frequency
   (verified to 1e-4 relative in the tests) and report against the
   original frequency axis. This buys a 4x finer effective mesh.
2. *Resolution-limited band.* Even scaled, the skin depth inside the
   boss must stay >= ~2.2 grid steps for the absorbed power to be
   trustworthy; the sweep is truncated at that frequency and the note
   records it. The tile size L (the paper leaves it unspecified) sets
   the absolute level of both SWM and HBM identically; we use 12 um.

The plan is one :class:`~repro.engine.DeterministicScenario` swept over
the *similarity-scaled* frequencies; ``reduce`` reports the curve back
on the original axis.
"""

from __future__ import annotations

import numpy as np

from ..constants import COPPER_RESISTIVITY, GHZ, UM
from ..models.hbm import HemisphericalBossModel
from ..models.spm2 import spm2_enhancement
from ..surfaces import GaussianCorrelation
from ..surfaces.deterministic import half_spheroid
from ..surfaces.statistics import rms_slope_2d
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register

HEIGHT_UM = 5.8
BASE_DIAMETER_UM = 9.4
PATCH_UM = 12.0
#: geometric down-scaling of the simulated system (frequencies scale by
#: the square): verified exact to O(k1 L) by the integration tests.
SIMILARITY = 4.0
#: minimum skin-depth-per-grid-step ratio for a trustworthy boss solve.
MIN_DELTA_PER_STEP = 2.2


def _resolution_limited_f_max_ghz(n: int) -> float:
    """Largest original-axis frequency the scaled mesh resolves."""
    step_um = (PATCH_UM / SIMILARITY) / n
    # delta_sim(f_orig) = skin_depth(f_orig * SIMILARITY^2); require
    # delta_sim >= MIN_DELTA_PER_STEP * step.
    target_delta_m = MIN_DELTA_PER_STEP * step_um * UM
    # delta = sqrt(rho / (pi f mu)) => f = rho / (pi mu delta^2)
    f_sim = COPPER_RESISTIVITY / (np.pi * 4e-7 * np.pi * target_delta_m ** 2)
    return float(f_sim / SIMILARITY ** 2 / GHZ)


@register
class Fig5SpheroidBoss(Experiment):
    """SWM vs HBM vs (out-of-regime) SPM2 on the half-spheroid boss."""

    name = "fig5"
    title = "Fig. 5"

    def _band(self, scale: Scale) -> tuple[int, float, np.ndarray]:
        """(grid n, truncated f_top_ghz, original-axis frequencies)."""
        n = scale.spheroid_grid_n
        f_top = min(scale.fig5_f_max_ghz, _resolution_limited_f_max_ghz(n))
        f_top = max(f_top, 2.0)
        return n, f_top, scale.frequency_grid_hz(1.0, f_top)

    def plan(self, scale: Scale):
        from ..engine import DeterministicScenario, SweepSpec

        n, _, freqs = self._band(scale)
        patch_sim_um = PATCH_UM / SIMILARITY
        heights_sim_um = half_spheroid(n, patch_sim_um,
                                       HEIGHT_UM / SIMILARITY,
                                       BASE_DIAMETER_UM / SIMILARITY)
        scenario = DeterministicScenario(
            "spheroid", heights_sim_um * UM, patch_sim_um * UM)
        return SweepSpec(
            scenarios=scenario,
            frequencies_hz=freqs * SIMILARITY ** 2,
            tags={"experiment": self.name, "scale": scale.name,
                  "similarity": SIMILARITY})

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        n, f_top, freqs = self._band(scale)
        swm = sweep.mean_curve("spheroid")

        hbm_model = HemisphericalBossModel(
            height_m=HEIGHT_UM * UM,
            base_diameter_m=BASE_DIAMETER_UM * UM,
            tile_area_m2=(PATCH_UM * UM) ** 2,
        )
        hbm = hbm_model.enhancement(freqs)

        # SPM2 fed the boss's equivalent statistics (same RMS height and
        # slope): far outside its small-roughness regime.
        heights_full = half_spheroid(n, PATCH_UM, HEIGHT_UM,
                                     BASE_DIAMETER_UM)
        sigma_eq = float(np.sqrt(np.mean(heights_full ** 2))) * UM
        slope_eq = rms_slope_2d(heights_full, PATCH_UM)
        eta_eq = 2.0 * sigma_eq / max(slope_eq, 0.5)
        spm = spm2_enhancement(freqs, GaussianCorrelation(sigma_eq, eta_eq))

        result = ExperimentResult(
            experiment=self.title,
            description=(f"SWM vs HBM, half-spheroid h={HEIGHT_UM}um, "
                         f"d={BASE_DIAMETER_UM}um on {PATCH_UM}um tile; "
                         f"similarity-scaled mesh {n}x{n}, "
                         f"band 1-{f_top:.1f} GHz"),
            x_label="f (GHz)",
            x=freqs / GHZ,
        )
        result.add_series("SWM", swm)
        result.add_series("HBM", hbm)
        result.add_series("SPM2(equiv)", spm)

        result.check("hbm_rises", bool(hbm[-1] > hbm[0]))
        result.check("swm_rises", bool(swm[-1] > swm[0] - 0.02))
        result.check("strong_enhancement", bool(
            np.all(hbm[1:] > 1.25) and np.all(swm > 1.25)))
        gap = np.abs(swm - hbm) / hbm
        result.check("swm_tracks_hbm", float(np.max(gap)) < 0.35)
        result.check("swm_below_hbm", bool(np.all(swm <= hbm + 0.05)))
        # SPM2's prediction diverges from the in-regime reference at the
        # top of the band — it cannot be trusted for large roughness.
        result.check("spm2_out_of_regime",
                     bool(abs(spm[-1] - swm[-1]) > 0.25
                          or abs(spm[-1] - hbm[-1]) > 0.25))
        result.notes.append(
            f"SWM/HBM relative gap: max {np.max(gap):.3f}")
        result.notes.append(
            f"band truncated at {f_top:.1f} GHz by the delta >= "
            f"{MIN_DELTA_PER_STEP} dx mesh rule (paper: delta/5 meshing)")
        result.notes.append(
            f"SPM2 equivalent surface: sigma={sigma_eq / UM:.2f}um, "
            f"eta={eta_eq / UM:.2f}um (sigma ~ eta: out of SPM2's regime)")
        return result
