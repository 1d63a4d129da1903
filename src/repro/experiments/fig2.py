"""Fig. 2 — simulated 3D random rough surface (Gaussian CF, sigma=eta=1um).

The paper's figure is a rendering of one realization. The reproducible
content is the *round trip*: synthesize a surface from the target
(sigma, C), then extract (sigma, correlation length, RMS slope) back from
the height map and verify they match. That round trip is exactly the
workflow the paper claims enables "different surface roughness in reality
[to] be reproduced and simulated".

No SWM solves are involved, so :meth:`Fig2SurfaceRoundTrip.plan` returns
``None`` and the whole experiment lives in ``reduce``.
"""

from __future__ import annotations

import numpy as np

from ..surfaces import (
    GaussianCorrelation,
    SurfaceGenerator,
    autocorrelation_2d,
    extract_statistics,
)
from .base import Experiment, ExperimentResult
from .presets import Scale
from .registry import register


@register
class Fig2SurfaceRoundTrip(Experiment):
    """Synthesize surfaces and report recovered statistics vs targets."""

    name = "fig2"
    title = "Fig. 2"

    def __init__(self, sigma_um: float = 1.0, eta_um: float = 1.0,
                 seed: int = 2009, n_realizations: int | None = None
                 ) -> None:
        self.sigma_um = sigma_um
        self.eta_um = eta_um
        self.seed = seed
        self.n_realizations = n_realizations

    def plan(self, scale: Scale):
        return None  # pure surface synthesis: no solver-backed points

    def reduce(self, sweep, scale: Scale) -> ExperimentResult:
        sigma_um, eta_um = self.sigma_um, self.eta_um
        n_real = (self.n_realizations if self.n_realizations is not None
                  else max(8, scale.mc_samples // 4))
        cf_um = GaussianCorrelation(sigma=sigma_um, eta=eta_um)
        period_um = 5.0 * eta_um
        n = max(scale.grid_n, 16)
        gen = SurfaceGenerator(cf_um, period=period_um, n=n, normalize=True)

        rng = np.random.default_rng(self.seed)
        sigmas, etas, slopes = [], [], []
        lags = corr_mean = None
        for _ in range(n_real):
            s = gen.sample(rng)
            st = extract_statistics(s.heights, period_um)
            sigmas.append(st.sigma)
            etas.append(st.correlation_length)
            slopes.append(st.rms_slope)
            lg, corr = autocorrelation_2d(s.heights, period_um)
            if corr_mean is None:
                lags, corr_mean = lg, corr
            else:
                corr_mean = corr_mean + corr
        corr_mean = corr_mean / n_real

        result = ExperimentResult(
            experiment=self.title,
            description=(f"3D Gaussian rough surface, sigma={sigma_um}um, "
                         f"eta={eta_um}um: target vs ensemble-recovered "
                         f"autocorrelation ({n_real} realizations, "
                         f"{n}x{n} grid)"),
            x_label="lag (um)",
            x=lags,
        )
        result.add_series("C_target", cf_um(lags))
        result.add_series("C_recovered", corr_mean)

        sig_mean = float(np.mean(sigmas))
        eta_mean = float(np.mean(etas))
        slope_mean = float(np.mean(slopes))
        target_slope = float(np.sqrt(cf_um.slope_variance_2d()))
        result.notes.append(
            f"sigma: target {sigma_um:.3f}, recovered {sig_mean:.3f}")
        result.notes.append(
            f"eta: target {eta_um:.3f}, recovered {eta_mean:.3f}")
        result.notes.append(
            f"rms slope: target {target_slope:.3f}, "
            f"recovered {slope_mean:.3f}")

        result.check("sigma_recovered",
                     abs(sig_mean - sigma_um) < 0.15 * sigma_um)
        result.check("eta_recovered", abs(eta_mean - eta_um) < 0.25 * eta_um)
        result.check("slope_recovered",
                     abs(slope_mean - target_slope) < 0.25 * target_slope)
        return result
