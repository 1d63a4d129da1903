"""Execution scales for the paper-experiment reproductions.

Every experiment can run at three scales:

- ``QUICK`` — minutes-scale, for benchmarks and CI; coarser mesh, fewer
  frequencies/samples, and a reduced top frequency so the mesh still
  resolves the skin depth. Preserves the qualitative shape (who wins,
  what rises, what crosses).
- ``STANDARD`` — between the two: finer meshes, more frequencies and
  more samples than ``QUICK`` at a fraction of ``PAPER``'s cost.
- ``PAPER`` — the paper's own discretization (step eta/8, 5000-sample
  MC, full frequency ranges); hours-scale in pure Python.

The mesh for a stochastic experiment is chosen per correlation length:
the grid step must resolve both the surface (``ref / spacing_divisor``)
and the conductor skin depth at the top frequency (``0.85 delta``), so
the point count *grows* with the patch size L = 5 eta. ``grid_cap``
bounds the cost; when it binds, the result is discretization-limited and
the experiment notes say so.

Select via the ``REPRO_SCALE`` environment variable (``quick`` /
``standard`` / ``paper``) or pass a :class:`Scale` explicitly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..constants import COPPER_RESISTIVITY, GHZ
from ..errors import ConfigurationError
from ..materials import skin_depth


@dataclass(frozen=True)
class Scale:
    """Knobs that trade fidelity for runtime."""

    name: str
    #: baseline grid points per side (used when no finer need arises)
    grid_n: int
    #: surface-resolution divisor: target step = correlation_length / this
    spacing_divisor: float
    #: hard cap on points per side (cost control)
    grid_cap: int
    #: top frequency for the random-surface sweeps (Figs. 3, 4, 6) [GHz]
    f_max_ghz: float
    #: grid for the deterministic Fig. 5 spheroid patch
    spheroid_grid_n: int
    #: top frequency for Fig. 5 [GHz]
    fig5_f_max_ghz: float
    #: number of frequency points per sweep
    n_frequencies: int
    #: retained KL modes cap
    max_modes: int
    #: Monte-Carlo sample count (Fig. 7 reference)
    mc_samples: int
    #: SSCM surrogate sampling for CDFs
    surrogate_samples: int

    def __post_init__(self) -> None:
        if self.grid_n < 4 or self.spheroid_grid_n < 4:
            raise ConfigurationError("grids must be >= 4 points per side")
        if self.n_frequencies < 2:
            raise ConfigurationError("need >= 2 frequency points")
        if self.mc_samples < 8:
            raise ConfigurationError("need >= 8 MC samples")
        if self.spacing_divisor <= 0 or self.grid_cap < self.grid_n:
            raise ConfigurationError("invalid spacing/cap configuration")

    def points_for(self, period_um: float, ref_um: float,
                   f_max_hz: float | None = None) -> int:
        """Grid points per side resolving surface and skin depth.

        ``step = min(ref / spacing_divisor, 0.85 * delta(f_max))``,
        clipped to ``[grid_n, grid_cap]``.
        """
        step = ref_um / self.spacing_divisor
        if f_max_hz is not None:
            delta_um = skin_depth(f_max_hz, COPPER_RESISTIVITY) * 1e6
            step = min(step, 0.85 * delta_um)
        n = int(math.ceil(period_um / step))
        return int(min(max(n, self.grid_n), self.grid_cap))

    def frequency_grid_hz(self, f_min_ghz: float = 1.0,
                          f_max_ghz: float | None = None) -> np.ndarray:
        """The sweep's frequency points [Hz].

        Defaults to the paper's band (1 GHz up to this scale's top);
        experiments with their own band pass explicit endpoints.
        """
        top = self.f_max_ghz if f_max_ghz is None else f_max_ghz
        return np.linspace(f_min_ghz, top, self.n_frequencies) * GHZ

    @property
    def f_max_hz(self) -> float:
        return self.f_max_ghz * GHZ

    @property
    def fig5_f_max_hz(self) -> float:
        return self.fig5_f_max_ghz * GHZ


QUICK = Scale(name="quick", grid_n=10, spacing_divisor=4.0, grid_cap=22,
              f_max_ghz=5.0, spheroid_grid_n=24, fig5_f_max_ghz=6.0,
              n_frequencies=4, max_modes=8, mc_samples=24,
              surrogate_samples=20000)

STANDARD = Scale(name="standard", grid_n=14, spacing_divisor=6.0,
                 grid_cap=30, f_max_ghz=8.0, spheroid_grid_n=32,
                 fig5_f_max_ghz=12.0, n_frequencies=6, max_modes=16,
                 mc_samples=150, surrogate_samples=100000)

PAPER = Scale(name="paper", grid_n=20, spacing_divisor=8.0, grid_cap=48,
              f_max_ghz=9.0, spheroid_grid_n=48, fig5_f_max_ghz=20.0,
              n_frequencies=9, max_modes=16, mc_samples=5000,
              surrogate_samples=100000)

#: Name -> preset mapping (the CLI's ``--scale`` choices).
SCALES = {"quick": QUICK, "standard": STANDARD, "paper": PAPER}


def resolve_scale(scale: Scale | str | None) -> Scale:
    """Coerce a scale name (or ``None``) to a :class:`Scale` instance.

    Accepts a :class:`Scale` (returned as-is), one of the preset names,
    or ``None`` (meaning :data:`QUICK`). This is what lets the
    :mod:`repro.api` facade take ``scale="standard"`` strings.
    """
    if scale is None:
        return QUICK
    if isinstance(scale, Scale):
        return scale
    name = str(scale).lower()
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; use one of {sorted(SCALES)} "
            "or pass a Scale instance"
        )
    return SCALES[name]


def scale_from_env(default: Scale = QUICK) -> Scale:
    """Read the scale from ``REPRO_SCALE`` (defaults to ``quick``)."""
    name = os.environ.get("REPRO_SCALE", default.name).lower()
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown REPRO_SCALE {name!r}; use one of {sorted(SCALES)}"
        )
    return SCALES[name]
