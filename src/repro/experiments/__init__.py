"""Reproductions of every figure and table in the paper's evaluation.

Each module defines a declarative :class:`~.base.Experiment` —
``plan(scale) -> SweepSpec`` (every solver-backed point of the figure as
one engine spec) and ``reduce(sweep, scale) -> ExperimentResult``
(series assembly + qualitative checks) — registered by name in
:mod:`.registry`. Drive them through the :mod:`repro.api` facade::

    import repro.api
    result = repro.api.run("fig3", scale="quick", jobs=4)

========  =====================================================
name      paper content
========  =====================================================
fig2      simulated 3D Gaussian rough surface (+ statistics round trip)
fig3      SWM vs SPM2 vs empirical, Gaussian CF, eta = 1, 2, 3 um
fig4      SWM vs SPM2, extracted CF eq. (12)
fig5      SWM vs HBM, half-spheroid boss
fig6      3D SWM vs 2D SWM
fig7      CDF of Pr/Ps: MC vs 1st/2nd-order SSCM
table1    sampling-point counts: MC vs sparse-grid SSCM
========  =====================================================

Look experiments up by name in the registry (:func:`registry.names`,
:func:`registry.create`) or run them through :mod:`repro.api`.
"""

from . import fig2, fig3, fig4, fig5, fig6, fig7, registry, table1
from .base import Experiment, ExperimentResult
from .presets import (
    PAPER,
    QUICK,
    SCALES,
    STANDARD,
    Scale,
    resolve_scale,
    scale_from_env,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "PAPER",
    "QUICK",
    "SCALES",
    "STANDARD",
    "Scale",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "registry",
    "resolve_scale",
    "scale_from_env",
    "table1",
]
