"""MOM assembly of the 2D SWM integral equations (Fig. 6's comparison).

Same structure as the 3D assembly but with line-source kernels on a
1D-periodic profile: pulse basis / point collocation, minimum-image
wrapping, Kummer-accelerated periodic Green's function, analytic
(logarithmic) self terms and sub-segment quadrature for near pairs.

Self term of the single layer over a tilted segment of true length ``h``::

    int (j/4) H0(k rho) dl  ~=  (j/4) h [1 + (2j/pi)(ln(k h / 4) + gamma_E - 1)]

(small-argument Hankel expansion, valid for ``|k| h << 1``), plus the
regularized periodic remainder ``g_reg(0) * h``.

Off the diagonal the plan (:class:`~repro.swm.plan.AssemblyPlan2D`)
reads the total periodic kernel once per unordered pair of collocation
points from a kernel evaluator: the Kummer offset tables
(:mod:`repro.swm.fastkernel2d`), which every solve uses, or the exact
Kummer sum (:class:`~repro.swm.fastkernel2d.KummerKernel`), their
reference, passed in by the caller. Only the near pairs subtract the
free-space Hankel term, to replace it by its sub-segment average. The
plan writes each medium's ``D`` and ``S`` once, straight into the
solver's coupled block system;
:meth:`~repro.swm.plan.AssemblyPlan2D.dense` returns them as plain ``(B,
N, N)`` stacks, and :func:`assemble_medium_2d` one profile's pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigurationError
from .fastkernel2d import (KERNEL_REVISION_2D, KummerKernel, KummerTables,
                           build_tables)
from .geometry import SurfaceMesh2D
from .plan import AssemblyPlan2D, check_near_options


@dataclass(frozen=True)
class Assembly2DOptions:
    """Quadrature/truncation knobs for 2D assembly."""

    m_max: int = 96
    near_radius_cells: float = 2.0
    near_quadrature: int = 8

    def __post_init__(self) -> None:
        if self.m_max < 1:
            raise ConfigurationError(f"m_max must be >= 1, got {self.m_max}")
        check_near_options(self)

    def to_spec(self) -> dict:
        """Content-hashable dict of every knob that affects numerics,
        plus the 2D kernel revision so a cache never mixes values from
        two kernel implementations."""
        return {**asdict(self), "kernel": KERNEL_REVISION_2D}


def assemble_medium_2d(mesh: SurfaceMesh2D, k: complex,
                       options: Assembly2DOptions | None = None,
                       kernel: KummerTables | KummerKernel | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (D, S) for one medium of the 2D problem.

    Runs through a single-profile :class:`AssemblyPlan2D`. ``kernel``,
    the kernel evaluator (prebuilt tables amortize their build across
    samples; a :class:`KummerKernel` assembles with the exact sum),
    defaults to tables sized to this profile.
    """
    options = options or Assembly2DOptions()
    if kernel is None:
        kernel, = build_tables((k,), mesh.period, mesh.n, options.m_max,
                               float(np.ptp(mesh.z)))
    plan = AssemblyPlan2D.build([mesh], options)
    d_mat, s_mat = plan.dense(((k, kernel),))[0]
    return d_mat[0], s_mat[0]
