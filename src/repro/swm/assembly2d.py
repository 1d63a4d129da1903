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
evaluates the total periodic kernel once per unordered pair of
collocation points; only the near pairs subtract the free-space Hankel
term, to replace it by its sub-segment average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..greens.periodic2d import periodic_green2d
from .geometry import SurfaceMesh2D
from .plan import AssemblyPlan2D, check_near_options

#: Identifies the 2D kernel's arithmetic in content hashes
#: (``Assembly2DOptions.to_spec``). Kernels that agree only to rounding
#: must never share a result-cache entry, so bump this with any change
#: that moves a 2D kernel value.
KERNEL_REVISION_2D = 1


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
        import dataclasses

        return {**dataclasses.asdict(self), "kernel": KERNEL_REVISION_2D}


def _regularized_zero_limit(k: complex, period: float, m_max: int) -> complex:
    """Zero-separation limit ``g_reg(0)`` of the regularized kernel.

    A scalar Kummer mode sum that depends only on ``(k, period, m_max)``
    yet was historically recomputed per medium *and per batch chunk*;
    the cache shares one evaluation across chunks, media and the fused
    pair path. The value is a pure function of the key, so caching
    cannot change results.
    """
    return _g_reg0_cached(complex(k), float(period), int(m_max))


@lru_cache(maxsize=64)
def _g_reg0_cached(k: complex, period: float, m_max: int) -> complex:
    return complex(periodic_green2d(np.array(0.0), np.array(0.0), k,
                                    period, m_max=m_max,
                                    exclude_primary=True))


def assemble_media_multi_k_2d(plan: AssemblyPlan2D, ks) -> list[tuple]:
    """Assemble ``(D, S)`` stacks for every wavenumber in ``ks``.

    The 2D multi-frequency hot path: one fused Kummer mode-sum pass
    over all wavenumbers (two media x F stacked frequencies share the
    plan's recurrence factors, asymptotes and distances), then one
    per-k consumption of the plan per entry. Returns ``[(d, s), ...]``
    as ``(B, N, N)`` stacks in ``ks`` order, **bit-identical** to
    assembling each wavenumber independently.
    """
    ks = list(ks)
    regs = plan.eval_ks(ks)
    return [plan.assemble_k(kk, reg,
                            _regularized_zero_limit(kk, plan.period,
                                                    plan.options.m_max))
            for kk, reg in zip(ks, regs)]


def assemble_medium_2d(mesh: SurfaceMesh2D, k: complex,
                       options: Assembly2DOptions | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (D, S) for one medium of the 2D problem.

    Runs through a single-profile :class:`AssemblyPlan2D`, so scalar
    calls share the batched hot path instead of paying a naive
    per-call price.
    """
    plan = AssemblyPlan2D.build([mesh], options or Assembly2DOptions())
    d_mat, s_mat = assemble_media_multi_k_2d(plan, (k,))[0]
    return d_mat[0], s_mat[0]
