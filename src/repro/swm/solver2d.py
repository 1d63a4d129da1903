"""The simplified 2D SWM solver (surface uniform along y; paper Fig. 6).

Identical formulation to :mod:`repro.swm.solver` with line-source kernels:

.. math::

    (\\tfrac12 I - D_1)\\,\\psi + \\beta S_1\\, v = \\psi_{in},
    \\qquad
    (\\tfrac12 I + D_2)\\,\\psi - S_2\\, v = 0

absorbed power per unit length ``Pr = (1/2) int Re{psi* v} dl`` and the
smooth reference ``Ps = |T0|^2 L / (2 delta)``.

:class:`SWMSolver2D` runs the 3D solver's solve path (entry points,
budgeted chunk loop, block systems, factorization, power) and returns
the same :class:`~repro.swm.solver.SWMResult`; this module holds only
what the 2D problem changes: the profile mesh, the Kummer tables and
assembly, the segment lengths and the smooth reference.

The paper's Fig. 6 point: a 2D (ridged) surface of the same sigma/eta
absorbs noticeably *less* than a true 3D rough surface — 2D roughness
models underestimate the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from ..constants import METER_TO_UM
from ..errors import ConfigurationError
from ..telemetry import span
from .assembly2d import Assembly2DOptions
from .fastkernel2d import KummerTables, build_tables
from .geometry import SurfaceMesh2D, build_mesh_2d
from .plan import AssemblyPlan2D
from .solver import _SWMSolver


@dataclass(frozen=True)
class SWM2DOptions:
    """Numerical options of the 2D solver: its assembly.

    As in 3D, the solver's byte budget decides how samples stack
    (:meth:`SWMSolver2D.chunk_size`), and every assembled system is
    checked finite before it is factored.
    """

    assembly: Assembly2DOptions = field(default_factory=Assembly2DOptions)

    def to_spec(self) -> dict:
        """Content-hashable dict (keys the engine's result cache).
        The assembly part comes from :meth:`Assembly2DOptions.to_spec`,
        so the 2D kernel revision reaches every 2D hash."""
        return {"assembly": self.assembly.to_spec()}


_M_TABLE_BUILDS_2D = telemetry.counter(
    "repro_swm_kummer_table_builds_total",
    "2D Kummer kernel tables built because no cached table covered a "
    "chunk's height range.")


class SWMSolver2D(_SWMSolver):
    """Deterministic 2D SWM solver; a batched stack is ``(B, n)``
    profiles."""

    _stack_rank = 2
    _kernel_parts = 3
    _build_mesh = staticmethod(build_mesh_2d)
    _options_type = SWM2DOptions
    _table_builds = _M_TABLE_BUILDS_2D

    def _get_tables(self, keys: list[tuple[int, float]], ks: list[complex],
                    meshes: list[SurfaceMesh2D]) -> list[KummerTables]:
        """The cached tables of each ``(which_medium, frequency)`` in
        ``keys`` on the chunk's grid (:meth:`_cached_tables`); those
        that do not cover the chunk are built in one fused pass."""
        n, period = meshes[0].n, meshes[0].period
        m_max = self.options.assembly.m_max
        return self._cached_tables(
            keys, ks, meshes, lambda stale, z_extent: build_tables(
                stale, period, n, m_max, z_extent=z_extent))

    def _chunk_assembly(self, meshes: list[SurfaceMesh2D],
                        freqs: list[float],
                        ks: list[tuple[complex, complex]], meta: dict
                        ) -> Callable[[list], None]:
        """Every medium's cached Kummer tables, built or grown here in
        one pass, then the ``plan`` span; the call runs one fused
        kernel lookup and writes every medium on the one plan."""
        media = [k for pair in ks for k in pair]
        keys = [(which, f) for f in freqs for which in (1, 2)]
        kernels = self._get_tables(keys, media, meshes)
        with span("plan", **meta):
            plan = AssemblyPlan2D.build(meshes, self.options.assembly)
        media = list(zip(media, kernels))
        return lambda blocks: plan.write(media, blocks)

    @staticmethod
    def _elements(mesh: SurfaceMesh2D) -> np.ndarray:
        """True segment lengths, the ``dl`` of the power integral."""
        return mesh.true_lengths()

    def smooth_power(self, period_um: float, frequency_hz: float) -> float:
        """Smooth-surface absorbed power per unit y-length."""
        if period_um <= 0.0:
            raise ConfigurationError(
                f"period must be positive, got {period_um}"
            )
        delta_um = self.system.delta(frequency_hz) * METER_TO_UM
        t0 = self.system.flat_transmission(frequency_hz)
        return abs(t0) ** 2 * period_um / (2.0 * delta_um)
