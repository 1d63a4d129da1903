"""MOM assembly of the coupled SWM integral equations (3D).

Discretization: pulse (rooftop-free) basis on the uniform parameter grid
with point collocation — the "smooth rectangular basis" the paper credits
for SWM's cost advantage over RWG-based EM solvers (Section III-C).

For medium ``i`` the two kernels are

- single layer  ``S_ij = <G_i(r_i, r'_j)>  * J_j * dA``
- double layer  ``D_ij = <n'_j . grad' G_i(r_i, r'_j)> * J_j * dA``

with ``J dA`` the true area element and ``<.>`` a source-cell average.
The Green's function is split as ``G = G_free(primary) + G_reg`` where
``G_reg`` (Ewald sum with the primary image's free-space singularity
removed) is smooth on the whole patch once separations are wrapped to the
minimum image. ``G_reg`` is integrated by midpoint; the free-space primary
gets:

- the *diagonal*: an analytic ``1/r`` integral over the tilted cell plus
  the ``(e^{jkr} - 1)/(4 pi r) -> jk/(4 pi)`` correction;
- *near* pairs (wrapped parameter distance <= ``near_radius`` cells):
  q x q sub-cell quadrature on the local tangent plane;
- *far* pairs: midpoint.

The double-layer free-space primary integrates to ~0 on the diagonal
(principal value over a symmetric flat cell) and gets the same sub-cell
treatment for near pairs. Every sub-point of source cell ``j`` lies on
``j``'s tangent plane, so its separation ``s`` from the field point
satisfies ``s . (f_x, f_y, -1)_j = sign (dx f_x + dy f_y - dz)``, one
projection per entry: the near ``D`` entry is ``sign (g_x f_x + g_y f_y
- g_z)`` of the regularized gradient plus that projection times the
sub-cell mean of ``G'(r)/r``, and ``S`` takes the mean of ``G``.

All of it runs in :class:`~repro.swm.plan.AssemblyPlan3D`, whichever
kernel evaluator supplies ``G_reg`` (:meth:`AssemblyOptions.kernel`).
The plan writes each medium's ``D`` and ``S`` once, straight into the
solver's coupled block system; :meth:`~repro.swm.plan.AssemblyPlan3D.dense`
returns them as plain ``(B, N, N)`` stacks, and :func:`assemble_medium`
one mesh's pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from ..greens.ewald import EwaldConfig
from .fastkernel import (EWALD_KERNEL_REVISION, KERNEL_REVISION,
                         EwaldKernel, KernelTables, tables_for_mesh)
from .geometry import SurfaceMesh3D
# rectangle_inverse_distance_integral is re-exported from here.
from .plan import (AssemblyPlan3D, check_near_options,
                   rectangle_inverse_distance_integral)


@dataclass(frozen=True)
class AssemblyOptions:
    """Quadrature/truncation knobs for 3D assembly.

    ``use_tables`` picks the kernel evaluator (:meth:`kernel`): the
    tabulated kernel (:mod:`repro.swm.fastkernel`) or exact Ewald, its
    reference; both run through the one plan assembly. ``n_images =
    n_modes = 2`` (each must be >= 1) keeps the Ewald truncation error
    ~1e-5 relative at the default splitting parameter.
    """

    n_images: int = 2
    n_modes: int = 2
    ewald_split: float | None = None
    near_radius_cells: float = 2.0
    near_quadrature: int = 4
    use_tables: bool = True

    def __post_init__(self) -> None:
        if self.n_images < 1 or self.n_modes < 1:
            raise ConfigurationError(
                f"n_images and n_modes must be >= 1, got {self.n_images} "
                f"and {self.n_modes}")
        if self.ewald_split is not None and not self.ewald_split > 0.0:
            raise ConfigurationError(
                f"ewald_split must be None or > 0, got {self.ewald_split}")
        check_near_options(self)

    def ewald_config(self, period: float) -> EwaldConfig:
        return EwaldConfig(period=period, split=self.ewald_split,
                           n_images=self.n_images, n_modes=self.n_modes)

    def kernel(self, k: complex, period: float,
               tables: Callable[[], KernelTables]
               ) -> KernelTables | EwaldKernel:
        """One medium's kernel evaluator, picked here only: ``tables()``
        (the caller builds or caches them) or exact Ewald."""
        if self.use_tables:
            return tables()
        return EwaldKernel(k, self.ewald_config(period))

    def to_spec(self) -> dict:
        """Content-hashable dict of every knob that affects numerics
        (keys the engine's result cache), plus the picked kernel's
        revision so a cache never mixes values from two kernel
        implementations. ``asdict`` so a field added later can never be
        silently left out of the hash."""
        kernel = KERNEL_REVISION if self.use_tables else EWALD_KERNEL_REVISION
        return {**asdict(self), "kernel": kernel}


def assemble_medium(mesh: SurfaceMesh3D, k: complex,
                    options: AssemblyOptions | None = None,
                    tables: KernelTables | EwaldKernel | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (D, S) for one medium with wavenumber ``k``.

    Returns dense (N, N) complex matrices such that the discrete
    single/double layer operators are ``S @ v`` and ``D @ psi``: a
    one-mesh :class:`AssemblyPlan3D` call. ``tables``, the kernel
    evaluator (prebuilt tables amortize their build across samples),
    defaults to the one ``options`` picks, sized to this mesh.
    """
    options = options or AssemblyOptions()
    if tables is None:
        tables = options.kernel(k, mesh.period, lambda: tables_for_mesh(
            k, mesh, options.ewald_config(mesh.period)))
    plan = AssemblyPlan3D.build([mesh], options)
    d_mat, s_mat = plan.dense(((k, tables),))[0]
    return d_mat[0], s_mat[0]
