"""Scalar Wave Modeling solvers (the paper's Section III).

- :class:`SWMSolver3D` — the full 3D formulation (MOM over a
  doubly-periodic patch with Ewald-accelerated Green's functions);
- :class:`SWMSolver2D` — the simplified y-uniform formulation (Fig. 6);
- mesh builders and assembly internals for advanced use.

Both solvers share one solve path (entry points, budgeted chunk loop,
block systems written in place, factorization, power) and return
:class:`SWMResult`; each supplies only its mesh, its kernel assembly,
its surface elements and its smooth-surface reference.
"""

from .assembly import AssemblyOptions, assemble_medium
from .assembly2d import Assembly2DOptions, assemble_medium_2d
from .fastkernel import KernelTables
from .geometry import (
    SurfaceMesh2D,
    SurfaceMesh3D,
    build_mesh_2d,
    build_mesh_3d,
    spectral_gradient_1d,
    spectral_gradient_2d,
)
from .power import (
    absorbed_power_2d,
    absorbed_power_3d,
    absorbed_power_density_3d,
    area_ratio_2d,
    area_ratio_3d,
)
from .solver import SWMOptions, SWMResult, SWMSolver3D
from .solver2d import SWM2DOptions, SWMSolver2D

__all__ = [
    "Assembly2DOptions",
    "AssemblyOptions",
    "KernelTables",
    "SWM2DOptions",
    "SWMOptions",
    "SWMResult",
    "SWMSolver2D",
    "SWMSolver3D",
    "SurfaceMesh2D",
    "SurfaceMesh3D",
    "absorbed_power_2d",
    "absorbed_power_3d",
    "absorbed_power_density_3d",
    "area_ratio_2d",
    "area_ratio_3d",
    "assemble_medium",
    "assemble_medium_2d",
    "build_mesh_2d",
    "build_mesh_3d",
    "spectral_gradient_1d",
    "spectral_gradient_2d",
]
