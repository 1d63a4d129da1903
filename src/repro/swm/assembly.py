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
treatment for near pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, MeshError
from ..greens.ewald import EwaldConfig, periodic_green, periodic_green_gradient
from ..greens.freespace import green3d, green3d_radial_derivative
from .fastkernel import KERNEL_REVISION, tables_for_mesh
from .geometry import SurfaceMesh3D
from .plan import (AssemblyPlan3D, _grid_pairs, _near_set, _subcell_offsets,
                   _wrap, check_near_options)


@dataclass(frozen=True)
class AssemblyOptions:
    """Quadrature/truncation knobs for 3D assembly.

    ``use_tables`` selects the tabulated fast kernel
    (:mod:`repro.swm.fastkernel`); the exact Ewald path is kept for
    validation. ``n_images = n_modes = 2`` keeps the Ewald truncation
    error ~1e-5 relative at the default splitting parameter.
    """

    n_images: int = 2
    n_modes: int = 2
    ewald_split: float | None = None
    near_radius_cells: float = 2.0
    near_quadrature: int = 4
    use_tables: bool = True

    def __post_init__(self) -> None:
        if self.n_images < 0 or self.n_modes < 0:
            raise ConfigurationError(
                f"n_images and n_modes must be >= 0, got {self.n_images} "
                f"and {self.n_modes}")
        if self.ewald_split is not None and not self.ewald_split > 0.0:
            raise ConfigurationError(
                f"ewald_split must be None or > 0, got {self.ewald_split}")
        check_near_options(self)

    def ewald_config(self, period: float) -> EwaldConfig:
        return EwaldConfig(period=period, split=self.ewald_split,
                           n_images=self.n_images, n_modes=self.n_modes)

    def to_spec(self) -> dict:
        """Content-hashable dict of every knob that affects numerics
        (keys the engine's result cache), plus the kernel revision so a
        cache never mixes values from two kernel implementations.
        ``asdict`` so a field added later can never be silently left out
        of the hash."""
        import dataclasses

        return {**dataclasses.asdict(self), "kernel": KERNEL_REVISION}


def rectangle_inverse_distance_integral(a: float, b: float) -> float:
    """``integral of 1/r`` over a centered ``a x b`` rectangle (closed form).

    Equals ``2 a asinh(b/a) + 2 b asinh(a/b)``.
    """
    if a <= 0.0 or b <= 0.0:
        raise MeshError(f"rectangle sides must be positive, got {a}, {b}")
    return 2.0 * a * math.asinh(b / a) + 2.0 * b * math.asinh(a / b)


def _self_single_layer(mesh: SurfaceMesh3D, k: complex,
                       g_reg0: complex) -> np.ndarray:
    """Diagonal single-layer entries (length-N array).

    ``S_ii = (1/4pi) I_rect + (jk/4pi) dS_true + G_reg(0) dS_true`` where
    the tilted cell is approximated by a rectangle with one side along the
    steepest in-plane direction and the exact true area.
    """
    d = mesh.spacing
    ds_true = mesh.true_areas()
    side_a = d * np.sqrt(1.0 + mesh.fx ** 2)
    side_b = ds_true / side_a
    i_rect = (2.0 * side_a * np.arcsinh(side_b / side_a)
              + 2.0 * side_b * np.arcsinh(side_a / side_b))
    return (i_rect / (4.0 * math.pi)
            + (1j * k / (4.0 * math.pi)) * ds_true
            + g_reg0 * ds_true)


def assemble_media_multi_k(plan: AssemblyPlan3D, media) -> list[tuple]:
    """Assemble ``(D, S)`` stacks for every ``(k, tables)`` in ``media``.

    The multi-frequency hot path: one fused kernel-table lookup over
    all tables (two media x F stacked frequencies share the pairs'
    table columns, node indices and interpolation weights), then one
    per-k consumption of the plan per entry. Returns ``[(d, s), ...]``
    as ``(B, N, N)`` stacks in ``media`` order, **bit-identical** to
    assembling each ``(k, tables)`` independently against the same
    tables.
    """
    media = list(media)
    regs = plan.eval_tables([tab for _, tab in media])
    return [plan.assemble_k(k, reg, tab.regular_at_zero())
            for (k, tab), reg in zip(media, regs)]


def assemble_medium_many(meshes: "Sequence[SurfaceMesh3D]", k: complex,
                         options: AssemblyOptions | None = None,
                         tables: "KernelTables | None" = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (D, S) for one medium across a stack of meshes.

    All meshes must share the same grid (``n``, ``period``) — only the
    heights differ, which is exactly the MC/SSCM sample structure. The
    in-plane separations and near-pair sets are then shared across the
    stack, and every kernel evaluation runs once on ``(B, M)`` pair
    arrays instead of B times on ``(M,)`` ones. Returns ``(B, N, N)`` matrix
    stacks **bit-identical** to calling :func:`assemble_medium` per mesh
    with the same ``tables``.

    The vectorized path needs a shared :class:`KernelTables`; without
    one (``tables=None``, e.g. the exact-Ewald validation path) each
    mesh is assembled individually and the results stacked.
    """
    options = options or AssemblyOptions()
    meshes = list(meshes)
    if tables is None:
        if not meshes:
            raise MeshError("assemble_medium_many needs at least one mesh")
        base = meshes[0]
        for mesh in meshes[1:]:
            if mesh.n != base.n or mesh.period != base.period:
                raise MeshError(
                    "batched assembly requires meshes sharing grid and "
                    f"period; got n={mesh.n} L={mesh.period} vs n={base.n} "
                    f"L={base.period}"
                )
        pairs = [assemble_medium(mesh, k, options, tables=None)
                 for mesh in meshes]
        return (np.stack([d for d, _ in pairs]),
                np.stack([s for _, s in pairs]))

    plan = AssemblyPlan3D.build(meshes, options)
    return assemble_media_multi_k(plan, ((k, tables),))[0]


def assemble_medium(mesh: SurfaceMesh3D, k: complex,
                    options: AssemblyOptions | None = None,
                    tables: "KernelTables | None" = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (D, S) for one medium with wavenumber ``k``.

    Returns dense (N, N) complex matrices such that the discrete
    single/double layer operators are ``S @ v`` and ``D @ psi``.
    A prebuilt :class:`repro.swm.fastkernel.KernelTables` may be passed to
    amortize table construction across samples (same k and period).

    The tabulated-kernel path (``tables`` given or ``use_tables``) runs
    through a single-mesh :class:`AssemblyPlan3D`, so scalar calls share
    the batched hot path instead of paying a naive per-call price; the
    exact-Ewald validation path keeps its direct scalar implementation.
    """
    options = options or AssemblyOptions()
    cfg = options.ewald_config(mesh.period)

    if tables is not None or options.use_tables:
        if tables is None:
            tables = tables_for_mesh(k, mesh, cfg)
        plan = AssemblyPlan3D.build([mesh], options)
        d_mat, s_mat = assemble_media_multi_k(plan, ((k, tables),))[0]
        return d_mat[0], s_mat[0]

    n = mesh.size
    d = mesh.spacing
    area = mesh.cell_area

    dx = _wrap(mesh.x[:, None] - mesh.x[None, :], mesh.period)
    dy = _wrap(mesh.y[:, None] - mesh.y[None, :], mesh.period)
    dz = mesh.z[:, None] - mesh.z[None, :]
    # The diagonal is patched analytically below; give it a harmless
    # nonzero separation so the vectorized kernels stay finite there.
    np.fill_diagonal(dx, 0.25 * mesh.period)

    # Regular (smooth) part everywhere; exact for all off-diagonal terms
    # once the free-space primary is added back.
    g_reg = periodic_green(dx, dy, dz, k, cfg, exclude_primary=True)
    gx_reg, gy_reg, gz_reg = periodic_green_gradient(dx, dy, dz, k, cfg,
                                                     exclude_primary=True)
    g_reg0 = complex(periodic_green(np.array(0.0), np.array(0.0),
                                    np.array(0.0), k, cfg,
                                    exclude_primary=True))

    # Free-space primary at midpoints (diagonal patched later).
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    np.fill_diagonal(r, 1.0)
    g0 = green3d(r, k)
    dgdr = green3d_radial_derivative(r, k)
    inv_r = 1.0 / r
    g0x = dgdr * dx * inv_r
    g0y = dgdr * dy * inv_r
    g0z = dgdr * dz * inv_r
    np.fill_diagonal(g0, 0.0)
    np.fill_diagonal(g0x, 0.0)
    np.fill_diagonal(g0y, 0.0)
    np.fill_diagonal(g0z, 0.0)

    g_total = g_reg + g0
    gx_total = gx_reg + g0x
    gy_total = gy_reg + g0y
    gz_total = gz_reg + g0z

    # Near-pair sub-cell quadrature of the free-space primary.
    rows, cols, _, _ = _near_set(_grid_pairs(mesh.n, mesh.period),
                                 options.near_radius_cells * d)
    if rows.size:
        q = options.near_quadrature
        du, dv = _subcell_offsets(q, d)
        # Source sub-points on the local tangent plane of cell j.
        # (A quadratic/Hessian cell model was evaluated and rejected: at
        # practical grid resolutions the curvature radius of a
        # sigma ~ eta surface is below the cell size, so the parabolic
        # expansion diverges and destabilizes the system; see DESIGN.md.)
        sx = dx[rows, cols][:, None] - du[None, :]
        sy = dy[rows, cols][:, None] - dv[None, :]
        sz = (dz[rows, cols][:, None]
              - (mesh.fx[cols][:, None] * du[None, :]
                 + mesh.fy[cols][:, None] * dv[None, :]))
        rr = np.sqrt(sx * sx + sy * sy + sz * sz)
        g0_sub = green3d(rr, k).mean(axis=1)
        dg_sub = green3d_radial_derivative(rr, k) / rr
        g0x_sub = (dg_sub * sx).mean(axis=1)
        g0y_sub = (dg_sub * sy).mean(axis=1)
        g0z_sub = (dg_sub * sz).mean(axis=1)
        g_total[rows, cols] = g_reg[rows, cols] + g0_sub
        gx_total[rows, cols] = gx_reg[rows, cols] + g0x_sub
        gy_total[rows, cols] = gy_reg[rows, cols] + g0y_sub
        gz_total[rows, cols] = gz_reg[rows, cols] + g0z_sub

    # Single layer: S_ij = G_ij * J_j * dA ; diagonal analytic.
    s_mat = g_total * (mesh.jac[None, :] * area)
    np.fill_diagonal(s_mat, _self_single_layer(mesh, k, g_reg0))

    # Double layer: D_ij = n'_j . grad' G * J_j dA
    #             = (grad_Delta G) . (fx_j, fy_j, -1) * dA
    # (n' J = (-fx, -fy, 1); grad' = -grad_Delta).
    d_mat = (gx_total * mesh.fx[None, :]
             + gy_total * mesh.fy[None, :]
             - gz_total) * area
    # Flat-cell PV: the double-layer self term vanishes by symmetry. The
    # leading curvature correction ((f_xx + f_yy) I_cell / 16 pi) was
    # implemented and rejected: it assumes the curvature is resolved
    # (|kappa| dx << 1), which fails precisely on the rough meshes where
    # it would matter, and then destabilizes (1/2 I - D). Accuracy at
    # fixed roughness comes from grid refinement instead (documented in
    # DESIGN.md / EXPERIMENTS.md).
    np.fill_diagonal(d_mat, 0.0)

    return d_mat, s_mat
