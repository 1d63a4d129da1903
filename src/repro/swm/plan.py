"""Explicit k-independent assembly plans for the SWM hot path.

PR 4/5 factored the k-independent work of one assembly — wrapped
separations, distances and reciprocals, near-pair sub-cell geometry,
self-term factors — out of the per-medium loop, but left it as
implicit locals inside two 300-line fused functions, recomputed for
every frequency of a sweep. An :class:`AssemblyPlan3D` /
:class:`AssemblyPlan2D` gives those intermediates a first-class home:
built once per mesh batch, consumed by any number of per-wavenumber
assemblies (two media x F frequencies), which is what lets the solver
stack neighboring frequencies (``solve_mesh_many_multi_k``) and the
engine fuse same-scenario jobs.

Every array a plan captures is computed by exactly the expressions the
fused assembly paths used inline (same order, same temporaries), and
:meth:`assemble_k` mirrors their per-k loop bodies entry for entry —
the plan refactor is **bit-identical** to the PR 4/5 fused paths, which
were themselves gated bit-identical to the per-mesh references. Plans
never mutate their captured arrays in ``assemble_k``, so one plan can
serve arbitrarily many wavenumbers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import MeshError
from ..greens.freespace import green2d, green2d_radial_derivative, green3d
from ..greens.periodic2d import EULER_GAMMA, periodic_green2d_pair
from .geometry import SurfaceMesh2D, SurfaceMesh3D, grid_coords


def _wrap(d: np.ndarray, period: float) -> np.ndarray:
    """Wrap separations to the minimum image in (-L/2, L/2]."""
    return d - period * np.round(d / period)


@lru_cache(maxsize=4)
def _grid_offsets(n: int, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped in-plane separations ``(dx, dy)`` of the n x n grid.

    Every 3D mesh shares :func:`~repro.swm.geometry.grid_coords`, so
    the ``(N, N)`` separations depend on ``(n, period)`` only. The
    diagonal of ``dx`` holds a harmless nonzero separation (the self
    terms are patched analytically). Read-only: plans share them.
    """
    coords = grid_coords(n, period)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    x, y = xx.ravel(), yy.ravel()
    dx = _wrap(x[:, None] - x[None, :], period)
    dy = _wrap(y[:, None] - y[None, :], period)
    np.fill_diagonal(dx, 0.25 * period)
    dx.setflags(write=False)
    dy.setflags(write=False)
    return dx, dy


@lru_cache(maxsize=4)
def _grid_phases(n: int, period: float, n_modes: int):
    """Per-shell spectral phase sums of the n x n grid (see
    :func:`~repro.swm.fastkernel.shell_phase_sums`), built once per
    ``(n, period, n_modes)`` and shared by every plan on that grid."""
    from .fastkernel import shell_phase_sums

    return shell_phase_sums(*_grid_offsets(n, period), period, n_modes)


def _near_pairs(mesh: SurfaceMesh3D, radius_cells: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i != j, with wrapped parameter distance <= radius."""
    d = mesh.spacing
    dx = _wrap(mesh.x[:, None] - mesh.x[None, :], mesh.period)
    dy = _wrap(mesh.y[:, None] - mesh.y[None, :], mesh.period)
    rho = np.sqrt(dx * dx + dy * dy)
    mask = rho <= radius_cells * d + 1e-12
    np.fill_diagonal(mask, False)
    return np.nonzero(mask)


def _subcell_offsets(q: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of a q x q subdivision of a centered cell."""
    t = (np.arange(q) + 0.5) / q - 0.5
    u, v = np.meshgrid(t * spacing, t * spacing, indexing="ij")
    return u.ravel(), v.ravel()


def _check_same_grid(meshes, what: str) -> None:
    if not meshes:
        raise MeshError(f"{what} needs at least one mesh")
    base = meshes[0]
    for mesh in meshes[1:]:
        if mesh.n != base.n or mesh.period != base.period:
            raise MeshError(
                f"{what} requires meshes sharing grid and period; "
                f"got n={mesh.n} L={mesh.period} vs n={base.n} "
                f"L={base.period}"
            )


class AssemblyPlan3D:
    """Every k-independent intermediate of one 3D mesh-batch assembly.

    Build with :meth:`build`; evaluate the tabulated regularized kernel
    for any number of media/frequencies in one fused pass with
    :meth:`eval_tables`; assemble each medium's ``(D, S)`` stacks with
    :meth:`assemble_k`. The captured arrays are exactly what
    ``assemble_media_pair_many`` computed inline before each per-k loop.
    """

    def __init__(self, meshes, options, *, n, spacing, area, diag, period,
                 dx, dy, dz, fx, fy, r, inv_r, rows, cols,
                 sx, sy, sz, rr, inv_rr, ds_true, i_rect, jac_area) -> None:
        self.meshes = meshes
        self.options = options
        self.n = n
        self.spacing = spacing
        self.area = area
        self.diag = diag
        self.period = period
        self.dx = dx
        self.dy = dy
        self.dz = dz
        self.fx = fx
        self.fy = fy
        self.r = r
        self.inv_r = inv_r
        self.rows = rows
        self.cols = cols
        self.sx = sx
        self.sy = sy
        self.sz = sz
        self.rr = rr
        self.inv_rr = inv_rr
        self.ds_true = ds_true
        self.i_rect = i_rect
        self.jac_area = jac_area

    @property
    def batch(self) -> int:
        return len(self.meshes)

    @classmethod
    def build(cls, meshes, options) -> "AssemblyPlan3D":
        """Capture the k-independent assembly state of a mesh batch.

        All meshes must share the same grid (``n``, ``period``) — only
        heights differ (the MC/SSCM sample structure). Raises
        :class:`~repro.errors.MeshError` otherwise.
        """
        meshes = list(meshes)
        _check_same_grid(meshes, "batched assembly")
        base = meshes[0]

        n = base.size
        d = base.spacing
        area = base.cell_area
        diag = np.arange(n)

        dx, dy = _grid_offsets(base.n, base.period)
        z = np.stack([mesh.z for mesh in meshes])
        fx = np.stack([mesh.fx for mesh in meshes])
        fy = np.stack([mesh.fy for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        dz = z[:, :, None] - z[:, None, :]

        # Free-space primary: shared distances/directions (the per-k
        # phase is applied in assemble_k).
        r = np.sqrt(dx * dx + dy * dy + dz * dz)
        r[:, diag, diag] = 1.0
        inv_r = 1.0 / r

        # Near-pair sub-cell geometry (k-independent, shared).
        rows, cols = _near_pairs(base, options.near_radius_cells)
        sx = sy = sz = rr = inv_rr = None
        if rows.size:
            q = options.near_quadrature
            du, dv = _subcell_offsets(q, d)
            sx = dx[rows, cols][:, None] - du[None, :]
            sy = dy[rows, cols][:, None] - dv[None, :]
            sz = (dz[:, rows, cols][:, :, None]
                  - (fx[:, cols][:, :, None] * du[None, None, :]
                     + fy[:, cols][:, :, None] * dv[None, None, :]))
            rr = np.sqrt(sx * sx + sy * sy + sz * sz)
            inv_rr = 1.0 / rr

        # Self-term geometry (k-independent, shared).
        ds_true = jac * area
        side_a = d * np.sqrt(1.0 + fx ** 2)
        side_b = ds_true / side_a
        i_rect = (2.0 * side_a * np.arcsinh(side_b / side_a)
                  + 2.0 * side_b * np.arcsinh(side_a / side_b))
        jac_area = jac[:, None, :] * area

        return cls(meshes, options, n=n, spacing=d, area=area, diag=diag,
                   period=base.period, dx=dx, dy=dy, dz=dz, fx=fx, fy=fy,
                   r=r, inv_r=inv_r, rows=rows, cols=cols, sx=sx, sy=sy,
                   sz=sz, rr=rr, inv_rr=inv_rr, ds_true=ds_true,
                   i_rect=i_rect, jac_area=jac_area)

    def eval_tables(self, tables) -> list[tuple]:
        """Regularized kernel+gradient for each :class:`KernelTables`.

        One fused pass over the plan's separations shares the distances,
        gather positions and the grid's cached shell phase sums across
        all tables (any number of media x frequencies) — bit-identical
        to evaluating each table independently.
        """
        from .fastkernel import green_and_gradient_multi

        phases = _grid_phases(self.meshes[0].n, self.period,
                              self.options.n_modes)
        return green_and_gradient_multi(tables, self.dx, self.dy, self.dz,
                                        phases)

    def assemble_k(self, k: complex, regs, g_reg0: complex
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble one medium's ``(D, S)`` stacks at wavenumber ``k``.

        ``regs`` is this medium's ``(g_reg, gx_reg, gy_reg, gz_reg)``
        from :meth:`eval_tables`; ``g_reg0`` its
        ``KernelTables.regular_at_zero()``. The body replicates the
        per-k loop of the PR 5 fused pair path expression for
        expression (``dgdr`` reproduces green3d_radial_derivative(r, k)
        bit for bit: ``(1j k - 1/r) G`` with the same ``1/r``).
        """
        g_reg, gx_reg, gy_reg, gz_reg = regs
        r, inv_r, dx, dy, dz = self.r, self.inv_r, self.dx, self.dy, self.dz
        diag = self.diag
        rows, cols = self.rows, self.cols

        g0 = green3d(r, k)
        dgdr = (1j * k - inv_r) * g0
        g0x = dgdr * dx * inv_r
        g0y = dgdr * dy * inv_r
        g0z = dgdr * dz * inv_r
        for arr in (g0, g0x, g0y, g0z):
            arr[:, diag, diag] = 0.0

        g_total = g_reg + g0
        gx_total = gx_reg + g0x
        gy_total = gy_reg + g0y
        gz_total = gz_reg + g0z

        if rows.size:
            grr = green3d(self.rr, k)
            g0_sub = grr.mean(axis=-1)
            dg_sub = ((1j * k - self.inv_rr) * grr) / self.rr
            g0x_sub = (dg_sub * self.sx).mean(axis=-1)
            g0y_sub = (dg_sub * self.sy).mean(axis=-1)
            g0z_sub = (dg_sub * self.sz).mean(axis=-1)
            g_total[:, rows, cols] = g_reg[:, rows, cols] + g0_sub
            gx_total[:, rows, cols] = gx_reg[:, rows, cols] + g0x_sub
            gy_total[:, rows, cols] = gy_reg[:, rows, cols] + g0y_sub
            gz_total[:, rows, cols] = gz_reg[:, rows, cols] + g0z_sub

        s_mat = g_total * self.jac_area
        s_mat[:, diag, diag] = (self.i_rect / (4.0 * math.pi)
                                + (1j * k / (4.0 * math.pi)) * self.ds_true
                                + g_reg0 * self.ds_true)

        d_mat = (gx_total * self.fx[:, None, :]
                 + gy_total * self.fy[:, None, :]
                 - gz_total) * self.area
        d_mat[:, diag, diag] = 0.0
        return d_mat, s_mat


class AssemblyPlan2D:
    """Every k-independent intermediate of one 2D profile-batch assembly.

    The 2D analog of :class:`AssemblyPlan3D`: :meth:`build` once per
    profile batch, :meth:`eval_ks` for the fused Kummer mode-sum pass
    over any number of wavenumbers, :meth:`assemble_k` per medium.
    """

    def __init__(self, meshes, options, *, n, spacing, diag, period,
                 dx, dz, fx, rho, inv, rows, cols, sx, sz, rr,
                 h, jac_d) -> None:
        self.meshes = meshes
        self.options = options
        self.n = n
        self.spacing = spacing
        self.diag = diag
        self.period = period
        self.dx = dx
        self.dz = dz
        self.fx = fx
        self.rho = rho
        self.inv = inv
        self.rows = rows
        self.cols = cols
        self.sx = sx
        self.sz = sz
        self.rr = rr
        self.h = h
        self.jac_d = jac_d

    @property
    def batch(self) -> int:
        return len(self.meshes)

    @classmethod
    def build(cls, meshes, options) -> "AssemblyPlan2D":
        """Capture the k-independent assembly state of a profile batch."""
        meshes = list(meshes)
        _check_same_grid(meshes, "batched 2D assembly")
        base = meshes[0]

        n = base.size
        d = base.spacing
        diag = np.arange(n)

        dx = _wrap(base.x[:, None] - base.x[None, :], base.period)
        z = np.stack([mesh.z for mesh in meshes])
        fx = np.stack([mesh.fx for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        dz = z[:, :, None] - z[:, None, :]
        np.fill_diagonal(dx, 0.25 * base.period)

        # Free-space primary: shared distances, per-k Hankel kernels.
        rho = np.sqrt(dx * dx + dz * dz)
        rho[:, diag, diag] = 1.0
        inv = 1.0 / rho

        # Near-pair sub-segment geometry (k-independent, shared).
        rho_param = np.abs(dx)
        near = (rho_param <= options.near_radius_cells * d + 1e-12)
        np.fill_diagonal(near, False)
        rows, cols = np.nonzero(near)
        sx = sz = rr = None
        if rows.size:
            q = options.near_quadrature
            du = ((np.arange(q) + 0.5) / q - 0.5) * d
            sx = dx[rows, cols][:, None] - du[None, :]
            sz = (dz[:, rows, cols][:, :, None]
                  - fx[:, cols][:, :, None] * du[None, None, :])
            rr = np.sqrt(sx * sx + sz * sz)

        # Self-term geometry (k-independent, shared).
        h = jac * d
        jac_d = jac[:, None, :] * d

        return cls(meshes, options, n=n, spacing=d, diag=diag,
                   period=base.period, dx=dx, dz=dz, fx=fx, rho=rho,
                   inv=inv, rows=rows, cols=cols, sx=sx, sz=sz, rr=rr,
                   h=h, jac_d=jac_d)

    def eval_ks(self, ks) -> list[tuple]:
        """Regularized 2D kernel+gradient for each wavenumber in ``ks``.

        One fused :func:`periodic_green2d_pair` pass — the
        recurrence-built mode factors and quasi-static asymptotes are
        shared across all wavenumbers, bit-identical to independent
        per-k evaluation.
        """
        return periodic_green2d_pair(self.dx, self.dz, tuple(ks),
                                     self.period,
                                     m_max=self.options.m_max,
                                     exclude_primary=True)

    def assemble_k(self, kk: complex, regs, g_reg0: complex
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble one medium's ``(D, S)`` stacks at wavenumber ``kk``.

        Replicates the per-k loop of the PR 5 fused 2D pair path
        expression for expression.
        """
        g_reg, gx_reg, gz_reg = regs
        rho, inv, dx, dz = self.rho, self.inv, self.dx, self.dz
        diag = self.diag
        rows, cols = self.rows, self.cols

        g0 = green2d(rho, kk)
        dgdr = green2d_radial_derivative(rho, kk)
        g0x = dgdr * dx * inv
        g0z = dgdr * dz * inv
        for arr in (g0, g0x, g0z):
            arr[:, diag, diag] = 0.0

        g_total = g_reg + g0
        gx_total = gx_reg + g0x
        gz_total = gz_reg + g0z

        if rows.size:
            g_total[:, rows, cols] = (g_reg[:, rows, cols]
                                      + green2d(self.rr, kk).mean(axis=-1))
            dg = green2d_radial_derivative(self.rr, kk) / self.rr
            gx_total[:, rows, cols] = (gx_reg[:, rows, cols]
                                       + (dg * self.sx).mean(axis=-1))
            gz_total[:, rows, cols] = (gz_reg[:, rows, cols]
                                       + (dg * self.sz).mean(axis=-1))

        s_mat = g_total * self.jac_d
        log_part = np.log(kk * self.h / 4.0) + EULER_GAMMA - 1.0
        free = 0.25j * self.h * (1.0 + (2j / math.pi) * log_part)
        s_mat[:, diag, diag] = free + g_reg0 * self.h

        d_mat = (gx_total * self.fx[:, None, :] - gz_total) * self.spacing
        d_mat[:, diag, diag] = 0.0
        return d_mat, s_mat
