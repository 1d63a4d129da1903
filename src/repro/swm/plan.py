"""Explicit k-independent assembly plans for the SWM hot path.

An :class:`AssemblyPlan3D` / :class:`AssemblyPlan2D` holds the
k-independent intermediates of one mesh-batch assembly — pair
separations and distances, near-pair sub-cell geometry, self-term
factors — built once per mesh batch and consumed by any number of
per-wavenumber assemblies (two media x F frequencies). That is what
lets the solver stack neighboring frequencies
(``solve_mesh_many_multi_k``) and the engine fuse same-scenario jobs.

**Pair form.** The periodic kernel is reciprocal: with in-plane
separations wrapped to the minimum image, ``G(r_i - r_j) = G(r_j -
r_i)`` and its gradient is odd. A plan therefore keeps only the strict
upper triangle of collocation pairs ``i < j`` (``M = N(N-1)/2``; pair
``p`` is ``(iu[p], ju[p])``), and every kernel pass — each plan's
``eval_tables`` and the 3D free-space primary — runs on ``(B, M)``
arrays. The kernel is a value the plan is handed: in 3D tabulated
(:class:`~repro.swm.fastkernel.KernelTables`) or exact Ewald
(:class:`~repro.swm.fastkernel.EwaldKernel`), in 2D the Kummer offset
tables (:class:`~repro.swm.fastkernel2d.KummerTables`) or the exact
Kummer sum (:class:`~repro.swm.fastkernel2d.KummerKernel`). Tables of
one call share one fused lookup; an exact evaluator gets one
``evaluate`` call. ``assemble_k``
mirrors each medium's totals into ``(B, N, N)`` by parity
(:meth:`mirror`): the value is symmetric, the gradient antisymmetric
and the diagonal zero. What is not symmetric
stays full-size: the near-pair sub-cell quadrature (it averages over
the *source* cell's tangent plane), the analytic self terms on the
diagonal, and the ``D``/``S`` matrices, whose columns carry the source
cell's Jacobian and slopes.

In 2D the near-pair free-space term comes from the fused evaluator
:func:`~repro.greens.freespace.green2d_and_gradient`: ``G`` and
``(1/rho) dG/drho`` together, from a small-argument series in
``rho^2`` inside ``|k rho| <= 2.5`` (within 1e-13 of ``max(1,
|hankel1|)``) and from ``hankel1`` beyond, chosen per element. The
build stores ``rho^2`` and ``ln rho`` of every near centre (once per
unordered pair) and sub-segment point, which every medium and stacked
frequency reuses.

Pair indices, wrapped offsets and the pairs' kernel-table columns
depend only on the grid, so bounded caches keyed by the grid share
them, as read-only arrays, with every plan on that grid.

Plans never mutate their captured arrays in :meth:`assemble_k`, so one
plan can serve arbitrarily many wavenumbers. Every per-entry expression
is elementwise in the sample axis, so a plan over B meshes and B plans
over one mesh give bit-identical stacks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError, MeshError
from ..greens.freespace import EULER_GAMMA, green2d_and_gradient, green3d
from ..telemetry import span
from . import fastkernel2d
from .fastkernel import KernelTables, OffsetFold, fold_offsets, lookup
from .geometry import grid_coords


def _wrap(d: np.ndarray, period: float) -> np.ndarray:
    """Wrap separations to the minimum image in (-L/2, L/2]."""
    return d - period * np.round(d / period)


class GridPairs(NamedTuple):
    """The unique collocation pairs ``i < j`` of one grid.

    ``dx``/``dy`` are the wrapped in-plane offsets ``r_i - r_j`` of each
    pair (``dy`` is None on a 2D profile). Wrapping is odd, so the
    reversed pair has exactly the negated offsets, the ``L/2`` column
    included.
    """

    iu: np.ndarray
    ju: np.ndarray
    dx: np.ndarray
    dy: np.ndarray | None


def _pairs(x: np.ndarray, y: np.ndarray | None, period: float) -> GridPairs:
    iu, ju = np.triu_indices(x.size, 1)
    dx = _wrap(x[iu] - x[ju], period)
    dy = None if y is None else _wrap(y[iu] - y[ju], period)
    for arr in (iu, ju, dx, dy):
        if arr is not None:
            arr.setflags(write=False)
    return GridPairs(iu, ju, dx, dy)


@lru_cache(maxsize=4)
def _grid_pairs(n: int, period: float) -> GridPairs:
    """Pairs of the n x n grid every 3D mesh shares
    (:func:`~repro.swm.geometry.grid_coords`)."""
    coords = grid_coords(n, period)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return _pairs(xx.ravel(), yy.ravel(), period)


@lru_cache(maxsize=4)
def _profile_pairs(n: int, period: float) -> GridPairs:
    """Pairs of the n-point grid every 2D profile shares."""
    return _pairs(grid_coords(n, period), None, period)


@lru_cache(maxsize=4)
def _grid_fold(n: int, period: float) -> OffsetFold:
    """Canonical kernel-table column and orientation of every pair of
    the n x n grid (:func:`~repro.swm.fastkernel.fold_offsets`), built
    once per ``(n, period)`` and shared by every plan on that grid."""
    pairs = _grid_pairs(n, period)
    return fold_offsets(pairs.dx, pairs.dy, n, period)


@lru_cache(maxsize=4)
def _profile_fold(n: int, period: float) -> fastkernel2d.ProfileFold:
    """Kummer-table column, x-sign and log-remainder seeds of every pair
    of the n-point profile grid
    (:func:`~repro.swm.fastkernel2d.fold_profile_offsets`), shared by
    every plan on that grid."""
    return fastkernel2d.fold_profile_offsets(_profile_pairs(n, period).dx,
                                             n, period)


def _near_set(pairs: GridPairs, radius: float):
    """Pairs within wrapped in-plane distance ``radius``, both orientations.

    Returns ``(rows, cols, pair, sign)``: entry ``e`` of the near set is
    matrix element ``(rows[e], cols[e])``, which is pair ``pair[e]`` read
    with ``sign[e]`` (+1 on the upper triangle, -1 on the lower one).
    The P upper entries come first; entry ``e + P`` is entry ``e``'s
    reversed pair.
    """
    dx, dy = pairs.dx, pairs.dy
    rho = np.abs(dx) if dy is None else np.sqrt(dx * dx + dy * dy)
    p = np.flatnonzero(rho <= radius + 1e-12)
    return (np.concatenate([pairs.iu[p], pairs.ju[p]]),
            np.concatenate([pairs.ju[p], pairs.iu[p]]),
            np.concatenate([p, p]),
            np.repeat([1.0, -1.0], p.size))


def check_near_options(options) -> None:
    """Reject near-pair knobs that no assembly can honor (an empty
    sub-cell rule averages to NaN)."""
    if not options.near_radius_cells >= 0.0:
        raise ConfigurationError(f"near_radius_cells must be >= 0, got "
                                 f"{options.near_radius_cells}")
    if options.near_quadrature < 1:
        raise ConfigurationError(f"near_quadrature must be >= 1, got "
                                 f"{options.near_quadrature}")


def _subcell_offsets(q: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of a q x q subdivision of a centered cell."""
    t = (np.arange(q) + 0.5) / q - 0.5
    u, v = np.meshgrid(t * spacing, t * spacing, indexing="ij")
    return u.ravel(), v.ravel()


def rectangle_inverse_distance_integral(a, b):
    """``integral of 1/r`` over centered ``a x b`` rectangles (closed
    form, elementwise): ``2 a asinh(b/a) + 2 b asinh(a/b)``."""
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise MeshError(f"rectangle sides must be positive, got {np.min(a)}"
                        f", {np.min(b)}")
    return 2.0 * a * np.arcsinh(b / a) + 2.0 * b * np.arcsinh(a / b)


def check_same_grid(meshes, what: str) -> None:
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


class _PairPlan:
    """What both plans share: the mesh batch, its grid pairs and the
    kernel pass on them. Each plan supplies its tables class
    (``_table_type``), their fused ``_lookup`` and its grid's cached
    ``_fold``."""

    def __init__(self, meshes, options, pairs: GridPairs) -> None:
        self.meshes = meshes
        self.options = options
        self.pairs = pairs
        self.n = meshes[0].size
        self.period = meshes[0].period
        self.spacing = meshes[0].spacing
        self.diag = np.arange(self.n)

    @property
    def batch(self) -> int:
        return len(self.meshes)

    @property
    def separations(self) -> tuple:
        """The pairs' ``(dx, dy, dz)`` (``(dx, dz)`` on a profile), the
        arguments of an exact evaluator's ``evaluate``."""
        return tuple(d for d in (self.pairs.dx, self.pairs.dy, self.dz)
                     if d is not None)

    def eval_tables(self, kernels) -> list[tuple]:
        """The kernel and its gradient on the pairs for each evaluator.

        Returns ``(B, M)`` arrays per evaluator, in order. The tables
        among them share one fused lookup: each pair reads its grid's
        cached table column, and one set of node indices and
        interpolation weights serves all tables — bit-identical to
        evaluating each table independently. An exact evaluator gets
        one ``evaluate`` call.
        """
        kernels = list(kernels)
        tables = [kern for kern in kernels
                  if isinstance(kern, self._table_type)]
        with span("kernel"):
            fused = iter(self._lookup(tables, self._fold(self.meshes[0].n,
                                                         self.period),
                                      self.dz) if tables else ())
            return [next(fused) if isinstance(kern, self._table_type)
                    else kern.evaluate(*self.separations)
                    for kern in kernels]

    def mirror(self, values: np.ndarray, odd: bool) -> np.ndarray:
        """``(B, N, N)`` stack of per-pair ``(B, M)`` values by parity.

        Pair ``p`` fills ``(iu[p], ju[p])`` with its value and
        ``(ju[p], iu[p])`` with the value (``odd=False``, a kernel) or
        its negation (``odd=True``, a gradient); the diagonal is zero.
        """
        iu, ju = self.pairs.iu, self.pairs.ju
        out = np.zeros((self.batch, self.n, self.n), dtype=np.complex128)
        out[:, iu, ju] = values
        out[:, ju, iu] = -values if odd else values
        return out


class AssemblyPlan3D(_PairPlan):
    """Every k-independent intermediate of one 3D mesh-batch assembly.

    Build with :meth:`build`; evaluate the regularized kernel ``(g, gx,
    gy, gz)`` (tables or exact Ewald) on the collocation pairs for any
    number of media/frequencies with :meth:`eval_tables`; assemble each
    medium's ``(D, S)`` stacks with :meth:`assemble_k`.
    """

    _table_type = KernelTables
    _lookup = staticmethod(lookup)
    _fold = staticmethod(_grid_fold)

    @classmethod
    def build(cls, meshes, options) -> "AssemblyPlan3D":
        """Capture the k-independent assembly state of a mesh batch.

        All meshes must share the same grid (``n``, ``period``) — only
        heights differ (the MC/SSCM sample structure). Raises
        :class:`~repro.errors.MeshError` otherwise.
        """
        meshes = list(meshes)
        check_same_grid(meshes, "batched assembly")
        plan = cls(meshes, options, _grid_pairs(meshes[0].n,
                                                meshes[0].period))
        pairs, d = plan.pairs, plan.spacing
        plan.area = meshes[0].cell_area
        plan.dx, plan.dy = pairs.dx, pairs.dy
        z = np.stack([mesh.z for mesh in meshes])
        plan.fx = fx = np.stack([mesh.fx for mesh in meshes])
        plan.fy = fy = np.stack([mesh.fy for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        plan.dz = dz = z[:, pairs.iu] - z[:, pairs.ju]

        # Free-space primary distances on the pairs (the per-k phase is
        # applied in assemble_k).
        plan.r = np.sqrt(pairs.dx * pairs.dx + pairs.dy * pairs.dy
                         + dz * dz)
        plan.inv_r = 1.0 / plan.r

        # Near-pair sub-cell geometry, in both orientations: source
        # sub-points on the local tangent plane of the source cell. (A
        # quadratic/Hessian cell model was evaluated and rejected: at
        # practical grid resolutions the curvature radius of a
        # sigma ~ eta surface is below the cell size, so the parabolic
        # expansion diverges and destabilizes the system.)
        rows, cols, pair, sign = _near_set(
            pairs, options.near_radius_cells * d)
        plan.rows, plan.cols, plan.pair, plan.sign = rows, cols, pair, sign
        if rows.size:
            du, dv = _subcell_offsets(options.near_quadrature, d)
            plan.sx = (sign * pairs.dx[pair])[:, None] - du[None, :]
            plan.sy = (sign * pairs.dy[pair])[:, None] - dv[None, :]
            plan.sz = ((sign * dz[:, pair])[:, :, None]
                       - (fx[:, cols][:, :, None] * du[None, None, :]
                          + fy[:, cols][:, :, None] * dv[None, None, :]))
            plan.rr = np.sqrt(plan.sx * plan.sx + plan.sy * plan.sy
                              + plan.sz * plan.sz)
            plan.inv_rr = 1.0 / plan.rr

        # Self-term geometry: the tilted cell as a rectangle with the
        # cell's x edge, d sqrt(1 + fx^2), as one side and the exact
        # true area.
        plan.ds_true = jac * plan.area
        side_a = d * np.sqrt(1.0 + fx ** 2)
        plan.i_rect = rectangle_inverse_distance_integral(
            side_a, plan.ds_true / side_a)
        plan.jac_area = jac[:, None, :] * plan.area
        return plan

    def assemble_k(self, k: complex, regs, g_reg0: complex
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble one medium's ``(D, S)`` stacks at wavenumber ``k``.

        ``regs`` is this medium's ``(g_reg, gx_reg, gy_reg, gz_reg)``
        from :meth:`eval_tables`; ``g_reg0`` its evaluator's
        ``regular_at_zero()``. The free-space primary is
        added on the pairs (``dG/dr = (jk - 1/r) G``), the totals are
        mirrored, and the near pairs and the diagonal are then
        overwritten with their sub-cell and self terms.
        """
        g_reg, gx_reg, gy_reg, gz_reg = regs
        rows, cols, pair, sign = self.rows, self.cols, self.pair, self.sign

        g0 = green3d(self.r, k)
        dgdr_r = (1j * k - self.inv_r) * g0 * self.inv_r
        g_total = self.mirror(g_reg + g0, odd=False)
        gx_total = self.mirror(gx_reg + dgdr_r * self.dx, odd=True)
        gy_total = self.mirror(gy_reg + dgdr_r * self.dy, odd=True)
        gz_total = self.mirror(gz_reg + dgdr_r * self.dz, odd=True)

        if rows.size:
            with span("near"):
                grr = green3d(self.rr, k)
                dg_sub = ((1j * k - self.inv_rr) * grr) / self.rr
                g_total[:, rows, cols] = g_reg[:, pair] + grr.mean(axis=-1)
                gx_total[:, rows, cols] = (sign * gx_reg[:, pair]
                                           + (dg_sub * self.sx).mean(axis=-1))
                gy_total[:, rows, cols] = (sign * gy_reg[:, pair]
                                           + (dg_sub * self.sy).mean(axis=-1))
                gz_total[:, rows, cols] = (sign * gz_reg[:, pair]
                                           + (dg_sub * self.sz).mean(axis=-1))

        s_mat = g_total * self.jac_area
        s_mat[:, self.diag, self.diag] = (
            self.i_rect / (4.0 * math.pi)
            + (1j * k / (4.0 * math.pi)) * self.ds_true
            + g_reg0 * self.ds_true)

        # The mirrored gradients have a zero diagonal, so D does too:
        # the flat-cell principal value. (The leading curvature
        # correction, (f_xx + f_yy) I_cell / 16 pi, was implemented and
        # rejected: it assumes the curvature is resolved, |kappa| dx <<
        # 1, which fails precisely on the rough meshes where it would
        # matter, and then destabilizes (1/2 I - D). Accuracy at fixed
        # roughness comes from grid refinement instead.)
        d_mat = (gx_total * self.fx[:, None, :]
                 + gy_total * self.fy[:, None, :]
                 - gz_total) * self.area
        return d_mat, s_mat


class AssemblyPlan2D(_PairPlan):
    """Every k-independent intermediate of one 2D profile-batch assembly.

    The 2D analog of :class:`AssemblyPlan3D`: :meth:`build` once per
    profile batch, :meth:`eval_tables` for the kernel pass ``(g, gx,
    gz)`` on the pairs over any number of evaluators (Kummer tables or
    the exact Kummer sum), :meth:`assemble_k` per medium. Both
    evaluators return the *total* periodic kernel — no off-diagonal
    pair has zero separation — so the free-space Hankel terms are
    needed only at the near pairs.
    """

    _table_type = fastkernel2d.KummerTables
    _lookup = staticmethod(fastkernel2d.lookup)
    _fold = staticmethod(_profile_fold)

    @classmethod
    def build(cls, meshes, options) -> "AssemblyPlan2D":
        """Capture the k-independent assembly state of a profile batch."""
        meshes = list(meshes)
        check_same_grid(meshes, "batched 2D assembly")
        plan = cls(meshes, options, _profile_pairs(meshes[0].n,
                                                   meshes[0].period))
        pairs, d = plan.pairs, plan.spacing
        plan.dx = pairs.dx
        z = np.stack([mesh.z for mesh in meshes])
        plan.fx = fx = np.stack([mesh.fx for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        plan.dz = dz = z[:, pairs.iu] - z[:, pairs.ju]

        # Near pairs: the separations of each unordered pair's centres
        # (for the free-space term the total kernel carries) and, in
        # both orientations, the sub-segment geometry. The free-space
        # evaluator reads rho^2 and ln rho, which serve every medium.
        rows, cols, pair, sign = _near_set(
            pairs, options.near_radius_cells * d)
        plan.rows, plan.cols, plan.pair = rows, cols, pair
        if rows.size:
            plan.centre = centre = pair[:pair.size // 2]
            plan.centre_dx = cdx = pairs.dx[centre]
            plan.centre_dz = cdz = dz[:, centre]
            q = options.near_quadrature
            du = ((np.arange(q) + 0.5) / q - 0.5) * d
            plan.sx = (sign * pairs.dx[pair])[:, None] - du[None, :]
            plan.sz = ((sign * dz[:, pair])[:, :, None]
                       - fx[:, cols][:, :, None] * du[None, None, :])
            # One (B, P + 2 P q) row per sample: the P centres, then
            # the sub-segment points, for one evaluator call per medium.
            plan.near_rho2 = np.concatenate(
                [cdx * cdx + cdz * cdz,
                 (plan.sx * plan.sx + plan.sz * plan.sz).reshape(
                     len(meshes), -1)], axis=1)
            plan.near_log = 0.5 * np.log(plan.near_rho2)

        # Self-term geometry.
        plan.h = jac * d
        plan.jac_d = jac[:, None, :] * d
        return plan

    def assemble_k(self, kk: complex, totals, g_reg0: complex
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble one medium's ``(D, S)`` stacks at wavenumber ``kk``.

        ``totals`` is this medium's ``(g, gx, gz)`` from
        :meth:`eval_tables` and ``g_reg0`` its evaluator's
        ``regular_at_zero()``.
        At the near pairs the free-space term is subtracted from the
        total, once per unordered pair, and replaced by its sub-segment
        average in each orientation; both come from the fused
        :func:`~repro.greens.freespace.green2d_and_gradient`.
        """
        g, gx, gz = totals
        rows, cols = self.rows, self.cols
        g_total = self.mirror(g, odd=False)
        gx_total = self.mirror(gx, odd=True)
        gz_total = self.mirror(gz, odd=True)

        if rows.size:
            with span("near"):
                g_all, dg_all = green2d_and_gradient(self.near_rho2,
                                                     self.near_log, kk)
                centre = self.centre
                g0, dg0 = g_all[:, :centre.size], dg_all[:, :centre.size]
                g_sub = g_all[:, centre.size:].reshape(self.sz.shape)
                dg_sub = dg_all[:, centre.size:].reshape(self.sz.shape)
                g_reg = g[:, centre] - g0
                gx_reg = gx[:, centre] - dg0 * self.centre_dx
                gz_reg = gz[:, centre] - dg0 * self.centre_dz
                g_total[:, rows, cols] = (np.concatenate([g_reg, g_reg], 1)
                                          + g_sub.mean(axis=-1))
                gx_total[:, rows, cols] = (
                    np.concatenate([gx_reg, -gx_reg], 1)
                    + (dg_sub * self.sx).mean(axis=-1))
                gz_total[:, rows, cols] = (
                    np.concatenate([gz_reg, -gz_reg], 1)
                    + (dg_sub * self.sz).mean(axis=-1))

        s_mat = g_total * self.jac_d
        log_part = np.log(kk * self.h / 4.0) + EULER_GAMMA - 1.0
        free = 0.25j * self.h * (1.0 + (2j / math.pi) * log_part)
        s_mat[:, self.diag, self.diag] = free + g_reg0 * self.h

        d_mat = (gx_total * self.fx[:, None, :] - gz_total) * self.spacing
        return d_mat, s_mat
