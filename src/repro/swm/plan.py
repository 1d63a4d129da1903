"""Explicit k-independent assembly plans for the SWM hot path.

An :class:`AssemblyPlan3D` / :class:`AssemblyPlan2D` holds the
k-independent intermediates of one mesh-batch assembly — pair
separations and distances, near-pair inputs, self-term factors — built
once per mesh batch and consumed by any number of per-wavenumber
assemblies (two media x F frequencies). That is what lets the solver
stack neighboring frequencies (``solve_mesh_many_multi_k``) and the
engine fuse same-scenario jobs.

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
``evaluate`` call.

**Written once.** :meth:`_PairPlan.write` puts each medium's ``D`` and
``S`` straight into its block row of the coupled ``(B, 2N, 2N)``
system (:class:`MediumBlocks`), already in the row's form: ``½I - D1 |
(β S1) s`` or ``½I + D2 | (-S2) s``; no ``(B, N, N)`` stack is formed.
On pair ``p = (i, j)`` the columns carry the source cell's factors,
``S_ij = G_p J_j dA`` and ``S_ji = G_p J_i dA``, and the odd gradient
makes ``D_ji`` the negation of ``D_ij``'s expression read at column
``i``, so each triangle is one ``(B, M)`` expression, scattered once
with ascending flat indices (:func:`_system_index`). The near pairs
then overwrite their entries with the sub-cell quadrature (it averages
over the *source* cell's tangent plane), in blocks of at most
:data:`NEAR_BLOCK_POINTS` sub-points so that no near array grows with
the batch, and the diagonal gets the analytic self terms.

Every entry keeps the dense formula's operations: ``½I - D`` is the
subtraction ``0.0 - D`` (it fixes the sign of a zero), ``(β S) s``
multiplies in that order, and products written with ``out=`` keep the
operand order of the expression they replace (numpy's complex multiply
is not commutative bit for bit, in place or not). The lower triangle
adds ``0.0 + D'`` where the upper subtracts (and the reverse), ``D'``
being the negated expression: negation is exact, and the sum with
``0.0`` erases the one thing it can change, the sign of a zero.

In 3D every near sub-point lies on the source cell's tangent plane,
where ``sx fx + sy fy - sz`` is the entry's one projection ``sign (dx fx
+ dy fy - dz)``. The free-space primary's gradient, projected on the
cell's ``(fx, fy, -1)``, is then that projection times ``G'/r``, so a
near ``D`` entry needs one sub-cell mean, of ``G'/r = jk G/r - G/r^2``,
beside the mean of ``G`` that ``S`` needs. A near block lays its
sub-points out sub-point-major, ``(b, q^2, E)``, so each mean (of
``G``, ``G/r`` and ``G/r^2``) is a sum over a leading axis; its
k-independent distances, their reciprocals and the projections are
computed once for every medium and stacked frequency. Each medium's
phase ``exp(jkr)`` comes as separate real and imaginary planes from
real passes (:func:`~repro.greens.freespace.exp_jkr_parts`: one
``tan``, plus one real ``exp`` for a lossy medium, per sub-point), and
so does the pairs' free-space primary
(:func:`~repro.greens.freespace.green3d`).

In 2D the near-pair free-space term comes from the fused evaluator
:func:`~repro.greens.freespace.green2d_and_gradient`: ``G`` and
``(1/rho) dG/drho`` together, from a small-argument series in
``rho^2`` inside ``|k rho| <= 2.5`` (within 1e-13 of ``max(1,
|hankel1|)``) and from ``hankel1`` beyond, chosen per element. Each
near block evaluates ``rho^2`` and ``ln rho`` of every near centre
(once per unordered pair) and sub-segment point once, for every medium
and stacked frequency.

Pair indices, wrapped offsets, the pairs' kernel-table columns and
their positions in the block system depend only on the grid, so
bounded caches keyed by the grid share them, as read-only arrays, with
every plan on that grid.

Plans never mutate their captured arrays, so one plan can serve
arbitrarily many wavenumbers. Every per-entry expression is elementwise
in the sample axis, so a plan over B meshes and B plans over one mesh
write bit-identical systems.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigurationError, MeshError
from ..greens.freespace import (EULER_GAMMA, complex_from_parts,
                                 exp_jkr_parts, green2d_and_gradient, green3d)
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


#: Sub-cell (3D) or sub-segment (2D) points one near block evaluates:
#: a block holds as many samples as fit, one at least, so the near
#: pass's arrays keep one size whatever the batch.
NEAR_BLOCK_POINTS = 16384


class SystemIndex(NamedTuple):
    """Flat positions in a ``(2N, 2N)`` block system, from a block's
    corner: pair ``p``'s ``(iu[p], ju[p])`` (``upper``), the entries
    below the diagonal in row-major order (``lower``) with the pair
    each reads (``lower_pair``: ``(r, c)`` reads ``(c, r)``), and the
    diagonal."""

    upper: np.ndarray
    lower: np.ndarray
    lower_pair: np.ndarray
    diag: np.ndarray


@lru_cache(maxsize=4)
def _system_index(n: int) -> SystemIndex:
    """Block-system positions of the N-point grid's pairs, shared by
    every plan with ``n`` unknowns."""
    iu, ju = np.triu_indices(n, 1)
    rows, cols = np.tril_indices(n, -1)
    stride = 2 * n
    # triu_indices numbers pair (i, j), i < j, as i n - i (i + 1) / 2
    # + j - i - 1.
    index = SystemIndex(iu * stride + ju, rows * stride + cols,
                        cols * n - cols * (cols + 1) // 2 + rows - cols - 1,
                        np.arange(n) * (stride + 1))
    for arr in index:
        arr.setflags(write=False)
    return index


class MediumBlocks(NamedTuple):
    """One medium's block row of a ``(B, 2N, 2N)`` system: where its
    ``D`` and ``S`` are written, and in which form.

    Rows ``row`` to ``row + N`` of the C-contiguous ``out``, whose rows
    are ``2N`` long, receive ``diag I + D`` (``sign`` +1) or ``diag I -
    D`` (``sign`` -1) in their first N columns and ``s_form(S)`` in the
    last N; ``s_form`` transforms a ``(b, E)`` array of ``S`` entries in
    place. The solver's rows are ``½I - D1 | (β S1) s`` and ``½I + D2 |
    (-S2) s``; :meth:`_PairPlan.dense` writes ``D | S`` alone.
    """

    out: np.ndarray
    row: int
    sign: float
    diag: float
    s_form: Callable[[np.ndarray], None]


def _as_is(values: np.ndarray) -> None:
    """The ``s_form`` that writes ``S`` itself."""


class _PairPlan:
    """What both plans share: the mesh batch, its grid pairs, the kernel
    pass on them and the writes into the block system. Each plan
    supplies its tables class (``_table_type``), their fused
    ``_lookup``, its grid's cached ``_fold`` and, per medium, the pairs'
    totals (``_write_pairs``), the near blocks' shared geometry
    (``_near_geometry``) and their entries (``_write_near``)."""

    def __init__(self, meshes, options, pairs: GridPairs) -> None:
        self.meshes = meshes
        self.options = options
        self.pairs = pairs
        self.n = meshes[0].size
        self.period = meshes[0].period
        self.spacing = meshes[0].spacing
        self.index = _system_index(self.n)
        rows, cols, pair, sign = _near_set(
            pairs, options.near_radius_cells * self.spacing)
        self.rows, self.cols, self.pair, self.sign = rows, cols, pair, sign
        self.near_at = rows * (2 * self.n) + cols

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

    def write(self, media, blocks) -> None:
        """Write each ``(k, kernel)`` medium's ``D`` and ``S`` into its
        :class:`MediumBlocks`, in order.

        One kernel pass serves every medium (:meth:`eval_tables`). Per
        medium the pairs' totals fill both triangles and the diagonal
        gets the self terms; then the near pairs overwrite their
        entries, block by block, each block's geometry shared by every
        medium.
        """
        media = list(media)
        regs = self.eval_tables([kern for _, kern in media])
        for (k, kern), reg, out in zip(media, regs, blocks):
            self._write_pairs(out, k, reg, kern.regular_at_zero())
        if self.rows.size:
            with span("near"):
                for samples in self._near_blocks():
                    near = self._near_geometry(samples)
                    for (k, _), reg, out in zip(media, regs, blocks):
                        self._write_near(out, samples, k, reg, near)

    def dense(self, media) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each ``(k, kernel)`` medium's ``(D, S)`` as ``(B, N, N)``
        stacks: :meth:`write` with no system around them, so the values
        are the solver's, bit for bit, and each sample's are a
        one-sample plan's."""
        media, n = list(media), self.n
        # One block row each: the write layout's row stride is 2N.
        bufs = [np.empty((self.batch, n, 2 * n), dtype=np.complex128)
                for _ in media]
        self.write(media, [MediumBlocks(buf, 0, 1.0, 0.0, _as_is)
                           for buf in bufs])
        return [(buf[:, :n, :n], buf[:, :n, n:]) for buf in bufs]

    def _near_blocks(self) -> list[slice]:
        """Sample slices of at most :data:`NEAR_BLOCK_POINTS` near
        sub-points each, one sample at least."""
        per = max(1, NEAR_BLOCK_POINTS // self.sub_points)
        return [slice(lo, lo + per) for lo in range(0, self.batch, per)]

    def _put(self, out: MediumBlocks, col: int, at: np.ndarray,
             values, samples: slice = slice(None)) -> None:
        """Scatter ``values`` to the flat positions ``at`` of the block
        whose corner is ``(out.row, col)``."""
        flat = out.out.reshape(len(out.out), -1)
        flat[samples, out.row * 2 * self.n + col:][:, at] = values

    def _scatter(self, out: MediumBlocks, col: int, upper: np.ndarray,
                 lower: np.ndarray, diag) -> None:
        """Both triangles and the diagonal of the block whose corner is
        ``(out.row, col)``; ``lower`` is in pair order."""
        index = self.index
        with span("scatter"):
            self._put(out, col, index.upper, upper)
            self._put(out, col, index.lower,
                      np.take(lower, index.lower_pair, axis=1))
            self._put(out, col, index.diag, diag)

    def _write_s(self, out: MediumBlocks, upper: np.ndarray,
                 lower: np.ndarray, diag: np.ndarray) -> None:
        """``S`` on the pairs (column ``j``'s factor above the diagonal,
        column ``i``'s below) and on the diagonal, in ``out``'s form."""
        for values in (upper, lower, diag):
            out.s_form(values)
        self._scatter(out, self.n, upper, lower, diag)

    def _write_d(self, out: MediumBlocks, upper: np.ndarray,
                 lower: np.ndarray) -> None:
        """``D`` on the pairs: ``upper`` is ``D_ij``, ``lower`` the same
        expression read at column ``i``, which is ``-D_ji`` up to the
        sign of a zero; then ``out.diag`` on the diagonal, where the
        odd gradient leaves ``D`` zero (the flat-cell principal
        value)."""
        toward, away = ((np.add, np.subtract) if out.sign > 0
                        else (np.subtract, np.add))
        toward(0.0, upper, out=upper)
        away(0.0, lower, out=lower)
        self._scatter(out, 0, upper, lower, out.diag)

    def _write_entries(self, out: MediumBlocks, samples: slice,
                       s: np.ndarray, d: np.ndarray) -> None:
        """A near block's ``S`` and ``D`` entries, at ``(rows, cols)``."""
        out.s_form(s)
        (np.add if out.sign > 0 else np.subtract)(0.0, d, out=d)
        with span("scatter"):
            self._put(out, self.n, self.near_at, s, samples)
            self._put(out, 0, self.near_at, d, samples)


class AssemblyPlan3D(_PairPlan):
    """Every k-independent intermediate of one 3D mesh-batch assembly.

    Build with :meth:`build`; evaluate the regularized kernel ``(g, gx,
    gy, gz)`` (tables or exact Ewald) on the collocation pairs for any
    number of media/frequencies with :meth:`eval_tables`; write each
    medium's ``D`` and ``S`` into the block system with :meth:`write`.
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
        plan.fy = np.stack([mesh.fy for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        plan.dz = dz = (np.take(z, pairs.iu, axis=1)
                        - np.take(z, pairs.ju, axis=1))

        # Free-space primary distances on the pairs (the per-k phase is
        # applied per medium).
        plan.r = np.sqrt(pairs.dx * pairs.dx + pairs.dy * pairs.dy
                         + dz * dz)
        plan.inv_r = 1.0 / plan.r

        # Near pairs, in both orientations: each entry's in-plane
        # separation from the source cell's centre (``sdx``, ``sdy``)
        # and, sub-point-major as ``(q^2, E)``, the squared in-plane
        # distances to the source sub-points on the local tangent plane
        # of the source cell, whose heights each near block adds
        # (:meth:`_near_geometry`). (A quadratic/Hessian cell model was
        # evaluated and rejected: at practical grid resolutions the
        # curvature radius of a sigma ~ eta surface is below the cell
        # size, so the parabolic expansion diverges and destabilizes
        # the system.)
        if plan.rows.size:
            du, dv = _subcell_offsets(options.near_quadrature, d)
            plan.du, plan.dv = du[:, None], dv[:, None]
            plan.sdx = plan.sign * pairs.dx[plan.pair]
            plan.sdy = plan.sign * pairs.dy[plan.pair]
            sx = plan.sdx - plan.du
            sy = plan.sdy - plan.dv
            plan.sxy2 = sx * sx + sy * sy
            plan.sub_points = plan.sxy2.size

        # Self-term geometry: the tilted cell as a rectangle with the
        # cell's x edge, d sqrt(1 + fx^2), as one side and the exact
        # true area, which is also each column's J dA.
        plan.ds_true = jac * plan.area
        side_a = d * np.sqrt(1.0 + fx ** 2)
        plan.i_rect = rectangle_inverse_distance_integral(
            side_a, plan.ds_true / side_a)
        return plan

    def _write_pairs(self, out: MediumBlocks, k: complex, regs,
                     g_reg0: complex) -> None:
        """One medium's pair totals and self terms at wavenumber ``k``.

        ``regs`` is this medium's ``(g_reg, gx_reg, gy_reg, gz_reg)``
        from :meth:`eval_tables`; ``g_reg0`` its evaluator's
        ``regular_at_zero()``. The free-space primary is added on the
        pairs (``dG/dr = (jk - 1/r) G``).
        """
        g_reg, gx_reg, gy_reg, gz_reg = regs
        iu, ju = self.pairs.iu, self.pairs.ju
        # np.take gathers the columns' factors: a third of the time of
        # fancy indexing, and the same values.
        ds, fx, fy = self.ds_true, self.fx, self.fy
        g0 = green3d(self.r, k)
        dgdr_r = (1j * k - self.inv_r) * g0 * self.inv_r
        g = np.add(g_reg, g0, out=g0)
        self._write_s(out, g * np.take(ds, ju, axis=1),
                      g * np.take(ds, iu, axis=1),
                      self.i_rect / (4.0 * math.pi)
                      + (1j * k / (4.0 * math.pi)) * ds + g_reg0 * ds)
        del g, g0
        gx = gx_reg + dgdr_r * self.dx
        gy = gy_reg + dgdr_r * self.dy
        gz = gz_reg + dgdr_r * self.dz
        del dgdr_r
        # The diagonal keeps D's zero: the flat-cell principal value.
        # (The leading curvature correction, (f_xx + f_yy) I_cell / 16
        # pi, was implemented and rejected: it assumes the curvature is
        # resolved, |kappa| dx << 1, which fails precisely on the rough
        # meshes where it would matter, and then destabilizes (1/2 I -
        # D). Accuracy at fixed roughness comes from grid refinement
        # instead.)
        self._write_d(out, (gx * np.take(fx, ju, axis=1)
                            + gy * np.take(fy, ju, axis=1) - gz) * self.area,
                      (gx * np.take(fx, iu, axis=1)
                       + gy * np.take(fy, iu, axis=1) - gz) * self.area)

    def _near_geometry(self, samples: slice) -> tuple:
        """What every medium reads of a block's near entries: the source
        cells' slopes, the sub-point distances ``r`` and their
        reciprocals as ``(b, q^2, E)``, and the projection ``sign (dx fx
        + dy fy - dz)``.
        """
        # np.take keeps the gathers C-ordered, and with them every
        # (b, q^2, E) array: the means sum whole rows of it.
        fx_cell, fy_cell = self.fx[samples], self.fy[samples]
        fx = np.take(fx_cell, self.cols, axis=1)
        fy = np.take(fy_cell, self.cols, axis=1)
        sdz = self.sign * np.take(self.dz[samples], self.pair, axis=1)
        # Sub-point heights over each source cell's centre, per cell.
        rise = fx_cell[:, None] * self.du + fy_cell[:, None] * self.dv
        sz = sdz[:, None] - np.take(rise, self.cols, axis=2)
        rr = np.sqrt(self.sxy2 + sz * sz)
        proj = self.sdx * fx + self.sdy * fy - sdz
        return fx, fy, rr, 1.0 / rr, proj

    def _write_near(self, out: MediumBlocks, samples: slice, k: complex,
                    regs, near: tuple) -> None:
        """One medium's near entries in a block: the regularized kernel
        plus the free-space primary averaged over the source sub-cell.

        Every sub-point lies on the source cell's tangent plane, so the
        primary's gradient projects onto the cell's ``(fx, fy, -1)`` as
        ``proj G'/r`` with one ``proj`` per entry: ``S`` needs the mean
        of ``G = exp(jkr) / (4 pi r)`` and ``D`` the mean of ``G'/r =
        jk G/r - G/r^2``. The phase ``exp(jkr)`` comes as its real and
        imaginary parts, ``(2, b, q^2, E)``, from real passes
        (:func:`~repro.greens.freespace.exp_jkr_parts`); each mean scales
        both in place by ``1/r`` once more and sums the sub-point axis.
        """
        fx, fy, rr, inv_r, proj = near
        parts = exp_jkr_parts(k, rr)
        # Sub-cell means of G, G/r and G/r^2.
        scale = 1.0 / (4.0 * math.pi * self.du.size)
        means = []
        for _ in range(3):
            np.multiply(parts, inv_r, out=parts)
            means.append(complex_from_parts(parts.sum(axis=2)) * scale)
        # Freed before the per-entry gathers, which would otherwise
        # raise the block's peak (``solver._NEAR_BYTES``).
        del parts
        g_mean, g_r, g_r2 = means
        dg_mean = 1j * k * g_r - g_r2
        g_reg, gx_reg, gy_reg, gz_reg = (np.take(reg[samples], self.pair,
                                                 axis=1) for reg in regs)
        tangent = gx_reg * fx + gy_reg * fy - gz_reg
        self._write_entries(out, samples,
                            (g_reg + g_mean)
                            * np.take(self.ds_true[samples], self.cols,
                                      axis=1),
                            (self.sign * tangent + proj * dg_mean)
                            * self.area)


class AssemblyPlan2D(_PairPlan):
    """Every k-independent intermediate of one 2D profile-batch assembly.

    The 2D analog of :class:`AssemblyPlan3D`: :meth:`build` once per
    profile batch, :meth:`eval_tables` for the kernel pass ``(g, gx,
    gz)`` on the pairs over any number of evaluators (Kummer tables or
    the exact Kummer sum), :meth:`write` for every medium. Both
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
        plan.fx = np.stack([mesh.fx for mesh in meshes])
        jac = np.stack([mesh.jac for mesh in meshes])
        plan.dz = z[:, pairs.iu] - z[:, pairs.ju]

        # Near pairs: the in-plane separations of each unordered pair's
        # centres (for the free-space term the total kernel carries)
        # and, in both orientations, of the sub-segment points; each
        # near block adds their heights (:meth:`_near_geometry`).
        if plan.rows.size:
            plan.centre = plan.pair[:plan.pair.size // 2]
            plan.centre_dx = pairs.dx[plan.centre]
            q = options.near_quadrature
            plan.du = ((np.arange(q) + 0.5) / q - 0.5) * d
            plan.sx = (plan.sign * pairs.dx[plan.pair])[:, None] - plan.du
            plan.sub_points = plan.sx.size

        # Self-term geometry: the true segment lengths, which are also
        # each column's J d.
        plan.h = jac * d
        return plan

    def _write_pairs(self, out: MediumBlocks, kk: complex, totals,
                     g_reg0: complex) -> None:
        """One medium's pair totals and self terms at wavenumber
        ``kk``. ``totals`` is this medium's ``(g, gx, gz)`` from
        :meth:`eval_tables` and ``g_reg0`` its evaluator's
        ``regular_at_zero()``."""
        g, gx, gz = totals
        iu, ju = self.pairs.iu, self.pairs.ju
        log_part = np.log(kk * self.h / 4.0) + EULER_GAMMA - 1.0
        free = 0.25j * self.h * (1.0 + (2j / math.pi) * log_part)
        self._write_s(out, g * self.h[:, ju], g * self.h[:, iu],
                      free + g_reg0 * self.h)
        self._write_d(out, (gx * self.fx[:, ju] - gz) * self.spacing,
                      (gx * self.fx[:, iu] - gz) * self.spacing)

    def _near_geometry(self, samples: slice) -> tuple:
        """A block's source slopes and centre heights at the near
        entries, its sub-segment heights, and ``rho^2`` and ``ln rho``
        of one ``(b, P + 2 P q)`` row per sample: the P centres, then
        the sub-segment points, for one evaluator call per medium."""
        dz = self.dz[samples]
        fx = self.fx[samples][:, self.cols]
        centre_dz = dz[:, self.centre]
        sz = ((self.sign * dz[:, self.pair])[:, :, None]
              - fx[:, :, None] * self.du)
        rho2 = np.concatenate(
            [self.centre_dx * self.centre_dx + centre_dz * centre_dz,
             (self.sx * self.sx + sz * sz).reshape(len(dz), -1)], axis=1)
        return fx, centre_dz, sz, rho2, 0.5 * np.log(rho2)

    def _write_near(self, out: MediumBlocks, samples: slice, kk: complex,
                    totals, near: tuple) -> None:
        """One medium's near entries in a block. The free-space term is
        subtracted from the total, once per unordered pair, and replaced
        by its sub-segment average in each orientation; both come from
        the fused :func:`~repro.greens.freespace.green2d_and_gradient`.
        """
        fx, centre_dz, sz, rho2, log_rho = near
        g, gx, gz = totals
        centre = self.centre
        g_all, dg_all = green2d_and_gradient(rho2, log_rho, kk)
        g0, dg0 = g_all[:, :centre.size], dg_all[:, :centre.size]
        g_sub = g_all[:, centre.size:].reshape(sz.shape)
        dg_sub = dg_all[:, centre.size:].reshape(sz.shape)
        g_reg = g[samples, centre] - g0
        gx_reg = gx[samples, centre] - dg0 * self.centre_dx
        gz_reg = gz[samples, centre] - dg0 * centre_dz
        g_near = np.concatenate([g_reg, g_reg], 1) + g_sub.mean(axis=-1)
        gx_near = (np.concatenate([gx_reg, -gx_reg], 1)
                   + (dg_sub * self.sx).mean(axis=-1))
        gz_near = (np.concatenate([gz_reg, -gz_reg], 1)
                   + (dg_sub * sz).mean(axis=-1))
        self._write_entries(out, samples,
                            g_near * self.h[samples][:, self.cols],
                            (gx_near * fx - gz_near) * self.spacing)
