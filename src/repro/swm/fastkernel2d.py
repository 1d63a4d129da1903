"""Lattice-offset tables for the 1D-periodic Kummer kernel (2D solver).

On the n-point periodic profile grid every pair's wrapped x-offset is
``ix d`` with ``d = L/n`` and ``1 <= |ix| <= n//2``. The Kummer kernel
(:mod:`repro.greens.periodic2d`) splits into a closed-form log remainder,
which carries the line-source singularity, and a *mode residual*: the
truncated mode sum minus its quasi-static asymptote. The residual is
smooth in ``|dz| >= 0``, even in ``dx`` (value and z-gradient) or odd
(x-gradient), so at each ``|ix|`` it is a function of ``|dz|`` alone,
and a :class:`KummerTables` tabulates it.

What one sample then pays for is organized by what the work depends on:

- **per table** (one per medium wavenumber, period, grid size and
  ``m_max``, reused by every sample): the residual's value, x-gradient
  and z-gradient (without ``sign(dz)``) at the ``n//2`` positive offsets
  on the ``|dz|`` nodes of :class:`NodeMap`. :func:`build_tables`
  splits the Kummer mode sum into each medium's per-mode node terms on
  the ``(nodes, m_max)`` grid (exponentials over the nodes only) and
  the k-independent offset factors on ``(m_max, offsets)`` (one seed
  pass over the offsets), both from :mod:`repro.greens.periodic2d`,
  and contracts the mode axis with one matrix product per quantity;
- **per grid** (cached by :mod:`repro.swm.plan`): each pair's offset
  column, x-sign and log-remainder seeds (:func:`fold_profile_offsets`);
- **per sample** (on the plan's ``(B, M)`` pair arrays): the node map
  and four cubic Lagrange weights, and the exact log remainder, shared
  by every table of the call; then per table and quantity four gathers
  and four multiply-adds (:func:`lookup`).

**The node map.** The conductor's residual has structure at ``|dz| ~
1/k_m`` (down to ``L / (2 pi m_max)``), far finer than its structure
away from the plane, and uniform nodes at ``L/128`` miss it by up to
1.3e-3 of the kernel's maximum. Nodes sit at the integers of ``u(z) =
z/h + beta ln(1 + z/h0)`` with ``h = L/128``, ``h0 = L / (2 pi m_max)``
and ``beta = 16``: spacing ``~h0/beta`` at the plane, ``h`` far from
it. Node 0 is ``|dz| = 0``, where the ``m = 0`` term has a ``|dz|``
kink, so the first cell reads a one-sided stencil (nodes 0 to 3) rather
than an even mirror.

Node positions depend only on ``(period, m_max)`` and the node index,
a build runs one fixed block of :data:`NODE_BLOCK` nodes at a time
(node terms, then one BLAS call of a fixed shape per quantity and
medium), and every per-pair operation is elementwise, so any two tables
of one ``(k, period, n, m_max)`` that cover a separation return the
same bits for it, and batched and per-sample evaluations agree. (One
product over all nodes would leave that to the BLAS kernels, which are
chosen by shape: on OpenBLAS 0.3.31 a real product with one to three
offset columns returns row-count-dependent bits.) Blocks also keep a
build's memory from growing with the table's length.

The tables hold the total periodic kernel; the plan subtracts the
free-space term only at its near pairs, with the fused evaluator
:func:`~repro.greens.freespace.green2d_and_gradient` (a small-argument
series inside ``|k rho| <= 2.5``, within 1e-13 of ``max(1, |hankel1|)``,
and ``hankel1`` beyond).

Accuracy against the exact Kummer sum (:class:`KummerKernel`), which the
plan consumes like the tables, so these bounds compare two kernels in
one assembly. Measured by ``tests/test_kummer_tables.py`` over eta 1 to
3 um (L = 5 eta), 1 and 5 GHz and both media on 64-point profiles:

- pointwise on a plan's pairs, per component, ``max|tables - exact|``
  over ``max|exact|``: at most 1e-6 (8.1e-8 measured, the conductor);
- matrix level, ``max|S_tables - S_exact| / max|S_exact|`` and the same
  for ``D``: at most 2e-6 (3.4e-8 for S and 4.6e-7 for D measured);
- Pr/Ps: within 1e-6 relative of the exact solve (1.7e-8 measured).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
from ..greens.periodic2d import (log_remainder, mode_factors, mode_seed,
                                 mode_terms, mode_wavenumbers,
                                 periodic_green2d, periodic_green2d_pair,
                                 zero_mode)
from .fastkernel import check_range, check_tables, cubic_gather

#: Identifies the tabulated 2D kernel's arithmetic in content hashes
#: (``Assembly2DOptions.to_spec``). Kernels that agree only to rounding
#: must never share a result-cache entry, so bump this with any change
#: that moves a 2D kernel value.
KERNEL_REVISION_2D = 3

#: Far from the plane the ``|dz|`` nodes are ``L / 128`` apart.
Z_NODES_PER_PERIOD_2D = 128

#: Weight ``beta`` of the node map's logarithmic near-plane term.
NEAR_PLANE_WEIGHT = 16.0

#: Nodes per block of a table build (node terms and one BLAS call per
#: quantity and medium).
NODE_BLOCK = 64


class NodeMap:
    """The ``|dz|`` node map ``u(z) = z/h + beta ln(1 + z/h0)`` of one
    ``(period, m_max)``; node ``j`` sits at ``u = j``."""

    def __init__(self, period: float, m_max: int) -> None:
        if not period > 0.0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if int(m_max) < 1:
            raise ConfigurationError(f"m_max must be >= 1, got {m_max}")
        self.period = float(period)
        self.m_max = int(m_max)
        self.inv_h = Z_NODES_PER_PERIOD_2D / self.period
        self.inv_h0 = 2.0 * math.pi * self.m_max / self.period

    def position(self, adz: np.ndarray) -> np.ndarray:
        """``u(|dz|)``, the fractional node index."""
        return adz * self.inv_h + NEAR_PLANE_WEIGHT * np.log1p(
            adz * self.inv_h0)

    def last_row(self, z_extent: float) -> int:
        """Last node a lookup at ``|dz| <= z_extent`` reads: the
        stencil of the cell holding ``z_extent``, or of the first cell."""
        u = float(self.position(np.array(float(z_extent))))
        return max(math.floor(u) + 2, 3)

    def heights(self, count: int) -> np.ndarray:
        """``|dz|`` of nodes ``0 .. count-1``: ``u`` inverted by a fixed
        number of bisection steps on ``[0, j h]`` (``u(z) >= z/h``), so
        a node's height depends on its index alone."""
        j = np.arange(count, dtype=np.float64)
        lo = np.zeros(count)
        hi = j / self.inv_h
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.position(mid) < j
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi


class ProfileFold(NamedTuple):
    """Each pair's table column and x-sign on one profile grid, and the
    log remainder's mode seeds ``cos``/``sin(2 pi dx / L)``."""

    n: int
    period: float
    col: np.ndarray
    sx: np.ndarray
    c1: np.ndarray
    s1: np.ndarray


def fold_profile_offsets(dx: np.ndarray, n: int,
                         period: float) -> ProfileFold:
    """Fold wrapped profile offsets ``dx`` onto the table columns
    ``|ix| - 1``. Raises :class:`~repro.errors.ConfigurationError` for
    an offset that is zero or not wrapped to the minimum image."""
    dx = np.asarray(dx, dtype=np.float64)
    ix = np.abs(np.rint(dx / (period / n))).astype(np.intp)
    if ix.size and (ix.max() > n // 2 or ix.min() == 0):
        raise ConfigurationError(
            "pair offsets must be nonzero and wrapped to the minimum "
            "image (|dx| <= L/2)")
    c1, s1 = mode_seed(dx, period)
    fold = ProfileFold(int(n), float(period), ix - 1,
                       np.where(dx < 0.0, -1.0, 1.0), c1, s1)
    for arr in fold[2:]:
        arr.setflags(write=False)
    return fold


def regular_at_zero(k: complex, period: float, m_max: int) -> complex:
    """Zero-separation limit ``g_reg(0)`` of the regularized kernel.

    A scalar Kummer mode sum that depends only on ``(k, period,
    m_max)``; the cache shares one evaluation across chunks, media and
    both evaluators. The value is a pure function of the key, so caching
    cannot change results.
    """
    return _g_reg0_cached(complex(k), float(period), int(m_max))


@lru_cache(maxsize=64)
def _g_reg0_cached(k: complex, period: float, m_max: int) -> complex:
    return complex(periodic_green2d(np.array(0.0), np.array(0.0), k,
                                    period, m_max=m_max,
                                    exclude_primary=True))


class KummerTables:
    """Tabulated Kummer mode residual of one medium on one profile grid.

    Build with :func:`build_tables`. ``k``, ``period``, ``n`` and
    ``m_max`` identify the table; ``last`` is its last node.
    """

    def __init__(self, k: complex, nmap: NodeMap, n: int, last: int,
                 values) -> None:
        self.k = complex(k)
        self.nmap = nmap
        self.period = nmap.period
        self.m_max = nmap.m_max
        self.n = int(n)
        self.n_offsets = self.n // 2
        self._last = int(last)
        self._values = tuple(values)
        for flat in self._values:
            flat.setflags(write=False)

    @property
    def grid(self) -> dict:
        """The grid and node map the table serves; a lookup fuses only
        tables of one grid (:func:`~repro.swm.fastkernel.check_tables`)."""
        return {"n": self.n, "L": self.period, "m_max": self.m_max}

    def covers(self, z_extent: float) -> bool:
        """Whether the table covers every ``|dz| <= z_extent``: exact,
        the same node index a lookup computes, stencil included."""
        return self.nmap.last_row(z_extent) <= self._last

    def regular_at_zero(self) -> complex:
        """``g_reg(0)`` of this medium (for the diagonal self terms)."""
        return regular_at_zero(self.k, self.period, self.m_max)


def build_tables(ks, period: float, n: int, m_max: int,
                 z_extent: float) -> list[KummerTables]:
    """One :class:`KummerTables` per wavenumber in ``ks``, covering
    ``|dz| <= z_extent`` on the n-point grid of period ``period``.

    Each medium's node terms (:func:`~repro.greens.periodic2d.mode_terms`
    on the ``(nodes, m_max)`` grid) are contracted with the
    k-independent offset factors
    (:func:`~repro.greens.periodic2d.mode_factors`, ``(m_max,
    offsets)``) by one matrix product per quantity. The node map, the
    asymptotes and the factors are shared by every medium, and each
    medium's table is what it would be alone. Both run one block of
    :data:`NODE_BLOCK` nodes at a time, so a node's row does not depend
    on how many nodes the table holds.
    """
    if not math.isfinite(z_extent) or z_extent < 0.0:
        raise ConfigurationError(
            f"z_extent must be finite and >= 0, got {z_extent}")
    if int(n) < 2:
        raise ConfigurationError(f"grid size must be >= 2, got {n}")
    nmap = NodeMap(period, m_max)
    last = nmap.last_row(z_extent)
    rows = -(-(last + 1) // NODE_BLOCK) * NODE_BLOCK
    z = nmap.heights(rows)[:, None]
    dx = np.arange(1, int(n) // 2 + 1) * (nmap.period / int(n))
    km = mode_wavenumbers(nmap.period, nmap.m_max)
    cos_f, sin_f = (np.stack(f) for f in zip(
        *mode_factors(*mode_seed(dx, nmap.period), km)))
    ks = [complex(k) for k in ks]
    # Per medium: the value, x-gradient and z-gradient sums (the last
    # without its common j sign(dz) factor), one block of nodes at a
    # time, so a block's rows depend on its own nodes only.
    sums = np.empty((len(ks), 3, rows, dx.size), dtype=np.complex128)
    for lo in range(0, rows, NODE_BLOCK):
        zb = z[lo:lo + NODE_BLOCK]
        for k, (d, e), out in zip(ks, mode_terms(zb, ks, km),
                                  sums[:, :, lo:lo + NODE_BLOCK]):
            d0, e0 = zero_mode(zb, k)
            out[0] = d0 + d @ cos_f
            out[1] = d @ sin_f
            out[2] = e0 + e @ cos_f
    half = 0.5 / nmap.period
    tables = []
    for k, (g, gx, gz) in zip(ks, sums[:, :, :last + 1]):
        values = (g * (1j * half), gx * (1j * half), gz * -half)
        tables.append(KummerTables(k, nmap, n, last,
                                   [q.ravel() for q in values]))
    return tables


class KummerKernel:
    """Exact Kummer sum of one medium, the tables' reference. An
    :class:`~repro.swm.plan.AssemblyPlan2D` consumes it like a
    :class:`KummerTables`: the total kernel ``(g, gx, gz)`` on the
    plan's pairs from one :meth:`evaluate` call, and
    :meth:`regular_at_zero`."""

    def __init__(self, k: complex, period: float, m_max: int) -> None:
        self.k = complex(k)
        self.period = float(period)
        self.m_max = int(m_max)

    def regular_at_zero(self) -> complex:
        return regular_at_zero(self.k, self.period, self.m_max)

    def evaluate(self, dx: np.ndarray, dz: np.ndarray) -> tuple:
        """At nonzero separations ``(dx, dz)``, broadcast."""
        return periodic_green2d_pair(dx, dz, (self.k,), self.period,
                                     m_max=self.m_max)[0]


def lookup(tables, fold: ProfileFold, dz: np.ndarray) -> list[tuple]:
    """Total kernel ``(g, gx, gz)`` of every table at folded pairs.

    ``fold`` describes the ``(M,)`` pair offsets of one grid and ``dz``
    their ``(M,)`` or ``(B, M)`` height differences; outputs have
    ``dz``'s shape. The node index, the cubic Lagrange weights and the
    exact log remainder are computed once and serve every table (two
    media x F stacked frequencies in the assembly plan), and each
    table's result is bit-identical to looking it up alone.

    Raises :class:`~repro.errors.ConfigurationError` when a table was
    built for another grid or node map, or ``|dz|`` reaches past the
    nodes of any table (:func:`~repro.swm.fastkernel.check_tables`,
    :func:`~repro.swm.fastkernel.check_range`).
    """
    tables = check_tables(tables, fold, "KummerTables")
    dz = np.asarray(dz, dtype=np.float64)
    adz = np.abs(dz)
    u = tables[0].nmap.position(adz)
    node = u.astype(np.intp)
    check_range(tables, node)
    # Stencil rows start .. start + 3; the first cell reads nodes 0-3.
    start = np.maximum(node - 1, 0)
    t = u - start
    t1, t2, t3 = t - 1.0, t - 2.0, t - 3.0
    weights = (-(t1 * t2 * t3) / 6.0, t * t2 * t3 / 2.0,
               -(t * t1 * t3) / 2.0, t * t1 * t2 / 6.0)
    width = tables[0].n_offsets
    base = start * width + fold.col
    log_g, log_gx, log_gz = log_remainder(fold.c1, fold.s1, adz,
                                          fold.period)
    sign = np.sign(dz)
    scratch = np.empty(dz.shape, dtype=np.complex128)
    outs = []
    for tab in tables:
        g, gx, gz = (cubic_gather(values, base, weights, width, scratch)
                     for values in tab._values)
        g += log_g
        np.multiply(gx, fold.sx, out=gx)
        gx += log_gx
        gz += log_gz
        np.multiply(gz, sign, out=gz)
        outs.append((g, gx, gz))
    return outs
