"""Lattice-offset tables for the doubly-periodic Ewald kernel.

On the n x n periodic collocation grid every pair's wrapped in-plane
offset is ``(ix d, iy d)`` with ``d = L/n`` and ``|ix|, |iy| <= n//2``.
The square lattice's symmetries (``x -> -x``, ``y -> -y``, ``x <-> y``)
map it to a canonical offset ``0 <= b <= a <= n//2``, ``(a, b) !=
(0, 0)``: ``(n//2 + 1)(n//2 + 2)/2 - 1`` of them (14 at n = 8, 65 at
n = 20). Folding only flips the sign of the in-plane gradient or swaps
its components, and ``G_reg``, ``gx`` and ``gy`` are even in ``dz``
while ``gz`` is odd. So at each canonical offset the regularized kernel
(``G^pq`` minus the free-space primary) and its gradient are smooth
functions of ``|dz|`` alone, and a :class:`KernelTables` tabulates them.

What one sample then pays for is organized by what the work depends on:

- **per table** (one per medium wavenumber, Ewald configuration and
  grid size, reused by every sample): ``(g, gx, gy, gz)`` at every
  canonical offset on the ``|dz|`` nodes ``j h``, ``h = L /``
  :data:`Z_NODES_PER_PERIOD`, plus the zero-separation self term
  :meth:`KernelTables.regular_at_zero`. The build sums the lattice
  images by cubic Hermite interpolation on radial tables of the spatial
  bracket (its first and second derivatives are closed-form), and the
  spectral part from exact brackets at the nodes times per-shell phase
  sums at the offsets (:func:`shell_phase_sums`). The radial tables
  are dropped once the offsets are tabulated;
- **per grid** (cached by :mod:`repro.swm.plan`): each pair's canonical
  column and the real weights that restore its signs and swap
  (:func:`fold_offsets`);
- **per sample** (on the assembly plan's ``(B, M)`` arrays, one entry
  per unordered collocation pair): ``|dz|/h`` and four cubic Lagrange
  weights shared by every table of the call, then per table and
  quantity four gathers and four multiply-adds (:func:`lookup`).

Every per-sample product is a real weight times a complex value, which
rounds the same in place or out of place, so batched and per-sample
evaluations, and a table evaluated with others or alone, agree bit for
bit.

Nodes are anchored at zero with a spacing fixed by the period, and the
radial nodes with a spacing fixed by the Ewald configuration. A table's
height range sets only how many nodes it holds, so any two tables of one
``(k, EwaldConfig, n)`` that cover a separation return the same bits
for it, whatever tables were built before.

Accuracy against exact Ewald (:class:`EwaldKernel`:
``periodic_green_and_gradient`` with ``exclude_primary=True``), which the
plan consumes like the tables, so these bounds compare two kernels in
one assembly. Measured by ``tests/test_swm_assembly.py``:

- pointwise on a plan's pairs, per component, ``max|fast - exact|``
  over ``max|exact|`` on the same pairs: at most 1e-5 at 1 and 5 GHz
  (1.5e-6 measured); the cubic ``dz`` interpolation dominates it;
- matrix level, ``max|S_fast - S_exact| / max|S_exact|`` and the same
  for ``D``: at most 1e-7 over n in {7, 8}, L in {5, 15} um, heights up
  to 2 um, 1 to 20 GHz and both media (1.6e-9 for S and 1.5e-8 for D
  measured).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
from .geometry import SurfaceMesh3D
from ..greens.ewald import (EwaldConfig, _gamma_mn, _primary_minus_free_limit,
                            periodic_green, periodic_green_and_gradient)
from ..greens.freespace import exp_jkr
from ..greens.special import (
    erfc_scaled_pair,
    erfc_scaled_pair_with_derivative,
    ewald_spectral_brackets,
)


#: Identifies the tabulated kernel's arithmetic in content hashes
#: (``AssemblyOptions.to_spec``). Kernels that agree only to rounding
#: must never share a result-cache entry, so bump this with any change
#: that moves a kernel value.
KERNEL_REVISION = 7

#: The same for exact Ewald (:class:`EwaldKernel`, ``use_tables=False``);
#: a string, so it never equals a tables revision. A change to the
#: assembly both kernels share (``AssemblyPlan3D`` and the free-space
#: primary it adds, ``green3d``) bumps both.
EWALD_KERNEL_REVISION = "ewald-3"

#: ``|dz|`` nodes per period: the offset tables sample ``|dz| = j L / 128``.
Z_NODES_PER_PERIOD = 128

#: Radial nodes across the farthest in-plane image distance.
_RADIAL_NODES = 4095


def _canonical_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer cell offsets ``(a, b)``, ``0 <= b <= a <= n//2``, ``(a, b)
    != (0, 0)``, in table-column order: column ``a(a+1)/2 + b - 1``."""
    half = int(n) // 2
    a, b = np.tril_indices(half + 1)
    return a[1:], b[1:]


class OffsetFold(NamedTuple):
    """Each pair's canonical column and orientation on one grid.

    With ``(GX, GY)`` interpolated at the pair's column,
    ``gx = xx GX + xy GY`` and ``gy = yy GY + yx GX``: the weights are
    the pair's in-plane signs, moved to the other component where the
    offset's ``|iy| > |ix|`` was swapped into the canonical triangle.
    """

    n: int
    period: float
    col: np.ndarray
    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray
    yx: np.ndarray


def fold_offsets(dx: np.ndarray, dy: np.ndarray, n: int,
                 period: float) -> OffsetFold:
    """Fold wrapped grid offsets ``(dx, dy)`` onto the canonical ones.

    Signs come from the float offsets themselves, so the ``+-L/2``
    column of an even grid keeps the orientation the free-space primary
    sees. Raises :class:`~repro.errors.ConfigurationError` for an
    offset that is not wrapped to the minimum image or is zero.
    """
    spacing = period / n
    ix = np.abs(np.rint(np.asarray(dx) / spacing)).astype(np.intp)
    iy = np.abs(np.rint(np.asarray(dy) / spacing)).astype(np.intp)
    a = np.maximum(ix, iy)
    b = np.minimum(ix, iy)
    if a.size and (a.max() > n // 2 or a.min() == 0):
        raise ConfigurationError(
            "pair offsets must be nonzero and wrapped to the minimum "
            "image (|dx|, |dy| <= L/2)")
    swap = (iy > ix).astype(np.float64)
    keep = 1.0 - swap
    sx = np.where(np.asarray(dx) < 0.0, -1.0, 1.0)
    sy = np.where(np.asarray(dy) < 0.0, -1.0, 1.0)
    fold = OffsetFold(int(n), float(period), a * (a + 1) // 2 + b - 1,
                      sx * keep, sx * swap, sy * keep, sy * swap)
    for arr in fold[2:]:
        arr.setflags(write=False)
    return fold


def shell_phase_sums(dx: np.ndarray, dy: np.ndarray, period: float,
                     n_modes: int) -> tuple:
    """Spectral phase factors at in-plane offsets, summed per shell.

    Returns ``(s, c, sx, sy)`` for every nonzero shell ``s = m^2 + n^2``
    of the mode set, with ``c = sum cos(phi)``, ``sx = -sum kx
    sin(phi)`` and ``sy = -sum ky sin(phi)`` over the shell's modes,
    ``phi = kx dx + ky dy``. Because the mode set is symmetric under
    ``(m, n) -> (-m, -n)``, these real sums are exactly ``sum
    e^{j phi}``, ``sum j kx e^{j phi}`` and ``sum j ky e^{j phi}``.
    """
    sums: dict[int, tuple] = {}
    for m in range(-n_modes, n_modes + 1):
        for n in range(-n_modes, n_modes + 1):
            s = m * m + n * n
            if s == 0:
                continue
            kx = 2.0 * math.pi * m / period
            ky = 2.0 * math.pi * n / period
            phi = kx * dx + ky * dy
            sin_phi = np.sin(phi)
            terms = (np.cos(phi), -kx * sin_phi, -ky * sin_phi)
            acc = sums.get(s)
            sums[s] = terms if acc is None else tuple(
                a + t for a, t in zip(acc, terms))
    return tuple((s, *sums[s]) for s in sorted(sums))


def _hermite_pack(*funcs: np.ndarray) -> np.ndarray:
    """Column ``i`` holds ``(f[i], f[i+1])`` of each tabulated function,
    so one gather reads both ends of a cell."""
    return np.stack([end for f in funcs for end in (f[:-1], f[1:])])


def _radial_tables(k: complex, cfg: EwaldConfig, r_max: float):
    """The spatial bracket over ``R >= 0``, divided by ``8 pi``: the
    image form ``b(R)`` and the primary form ``b(R) - 2 e^{jkR}`` (the
    free-space part removed), each with its first two derivatives.

    ``b'' = -k^2 b + 4 R E^2 X`` with ``X = (2E/sqrt(pi)) exp(k^2/4E^2
    - R^2 E^2)``, the Gaussian term of ``b'``. Returns the node spacing
    and the Hermite-packed image and primary tables.
    """
    e = cfg.effective_split
    h_r = (math.sqrt(2.0) * (cfg.n_images + 0.5) * cfg.period * 1.001
           / _RADIAL_NODES)
    r = np.arange(math.ceil(r_max / h_r) + 2) * h_r
    inv8pi = 1.0 / (8.0 * math.pi)
    b, db = erfc_scaled_pair_with_derivative(r, k, e)
    x_term = (2.0 * e / math.sqrt(math.pi)) * np.exp(
        k * k / (4.0 * e * e) - (r * e) ** 2)
    d2b = (4.0 * e * e) * r * x_term - k * k * b
    phase = exp_jkr(k, r)
    image = _hermite_pack(b * inv8pi, db * inv8pi, d2b * inv8pi)
    primary = _hermite_pack((b - 2.0 * phase) * inv8pi,
                            (db - 2j * k * phase) * inv8pi,
                            (d2b + 2.0 * k * k * phase) * inv8pi)
    return h_r, image, primary


def _image_terms(k: complex, cfg: EwaldConfig, dx: np.ndarray,
                 dy: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Screened lattice-image sum of ``G_reg`` and its gradient at
    in-plane offsets ``(dx[p], dy[p])`` and heights ``z[j]`` (nonzero
    separations), as ``(P, J)`` arrays.

    Per image, ``b(R)`` and ``b'(R)`` are cubic Hermite interpolants of
    the radial tables; with ``w = 1/R`` the term is ``g = b w`` and its
    gradient ``(b' - b w) w^2 (rx, ry, z)``.
    """
    lat = cfg.period
    nim = cfg.n_images
    dx = np.asarray(dx, dtype=np.float64)[:, None]
    dy = np.asarray(dy, dtype=np.float64)[:, None]
    z = np.asarray(z, dtype=np.float64)[None, :]
    reach = nim * lat
    r_max = math.sqrt((float(np.max(np.abs(dx), initial=0.0)) + reach) ** 2
                      + (float(np.max(np.abs(dy), initial=0.0)) + reach) ** 2
                      + float(np.max(z * z, initial=0.0)))
    h_r, image, primary = _radial_tables(k, cfg, r_max)
    inv_h = 1.0 / h_r
    shape = np.broadcast_shapes(dx.shape, z.shape)
    g, gx, gy, gz = (np.zeros(shape, dtype=np.complex128) for _ in range(4))
    z2 = z * z
    for p in range(-nim, nim + 1):
        for q in range(-nim, nim + 1):
            rx = dx - p * lat
            ry = dy - q * lat
            r = np.sqrt(rx * rx + ry * ry + z2)
            t = r * inv_h
            idx = t.astype(np.intp)
            f = t - idx
            one_f = 1.0 - f
            h00 = (1.0 + 2.0 * f) * one_f * one_f
            h01 = f * f * (3.0 - 2.0 * f)
            h10 = h_r * f * one_f * one_f
            h11 = -h_r * f * f * one_f
            table = primary if p == 0 and q == 0 else image
            v0, v1, d0, d1, s0, s1 = np.take(table, idx, axis=1)
            b = h00 * v0 + h01 * v1 + h10 * d0 + h11 * d1
            db = h00 * d0 + h01 * d1 + h10 * s0 + h11 * s1
            w = 1.0 / r
            u = b * w
            g += u
            radial = (db - u) * (w * w)
            gx += radial * rx
            gy += radial * ry
            gz += radial * z
    return [g, gx, gy, gz]


def _spectral_terms(k: complex, cfg: EwaldConfig, dx: np.ndarray,
                    dy: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Floquet-mode sum of the kernel and its gradient at in-plane
    offsets ``(dx[p], dy[p])`` and heights ``z[j]``, as ``(P, J)``
    arrays: exact spectral brackets at the heights, one per shell of
    equal ``m^2 + n^2`` (``gamma_mn`` depends on ``|k_mn|`` only), times
    the shell's phase sums at the offsets."""
    lat = cfg.period
    e = cfg.effective_split
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gammas: dict[int, complex] = {}
    for m in range(-cfg.n_modes, cfg.n_modes + 1):
        for n in range(-cfg.n_modes, cfg.n_modes + 1):
            gammas.setdefault(m * m + n * n, complex(_gamma_mn(
                k, np.array(2.0 * math.pi * m / lat),
                np.array(2.0 * math.pi * n / lat))))

    def brackets(s: int) -> tuple[np.ndarray, np.ndarray]:
        # Pre-multiplied by the mode coefficient j / (4 L^2 gamma), and
        # the minus bracket also by its derivative factor j gamma.
        gamma = gammas[s]
        coef = 1j / (4.0 * lat * lat * gamma)
        plus, minus = ewald_spectral_brackets(z, gamma, e)
        return plus * coef, minus * ((1j * gamma) * coef)

    # The specular shell has unit phase and no transverse gradient.
    plus, minus = brackets(0)
    shape = (dx.size, z.size)
    g = np.broadcast_to(plus, shape).astype(np.complex128)
    gz = np.broadcast_to(minus, shape).astype(np.complex128)
    gx = np.zeros(shape, dtype=np.complex128)
    gy = np.zeros(shape, dtype=np.complex128)
    for s, c, sx, sy in shell_phase_sums(dx, dy, lat, cfg.n_modes):
        plus, minus = brackets(s)
        g += c[:, None] * plus
        gx += sx[:, None] * plus
        gy += sy[:, None] * plus
        gz += c[:, None] * minus
    return [g, gx, gy, gz]


def offset_kernel(k: complex, cfg: EwaldConfig, dx: np.ndarray,
                  dy: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """``(G_reg, Gx_reg, Gy_reg, Gz_reg)`` at every in-plane offset
    ``(dx[p], dy[p])`` (wrapped, ``|dx|, |dy| <= L/2``) and height
    ``z[j]``, as ``(P, J)`` arrays: what :class:`KernelTables`
    tabulates, usable at any nonzero separation. "reg" means the
    free-space primary singularity is subtracted (the contract of
    ``periodic_green(..., exclude_primary=True)``)."""
    images = _image_terms(k, cfg, dx, dy, z)
    spectral = _spectral_terms(k, cfg, dx, dy, z)
    return [a + b for a, b in zip(images, spectral)]


class KernelTables:
    """Tabulated regularized periodic kernel + gradient for one medium
    on one grid.

    Parameters
    ----------
    k:
        Medium wavenumber (1/um).
    cfg:
        Ewald configuration (period, splitting, truncations).
    n:
        Grid size: the table serves the pairs of the n x n collocation
        grid on the period ``cfg.period``.
    z_extent:
        Maximum |z_i - z_j| the tables must cover (um), the
        interpolation stencil included. It sets only the number of
        nodes; the node spacing comes from the period.
    """

    def __init__(self, k: complex, cfg: EwaldConfig, n: int,
                 z_extent: float) -> None:
        if not math.isfinite(z_extent) or z_extent < 0.0:
            raise ConfigurationError(
                f"z_extent must be finite and >= 0, got {z_extent}")
        if int(n) < 1:
            raise ConfigurationError(f"grid size must be >= 1, got {n}")
        self.k = complex(k)
        self.cfg = cfg
        self.period = cfg.period
        self.n = int(n)
        h = self.period / Z_NODES_PER_PERIOD
        self._inv_h = 1.0 / h
        # Last |dz| node: a lookup at |dz| reads the nodes floor(|dz|/h)
        # - 1 ... + 2, so this covers every |dz| <= z_extent.
        self._last = math.floor(float(z_extent) * self._inv_h) + 2
        nodes = np.arange(self._last + 1) * h
        a, b = _canonical_offsets(self.n)
        self.n_offsets = a.size
        spacing = self.period / self.n
        dx, dy = a * spacing, b * spacing
        # offset_kernel's two passes, the spectral one with the zero
        # offset appended: that column's node 0 is the self term's
        # spectral part (_regular_at_zero), and it is dropped here.
        spectral = _spectral_terms(k, cfg, np.append(dx, 0.0),
                                   np.append(dy, 0.0), nodes)
        self._spectral0 = complex(spectral[0][-1, 0])
        # Row r holds node r - 1: row 0 is node -1, mirrored from node 1
        # (g, gx, gy even in dz; gz odd), so every stencil is one slice.
        values = []
        for which, (image, spec) in enumerate(zip(
                _image_terms(k, cfg, dx, dy, nodes), spectral)):
            q = image + spec[:-1]
            rows = np.empty((nodes.size + 1, a.size), dtype=np.complex128)
            rows[1:] = q.T
            rows[0] = -q[:, 1] if which == 3 else q[:, 1]
            flat = rows.ravel()
            flat.setflags(write=False)
            values.append(flat)
        self._values = tuple(values)
        self._reg0 = self._regular_at_zero()

    # ------------------------------------------------------------------

    @property
    def grid(self) -> dict:
        """The grid the table serves; a lookup fuses only tables of one
        grid (:func:`check_tables`)."""
        return {"n": self.n, "L": self.period}

    def covers(self, z_extent: float) -> bool:
        """Whether the tables cover every ``|dz| <= z_extent``.

        Exact, not a margin: it compares the same node index a lookup
        computes, stencil included, so a covering table returns the bits
        of any longer table of its configuration.
        """
        return math.floor(float(z_extent) * self._inv_h) + 2 <= self._last

    def regular_at_zero(self) -> complex:
        """``(G^pq - G_free)`` at zero separation (for diagonal self terms).

        A pure function of the table, computed once at construction.
        """
        return self._reg0

    def _regular_at_zero(self) -> complex:
        """The primary's screened limit, the other spatial images (one
        bracket call for all of them, summed in lattice order) and the
        spectral sum the build evaluated at zero offset and height."""
        e = self.cfg.effective_split
        lat = self.period
        nim = self.cfg.n_images
        g = _primary_minus_free_limit(self.k, e)
        # Non-primary spatial images at zero separation.
        r = np.array([math.hypot(p * lat, q * lat)
                      for p in range(-nim, nim + 1)
                      for q in range(-nim, nim + 1) if p or q])
        for r_i, bracket in zip(r, erfc_scaled_pair(r, self.k, e)):
            g += complex(bracket) / (8.0 * math.pi * float(r_i))
        return g + self._spectral0


class EwaldKernel:
    """Exact Ewald kernel of one medium, the tables' reference. An
    :class:`~repro.swm.plan.AssemblyPlan3D` consumes it like a
    :class:`KernelTables`: ``(g, gx, gy, gz)`` of ``G_reg`` on the
    plan's pairs from one :meth:`evaluate` call, and
    :meth:`regular_at_zero`."""

    def __init__(self, k: complex, cfg: EwaldConfig) -> None:
        self.k = complex(k)
        self.cfg = cfg
        zero = np.array(0.0)
        self._reg0 = complex(periodic_green(zero, zero, zero, self.k, cfg,
                                            exclude_primary=True))

    def regular_at_zero(self) -> complex:
        return self._reg0

    def evaluate(self, dx: np.ndarray, dy: np.ndarray,
                 dz: np.ndarray) -> tuple:
        """At nonzero separations ``(dx, dy, dz)``, broadcast: one
        fused value-plus-gradient pass."""
        return periodic_green_and_gradient(dx, dy, dz, self.k, self.cfg,
                                           exclude_primary=True)


def check_tables(tables, fold, kind: str) -> list:
    """``tables`` as a list, checked for a lookup at ``fold``'s pairs:
    at least one, each built for the fold's grid and all for one
    configuration (their ``grid``). Raises
    :class:`~repro.errors.ConfigurationError` otherwise; ``kind`` names
    the tables in the message."""
    tables = list(tables)
    if not tables:
        raise ConfigurationError(f"lookup needs at least one {kind}")
    want = {**tables[0].grid, "n": fold.n, "L": fold.period}
    for tab in tables:
        if tab.grid != want:
            raise ConfigurationError(
                f"{kind} built for another grid ({_grid_text(tab.grid)}) "
                f"cannot serve {_grid_text(want)}")
    return tables


def _grid_text(grid: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in grid.items())


def check_range(tables, node: np.ndarray) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` when a stencil
    reaches past the nodes of any table: a lookup at node index ``node``
    reads up to node ``node + 2`` (tables of different lengths stack;
    the shortest bounds ``dz``)."""
    if node.size and not node.max() + 2 <= min(tab._last for tab in tables):
        raise ConfigurationError(
            "|dz| exceeds the tabulated range (interpolation stencil "
            "included); rebuild the tables with a larger z_extent")


def cubic_gather(values: np.ndarray, base: np.ndarray, weights: tuple,
                 width: int, scratch: np.ndarray) -> np.ndarray:
    """One tabulated quantity at the pairs, by four-node Lagrange
    interpolation: a pair's stencil starts at flat position ``base`` of
    ``values``, and its row ``r`` (``weights[r]``) is ``r`` table rows
    (``width`` values) further on. Every product is real-by-complex, so
    writing it in place (``scratch`` holds each term) rounds as out of
    place would."""
    out = np.take(values, base)
    np.multiply(out, weights[0], out=out)
    for r in range(1, 4):
        term = np.take(values[r * width:], base, out=scratch, mode="clip")
        out += np.multiply(term, weights[r], out=term)
    return out


def lookup(tables, fold: OffsetFold, dz: np.ndarray) -> list[tuple]:
    """``(g, gx, gy, gz)`` of every table at folded pairs.

    ``fold`` describes the ``(M,)`` pair offsets of one grid
    (:func:`fold_offsets`) and ``dz`` their ``(M,)`` or ``(B, M)``
    height differences; outputs have ``dz``'s shape. The node index and
    the cubic Lagrange weights are computed once and serve every table
    (two media x F stacked frequencies in the assembly plan), and each
    table's result is bit-identical to looking it up alone.

    Raises :class:`~repro.errors.ConfigurationError` when a table was
    built for another grid or ``|dz|`` reaches past the nodes of any
    table (:func:`check_tables`, :func:`check_range`).
    """
    tables = check_tables(tables, fold, "KernelTables")
    dz = np.asarray(dz, dtype=np.float64)
    t = np.abs(dz) * tables[0]._inv_h
    node = t.astype(np.intp)
    check_range(tables, node)
    f = t - node
    fp1, fm1, fm2 = f + 1.0, f - 1.0, f - 2.0
    weights = (-(f * fm1 * fm2) / 6.0, fp1 * fm1 * fm2 / 2.0,
               -(fp1 * f * fm2) / 2.0, fp1 * f * fm1 / 6.0)
    # Row r holds node r - 1, so the stencil of nodes node - 1 ...
    # node + 2 starts at row node.
    width = tables[0].n_offsets
    base = node * width + fold.col
    sign = np.sign(dz)
    # Two scratch arrays serve the whole call.
    scratch = (np.empty(dz.shape, dtype=np.complex128),
               np.empty(dz.shape, dtype=np.complex128))
    outs = []
    for tab in tables:
        g, gx, gy, gz = (cubic_gather(values, base, weights, width,
                                      scratch[0])
                         for values in tab._values)
        # gx <- xx gx + xy gy and gy <- yy gy + yx gx: the pair's signs,
        # and its swap back out of the canonical triangle.
        to_x = np.multiply(gy, fold.xy, out=scratch[0])
        to_y = np.multiply(gx, fold.yx, out=scratch[1])
        np.multiply(gx, fold.xx, out=gx)
        gx += to_x
        np.multiply(gy, fold.yy, out=gy)
        gy += to_y
        np.multiply(gz, sign, out=gz)
        outs.append((g, gx, gy, gz))
    return outs


def tables_for_mesh(k: complex, mesh: SurfaceMesh3D,
                    cfg: EwaldConfig) -> KernelTables:
    """Build tables for a mesh's grid, covering its height range."""
    z_extent = float(np.max(mesh.z) - np.min(mesh.z))
    return KernelTables(k, cfg, mesh.n, z_extent=z_extent)
