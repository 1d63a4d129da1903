"""Tabulated fast path for the doubly-periodic Ewald kernel.

Exact Ewald assembly is dominated by complex Faddeeva (``wofz``)
evaluations, but its brackets are smooth *one-dimensional* functions:
the spatial bracket of an image depends only on its distance ``R``, and
each spectral bracket only on ``dz`` (one per shell of equal
``m^2 + n^2``, since ``gamma_mn`` depends on ``|k_mn|`` only). A
:class:`KernelTables` tabulates them once per (medium wavenumber, patch
period) on dense uniform grids, and every Monte-Carlo / collocation
sample at that frequency reuses them.

What one sample then pays for is organized by what the work depends on:

- **per table** (built once, reused by every sample): the radial and
  spectral tables, packed in slope form so one gather fetches a value,
  its slope, its derivative and the derivative's slope; and the
  zero-separation self term :meth:`KernelTables.regular_at_zero`;
- **per grid** (cached by ``(n, period, n_modes)`` in
  :mod:`repro.swm.plan`): the spectral phase factors, summed per shell
  into real cos/sin arrays (:func:`shell_phase_sums`) — the ``(m, n)``
  and ``(-m, -n)`` modes cancel every imaginary part, so a shell costs
  four real-by-complex multiply-adds whatever its mode count;
- **per sample** (on the assembly plan's ``(B, M)`` arrays, one entry
  per unordered collocation pair): one distance, one gather and a few
  multiply-adds per lattice image, and one gather plus the shell
  multiply-adds per spectral shell (6 shells for the default 25 modes).

:func:`green_and_gradient_multi` runs the per-sample work for any
number of tables that share grids (two media x F frequencies in the
assembly plan), so everything k-independent is computed once per call.
All per-sample products are real-by-complex, which rounds the same in
place or out of place, so batched and per-sample evaluations agree bit
for bit.

Grids: every table of one Ewald configuration samples the same nodes,
anchored at zero with spacings fixed by the period and image count:
``R_j = j h_r``, with ``h_r`` 1/4095 of the farthest in-plane image
distance plus 0.1%, and ``|dz|_i = i h_z``, with ``h_z = L/2048``. A
table's height range sets only how many nodes it holds, so any two
tables that cover a separation return the same bits for it: a kernel
value is a pure function of ``(k, EwaldConfig, separation)``, whatever
tables were built before. The spectral brackets are even (value) and
odd (z-gradient) in ``dz``, so the shell tables hold ``|dz| >= 0`` and
the z-gradient takes ``sign(dz)``.

Accuracy: the linear-interpolation error stays below 1e-6 relative of
the exact Ewald kernel; ``tests/test_swm_assembly.py`` compares the
fast path against the exact Ewald assembly over periods and heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .geometry import SurfaceMesh3D
from ..greens.ewald import EwaldConfig, _gamma_mn, _primary_minus_free_limit
from ..greens.special import (
    erfc_scaled_pair,
    erfc_scaled_pair_derivative,
    ewald_spectral_bracket,
    ewald_spectral_bracket_minus,
)


#: Identifies the tabulated kernel's arithmetic in content hashes
#: (``AssemblyOptions.to_spec``). Kernels that agree only to rounding
#: must never share a result-cache entry, so bump this with any change
#: that moves a kernel value.
KERNEL_REVISION = 4


def _slope_form(value: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """Pack a tabulated function and its derivative for one-gather lookup.

    Column ``i`` holds ``(v[i], v[i+1] - v[i], d[i], d[i+1] - d[i])``,
    so linear interpolation at ``i + frac`` reads one column. The last
    column's slopes are zero (a lookup exactly at the grid end returns
    the end value).
    """
    packed = np.zeros((4, value.size), dtype=np.complex128)
    packed[0] = value
    packed[1, :-1] = np.diff(value)
    packed[2] = deriv
    packed[3, :-1] = np.diff(deriv)
    return packed


def _lerp(packed: np.ndarray, idx: np.ndarray, frac: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated ``(value, derivative)`` from a slope-form table."""
    rows = np.take(packed, idx, axis=1)
    return rows[0] + frac * rows[1], rows[2] + frac * rows[3]


def _split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column index and fractional offset of grid position ``t >= 0``."""
    idx = t.astype(np.intp)
    return idx, t - idx


@dataclass(frozen=True)
class ShellPhases:
    """Spectral phase factors of one grid, summed per shell.

    ``shells`` holds ``(s, c, sx, sy)`` for every nonzero shell
    ``s = m^2 + n^2`` of the mode set, with ``c = sum cos(phi)``,
    ``sx = -sum kx sin(phi)`` and ``sy = -sum ky sin(phi)`` over the
    shell's modes, ``phi = kx dx + ky dy``. Because the mode set is
    symmetric under ``(m, n) -> (-m, -n)``, these real sums are exactly
    ``sum e^{j phi}``, ``sum j kx e^{j phi}`` and ``sum j ky e^{j phi}``.
    """

    period: float
    n_modes: int
    shells: tuple


def shell_phase_sums(dx: np.ndarray, dy: np.ndarray, period: float,
                     n_modes: int) -> ShellPhases:
    """Per-shell real phase sums at the in-plane separations."""
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
    shells = tuple((s, *sums[s]) for s in sorted(sums))
    for _, *arrays in shells:
        for arr in arrays:
            arr.setflags(write=False)
    return ShellPhases(period=float(period), n_modes=int(n_modes),
                       shells=shells)


class KernelTables:
    """Tabulated periodic Green's function + gradient for one medium.

    Parameters
    ----------
    k:
        Medium wavenumber (1/um).
    cfg:
        Ewald configuration (period, splitting, truncations).
    z_extent:
        Maximum |z_i - z_j| the tables must cover (um). It sets only
        the number of nodes; the node spacings come from ``cfg``.
    """

    def __init__(self, k: complex, cfg: EwaldConfig, z_extent: float) -> None:
        if not math.isfinite(z_extent):
            raise ConfigurationError(f"z_extent must be finite, got {z_extent}")
        self.k = complex(k)
        self.cfg = cfg
        self.period = cfg.period
        e = cfg.effective_split
        lat = cfg.period
        nim = cfg.n_images

        # Node spacings fixed by the configuration (module docstring).
        # Lookups use these inverses, so a grid position depends only on
        # the separation; the table length only bounds it.
        r_lattice = math.sqrt(2.0) * (nim + 0.5) * lat
        h_r = r_lattice * 1.001 / 4095
        h_z = lat / 2048
        self._r_inv_h = 1.0 / h_r
        self._z_inv_h = 1.0 / h_z
        # Last dz node: a lookup at grid position <= _z_last reads
        # only nodes every covering table shares.
        self._z_last = max(math.ceil(float(z_extent) * self._z_inv_h), 1)
        z_grid = np.arange(self._z_last + 1) * h_z
        r_reach = math.hypot(r_lattice, self._z_last * h_z) * 1.001
        r_grid = np.arange(math.ceil(r_reach * self._r_inv_h) + 1) * h_r

        # --- spatial tables over R >= 0 ---
        # The evaluation-time terms are ``table / R``: the constant
        # 1/(8 pi) is folded into the tables at build time so the hot
        # loop never multiplies by it.
        inv8pi = 1.0 / (8.0 * math.pi)
        bracket = erfc_scaled_pair(r_grid, k, e)
        dbracket = erfc_scaled_pair_derivative(r_grid, k, e)
        self._image = _slope_form(bracket * inv8pi, dbracket * inv8pi)
        # Regularized primary numerator n(R) = bracket - 2 e^{jkR} and its
        # derivative (for the primary image with the free-space part
        # removed: term = n(R) / (8 pi R)), same 1/(8 pi) folding.
        exp_jkr = np.exp(1j * k * r_grid)
        self._primary = _slope_form((bracket - 2.0 * exp_jkr) * inv8pi,
                                    (dbracket - 2j * k * exp_jkr) * inv8pi)

        # --- spectral tables over |dz| >= 0, one per shell ---
        # Each shell's table is pre-multiplied by its mode coefficient
        # ``coef = j / (4 L^2 gamma)`` (and the minus table additionally
        # by ``j gamma``, its derivative factor), so the per-shell
        # accumulation is a bare multiply-add.
        area = lat * lat
        nmod = cfg.n_modes
        self._modes = [(m, n) for m in range(-nmod, nmod + 1)
                       for n in range(-nmod, nmod + 1)]
        self._images = [(p, q) for p in range(-nim, nim + 1)
                        for q in range(-nim, nim + 1)]
        self._gamma: dict[int, complex] = {}
        self._shells: dict[int, np.ndarray] = {}
        for m, n in self._modes:
            s = m * m + n * n
            if s in self._gamma:
                continue
            kx = 2.0 * math.pi * m / lat
            ky = 2.0 * math.pi * n / lat
            g = complex(_gamma_mn(k, np.array(kx), np.array(ky)))
            coef = 1j / (4.0 * area * g)
            minus_coef = (1j * g) * coef
            minus = np.asarray(ewald_spectral_bracket_minus(z_grid, g, e))
            self._gamma[s] = g
            self._shells[s] = _slope_form(
                np.asarray(ewald_spectral_bracket(z_grid, g, e)) * coef,
                minus * minus_coef)
        self._reg0 = self._regular_at_zero()

    # ------------------------------------------------------------------

    def covers(self, z_extent: float) -> bool:
        """Whether the tables cover every ``|dz| <= z_extent``.

        Exact, not a margin: it compares the same grid position a
        lookup computes, so a covering table returns the bits of any
        longer table of its configuration.
        """
        return float(z_extent) * self._z_inv_h <= self._z_last

    def shares_grids(self, other: "KernelTables") -> bool:
        """Whether ``other`` samples the same nodes.

        True when both have the same period, node spacings and
        image/mode sets — the condition for one set of gather indices
        and phase sums to serve both in :func:`green_and_gradient_multi`.
        Table lengths may differ.
        """
        return (
            self.period == other.period
            and self._r_inv_h == other._r_inv_h
            and self._z_inv_h == other._z_inv_h
            and self._images == other._images
            and self._modes == other._modes
        )

    def regular_at_zero(self) -> complex:
        """``(G^pq - G_free)`` at zero separation (for diagonal self terms).

        A pure function of the table, computed once at construction.
        """
        return self._reg0

    def _regular_at_zero(self) -> complex:
        g = _primary_minus_free_limit(self.k, self.cfg.effective_split)
        e = self.cfg.effective_split
        lat = self.period
        # Non-primary spatial images at zero separation.
        for (p, q) in self._images:
            if p == 0 and q == 0:
                continue
            r = math.hypot(p * lat, q * lat)
            g += complex(erfc_scaled_pair(np.array(r), self.k, e)) / (8.0 * math.pi * r)
        # Spectral part at dz = 0.
        area = lat * lat
        for (m, n) in self._modes:
            gamma = self._gamma[m * m + n * n]
            b0 = complex(ewald_spectral_bracket(np.array(0.0), gamma, e))
            g += b0 * (1j / (4.0 * area * gamma))
        return g

    def green_and_gradient(self, dx: np.ndarray, dy: np.ndarray,
                           dz: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Regularized kernel and gradient at the given (wrapped) separations.

        Returns ``(G_reg, Gx_reg, Gy_reg, Gz_reg)`` where "reg" means the
        free-space primary singularity has been subtracted (same contract
        as ``periodic_green(..., exclude_primary=True)``). The one-table
        case of :func:`green_and_gradient_multi`.
        """
        return green_and_gradient_multi((self,), dx, dy, dz)[0]


def green_and_gradient_multi(tables, dx: np.ndarray, dy: np.ndarray,
                             dz: np.ndarray,
                             phases: ShellPhases | None = None
                             ) -> list[tuple]:
    """Evaluate several tables' kernels at once.

    In-plane separations ``dx``/``dy`` must be minimum-image wrapped
    (``|dx|, |dy| <= L/2``); the inputs broadcast, so shared ``(M,)``
    pair offsets with a stacked ``(B, M)`` ``dz`` give ``(B, M)``
    outputs. Distances, gather indices and the shell phase
    sums are computed once and serve every table, so one call evaluates
    two media x F stacked frequencies (the
    :class:`~repro.swm.plan.AssemblyPlan3D` consumer); each table's
    result is bit-identical to evaluating it alone. ``phases`` passes
    precomputed :func:`shell_phase_sums` of ``(dx, dy)``; without it
    they are computed here.

    Returns ``[(g, gx, gy, gz), ...]`` in table order. Raises
    :class:`~repro.errors.ConfigurationError` when the tables do not
    share grids or ``dz`` exceeds the range of any of them (tables of
    different lengths share grids; the shortest bounds ``dz``).
    """
    tables = list(tables)
    if not tables:
        raise ConfigurationError(
            "green_and_gradient_multi needs at least one KernelTables")
    first = tables[0]
    if not all(first.shares_grids(tab) for tab in tables[1:]):
        raise ConfigurationError(
            "green_and_gradient_multi needs tables built on shared grids "
            "(same period and Ewald truncation)")

    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    shape = np.broadcast_shapes(dx.shape, dy.shape, dz.shape)
    # Grid position on the shared |dz| nodes; the radial tables reach
    # past every covered dz by construction.
    t_z = np.broadcast_to(np.abs(dz) * first._z_inv_h, shape)
    if not np.max(t_z) <= min(tab._z_last for tab in tables):
        raise ConfigurationError(
            "dz exceeds the tabulated z range; rebuild KernelTables "
            "with a larger z_extent"
        )
    half = 0.5 * first.period * (1.0 + 1e-9)
    if np.max(np.abs(dx)) > half or np.max(np.abs(dy)) > half:
        raise ConfigurationError(
            "in-plane separations must be wrapped to the minimum image "
            "(|dx|, |dy| <= L/2)")
    if phases is None:
        phases = shell_phase_sums(dx, dy, first.period, first.cfg.n_modes)
    elif (phases.period, phases.n_modes) != (first.period,
                                              first.cfg.n_modes):
        raise ConfigurationError(
            "shell phases were built for a different period or mode set")

    outs = [tuple(np.zeros(shape, dtype=np.complex128) for _ in range(4))
            for _ in tables]
    _add_images(tables, outs, dx, dy, dz)
    _add_shells(tables, outs, np.sign(dz), t_z, phases)
    return outs


def _add_images(tables, outs, dx, dy, dz) -> None:
    """Add every lattice image's spatial term to ``outs`` in place.

    Per image: one distance and gather position shared by all tables,
    then per table one gather from the packed radial table. With
    ``w = 1/R`` the term is ``g = b w`` and its gradient
    ``(db - b w) w^2 (rx, ry, dz)``.
    """
    first = tables[0]
    lat = first.period
    dz2 = dz * dz
    for (p, q) in first._images:
        rx = dx - p * lat
        ry = dy - q * lat
        r = np.sqrt(rx * rx + ry * ry + dz2)
        primary = (p == 0 and q == 0)
        if primary:
            r = np.maximum(r, 1e-300)
        idx, frac = _split(r * first._r_inv_h)
        w = 1.0 / r
        w2 = w * w
        for tab, (g, gx, gy, gz) in zip(tables, outs):
            b, db = _lerp(tab._primary if primary else tab._image, idx, frac)
            u = b * w
            g += u
            radial = (db - u) * w2
            gx += radial * rx
            gy += radial * ry
            gz += radial * dz


def _add_shells(tables, outs, sign, t_z, phases: ShellPhases) -> None:
    """Add every spectral shell's term to ``outs`` in place.

    The shell tables share the ``|dz|`` grid, hence one gather position
    ``t_z``; the specular shell has unit phase and no transverse
    gradient. The brackets' z-derivative is odd in ``dz``, so each
    table's shell z-gradient is summed at ``|dz|`` and takes ``sign``
    once.
    """
    idx, frac = _split(t_z)
    for tab, (g, gx, gy, gz) in zip(tables, outs):
        b, odd = _lerp(tab._shells[0], idx, frac)
        g += b
        for s, c, sx, sy in phases.shells:
            b, minus = _lerp(tab._shells[s], idx, frac)
            g += c * b
            gx += sx * b
            gy += sy * b
            odd += c * minus
        gz += sign * odd


def tables_for_mesh(k: complex, mesh: SurfaceMesh3D,
                    cfg: EwaldConfig) -> KernelTables:
    """Build tables sized for a mesh's height range."""
    z_extent = float(np.max(mesh.z) - np.min(mesh.z))
    return KernelTables(k, cfg, z_extent=z_extent)
