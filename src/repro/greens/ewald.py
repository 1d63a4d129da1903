"""Doubly-periodic scalar Green's function via the Ewald method.

This implements the paper's eq. (8): the Green's function of a square
lattice (period ``L`` in both x and y) of 3D point sources at normal
incidence (zero Floquet phase), split Ewald-style into a Gaussian-screened
*spatial* image sum and a complementary *spectral* (Floquet-mode) sum, both
of which converge super-algebraically. Following ref. [16] of the paper
(Oroskar, Jackson & Wilton 2006), with the splitting parameter
``E = sqrt(pi)/L`` by default.

Derivation summary (verified by the unit tests in
``tests/test_greens_ewald.py``):

.. math::

    G^{pq}(\\Delta\\rho, \\Delta z)
      = \\sum_{pq} \\frac{1}{8\\pi R_{pq}}
        \\Big[e^{jkR}\\,\\mathrm{erfc}(R E + \\tfrac{jk}{2E})
            + e^{-jkR}\\,\\mathrm{erfc}(R E - \\tfrac{jk}{2E})\\Big]
      + \\sum_{mn} \\frac{j\\,e^{j k_{mn}\\cdot\\Delta\\rho}}{4 L^2 \\gamma_{mn}}
        \\Big[e^{j\\gamma \\Delta z}\\,\\mathrm{erfc}(-\\Delta z E - \\tfrac{j\\gamma}{2E})
            + e^{-j\\gamma \\Delta z}\\,\\mathrm{erfc}(\\Delta z E - \\tfrac{j\\gamma}{2E})\\Big]

with ``R_pq = |\\Delta r - (pL, qL, 0)|``,
``k_mn = (2\\pi m/L, 2\\pi n/L)`` and
``gamma_mn = sqrt(k^2 - |k_mn|^2)`` on the ``Im(gamma) >= 0`` branch.
The result is independent of ``E`` (a key property test). For lossy ``k``
(``Im k > 0``) the direct image sum converges absolutely and provides an
independent reference implementation (:func:`periodic_green_direct`).

Lengths here are dimensionless ("solver units", micrometers in practice);
callers scale consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .freespace import green3d, green3d_radial_derivative
from .special import (
    erfc_complex,
    erfc_scaled_pair_with_derivative,
    ewald_spectral_brackets,
)


def _gamma_mn(k: complex, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Mode wavenumber ``sqrt(k^2 - kx^2 - ky^2)`` on the ``Im >= 0`` branch."""
    g = np.sqrt(np.asarray(k * k - kx * kx - ky * ky, dtype=np.complex128))
    flip = g.imag < 0.0
    g = np.where(flip, -g, g)
    # Pure-real negative-real-axis results would be ambiguous; numpy's
    # sqrt already returns the principal branch (Im >= 0) there.
    return g


@dataclass(frozen=True)
class EwaldConfig:
    """Truncation/splitting configuration for the Ewald sums.

    ``n_images``/``n_modes`` of 3 keep the neglected terms below ~1e-10
    for the default ``split = sqrt(pi)/L``; the defaults are validated by
    the truncation-convergence tests.
    """

    period: float
    split: float | None = None
    n_images: int = 3
    n_modes: int = 3
    _effective_split: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if self.n_images < 1 or self.n_modes < 1:
            raise ConfigurationError("n_images and n_modes must be >= 1")
        eff = self.split if self.split is not None else math.sqrt(math.pi) / self.period
        if eff <= 0.0:
            raise ConfigurationError(f"split parameter must be positive, got {eff}")
        object.__setattr__(self, "_effective_split", eff)

    @property
    def effective_split(self) -> float:
        """The splitting parameter E actually used."""
        return self._effective_split


def _image_offsets(cfg: EwaldConfig) -> list[tuple[int, int]]:
    n = cfg.n_images
    return [(p, q) for p in range(-n, n + 1) for q in range(-n, n + 1)]


def _mode_indices(cfg: EwaldConfig) -> list[tuple[int, int]]:
    n = cfg.n_modes
    return [(m, n2) for m in range(-n, n + 1) for n2 in range(-n, n + 1)]


def periodic_green(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                   k: complex, cfg: EwaldConfig,
                   exclude_primary: bool = False) -> np.ndarray:
    """Doubly-periodic Green's function ``G^pq`` at separations (dx, dy, dz).

    Parameters
    ----------
    dx, dy, dz:
        Components of ``r - r'`` (broadcastable arrays). ``(dx, dy)`` need
        not be reduced to the first unit cell.
    k:
        Medium wavenumber (``Im k >= 0``).
    cfg:
        Ewald truncation configuration (holds the period ``L``).
    exclude_primary:
        If True, the ``p = q = 0`` *spatial* image term is replaced by its
        Gaussian-screened remainder ``primary - G_free``, i.e. the
        free-space singularity ``e^{jkR}/(4 pi R)`` is subtracted. The
        result is then smooth at ``R -> 0`` (used for self-term assembly).

    The value of :func:`periodic_green_and_gradient`.
    """
    return periodic_green_and_gradient(dx, dy, dz, k, cfg,
                                       exclude_primary)[0]


def periodic_green_and_gradient(dx: np.ndarray, dy: np.ndarray,
                                dz: np.ndarray, k: complex,
                                cfg: EwaldConfig,
                                exclude_primary: bool = False
                                ) -> tuple[np.ndarray, ...]:
    """``G^pq`` and its gradient with respect to the *field* separation,
    ``(G, dG/d dx, dG/d dy, dG/d dz)``, from one image loop and one
    mode loop: each image's spatial bracket and its derivative, and each
    mode's phase and spectral brackets, are computed once and serve the
    value and the gradient.

    Arguments as for :func:`periodic_green`. With
    ``exclude_primary=True`` the gradient of the free-space primary is
    subtracted as well; the remainder's gradient vanishes at zero
    separation by symmetry (0 in x, y and z, see the module tests).
    """
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    dx, dy, dz = np.broadcast_arrays(dx, dy, dz)
    e = cfg.effective_split
    lat = cfg.period

    total = np.zeros(dx.shape, dtype=np.complex128)
    gx = np.zeros(dx.shape, dtype=np.complex128)
    gy = np.zeros(dx.shape, dtype=np.complex128)
    gz = np.zeros(dx.shape, dtype=np.complex128)

    # Spatial (screened image) sum.
    for (p, q) in _image_offsets(cfg):
        rx = dx - p * lat
        ry = dy - q * lat
        r = np.sqrt(rx * rx + ry * ry + dz * dz)
        primary = (p == 0 and q == 0)
        if primary:
            zero = r == 0.0
            if np.any(zero) and not exclude_primary:
                raise ConfigurationError(
                    "periodic Green's function called at zero separation "
                    "without exclude_primary=True"
                )
            safe = np.where(zero, 1.0, r)
        else:
            safe = r
        bracket, dbracket = erfc_scaled_pair_with_derivative(safe, k, e)
        term = bracket / (8.0 * np.pi * safe)
        # d/dr of [bracket/(8 pi r)] = bracket'/(8 pi r) - bracket/(8 pi r^2)
        radial = dbracket / (8.0 * np.pi * safe) - bracket / (8.0 * np.pi * safe ** 2)
        if primary and exclude_primary:
            term = term - green3d(safe, k)
            term = np.where(zero, _primary_minus_free_limit(k, e), term)
            radial = radial - green3d_radial_derivative(safe, k)
            # The remainder is an analytic function of r^2; its radial
            # derivative vanishes at r = 0.
            radial = np.where(zero, 0.0, radial)
        total += term
        inv = np.where(safe > 0.0, 1.0 / safe, 0.0)
        gx += radial * rx * inv
        gy += radial * ry * inv
        gz += radial * dz * inv

    # Spectral (Floquet mode) sum.
    area = lat * lat
    for (m, n) in _mode_indices(cfg):
        kx = 2.0 * np.pi * m / lat
        ky = 2.0 * np.pi * n / lat
        g = complex(_gamma_mn(k, np.array(kx), np.array(ky)))
        phase = np.exp(1j * (kx * dx + ky * dy))
        bracket, minus = ewald_spectral_brackets(dz, g, e)
        coef = 1j / (4.0 * area * g)
        total += phase * bracket * coef
        gx += 1j * kx * phase * bracket * coef
        gy += 1j * ky * phase * bracket * coef
        gz += phase * (1j * g) * minus * coef

    return total, gx, gy, gz


def _primary_minus_free_limit(k: complex, split: float) -> complex:
    """``lim_{R->0} [screened primary spatial term - e^{jkR}/(4 pi R)]``.

    With ``bracket(R) = e^{jkR} erfc(RE + jk/2E) + e^{-jkR} erfc(RE - jk/2E)``
    the limit equals ``[bracket'(0) - 2jk] / (8 pi)`` where::

        bracket'(0) = -2jk erf(jk/2E) - (4E/sqrt(pi)) exp(k^2/4E^2)

    (using ``erfc(c) - erfc(-c) = -2 erf(c)``).
    """
    e = float(split)
    c = 1j * k / (2.0 * e)
    erf_c = 1.0 - complex(erfc_complex(np.array(c)))
    dbracket0 = (-2j * k * erf_c
                 - (4.0 * e / math.sqrt(math.pi)) * np.exp(k * k / (4.0 * e * e)))
    return complex((dbracket0 - 2j * k) / (8.0 * math.pi))


def periodic_green_direct(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                          k: complex, period: float, n_images: int = 40,
                          exclude_primary: bool = False) -> np.ndarray:
    """Brute-force image summation reference (converges only for lossy k).

    Used by the test-suite to validate :func:`periodic_green` for
    conductor-like wavenumbers, where ``exp(-Im(k) R)`` makes the direct
    lattice sum absolutely convergent.
    """
    if k.imag <= 0.0:
        raise ConfigurationError(
            "direct image summation requires a lossy wavenumber (Im k > 0)"
        )
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    dx, dy, dz = np.broadcast_arrays(dx, dy, dz)
    total = np.zeros(dx.shape, dtype=np.complex128)
    for p in range(-n_images, n_images + 1):
        for q in range(-n_images, n_images + 1):
            if exclude_primary and p == 0 and q == 0:
                continue
            rx = dx - p * period
            ry = dy - q * period
            r = np.sqrt(rx * rx + ry * ry + dz * dz)
            total += green3d(r, k)
    return total
