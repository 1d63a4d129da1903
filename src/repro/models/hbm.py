"""Hemispherical boss model (HBM) — the paper's Fig. 5 reference curve.

HBM (Hall et al., IEEE TMTT 2007, the paper's ref. [5]) models surface
protrusions as conducting (hemi)spherical bosses on a flat plane and uses
the analytic response of a conducting sphere in the local magnetic field.

Physics implemented here:

- exact complex magnetic polarizability of a conducting sphere with
  finite skin depth (Landau & Lifshitz, ECM sec. 59)::

      alpha(x) = -2 pi a^3 [1 - 3/x^2 + (3/x) cot(x)],   x = k2 a

  (SI convention: dipole moment m = alpha * H0; PEC limit
  ``alpha -> -2 pi a^3``);
- absorbed power ``P = (omega mu0 / 2) Im(alpha) |H0|^2`` (checked in the
  tests against the surface-impedance asymptote
  ``P -> 3 pi Rs a^2 |H0|^2``);
- boss-on-plane bookkeeping: a hemispherical boss absorbs half of the
  full sphere's power (image theory) and removes the flat-disc absorption
  ``(Rs/2) |H0|^2 pi a^2`` it covers, so for one boss per tile of area A

      Pr/Ps = 1 - pi a^2 / A + P_hemi / (A (Rs/2) |H0|^2);

  the high-frequency limit is ``1 + 2 pi a^2 / A``;
- spheroidal bosses: the spheroid's transverse demagnetizing factor
  replaces the sphere's 1/3 in ``alpha = V chi / (1 + n_t chi)`` while the
  skin-depth physics is carried by the sphere's intrinsic susceptibility
  ``chi(x) = -3 F(x) / (2 + F(x))``, ``F = 1 - 3/x^2 + (3/x) cot x``.
  This shape correction is an approximation (exact spheroid eddy-current
  solutions involve spheroidal wavefunctions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import MU_0
from ..errors import ConfigurationError
from ..materials import Conductor


def _stable_cot(x: complex) -> complex:
    """cot(x) computed stably for Im(x) >= 0 (avoids exp overflow)."""
    e = np.exp(2j * x)  # decays for Im(x) > 0
    return 1j * (e + 1.0) / (e - 1.0)


def sphere_shape_function(x: complex) -> complex:
    """``F(x) = 1 - 3/x^2 + (3/x) cot(x)`` (Landau's bracket).

    ``F -> 1`` as ``|x| -> inf`` (PEC) and ``F -> 0`` as ``x -> 0``
    (transparent: skin depth much larger than the sphere).

    The direct formula subtracts two ``O(1/x^2)`` terms against an
    ``O(x^2)`` result — a relative error of ``~45 eps / |x|^4`` — so for
    ``|x| < 0.3`` the Laurent series of ``cot`` is used instead:

        F(x) = -x^2/15 - 2 x^4/315 - x^6/1575 - O(x^8).
    """
    x = complex(x)
    if abs(x) < 0.3:
        x2 = x * x
        return -x2 / 15.0 - 2.0 * x2 * x2 / 315.0 - x2 * x2 * x2 / 1575.0
    return 1.0 - 3.0 / (x * x) + (3.0 / x) * _stable_cot(x)


def sphere_magnetic_polarizability(radius_m: float, frequency_hz: float,
                                   conductor: Conductor = Conductor()
                                   ) -> complex:
    """Complex magnetic polarizability ``alpha`` of a conducting sphere [m^3].

    ``m = alpha H0``; PEC limit ``-2 pi a^3``.
    """
    if radius_m <= 0.0:
        raise ConfigurationError(f"radius must be positive, got {radius_m}")
    x = conductor.wavenumber(frequency_hz) * radius_m
    return -2.0 * math.pi * radius_m ** 3 * sphere_shape_function(x)


def sphere_absorbed_power(radius_m: float, frequency_hz: float,
                          h_field: float = 1.0,
                          conductor: Conductor = Conductor()) -> float:
    """Power absorbed by a conducting sphere in a uniform H field [W].

    ``P = (omega mu0 / 2) Im(alpha) |H0|^2`` — the eddy-current loss;
    approaches ``3 pi Rs a^2 |H0|^2`` at small skin depth.
    """
    alpha = sphere_magnetic_polarizability(radius_m, frequency_hz, conductor)
    omega = 2.0 * math.pi * frequency_hz
    p = 0.5 * omega * MU_0 * alpha.imag * h_field ** 2
    # Im(alpha) > 0 in the e^{-j omega t} convention used throughout.
    return float(p)


def _transverse_demagnetizing_factor(aspect: float) -> float:
    """Demagnetizing factor for the field *transverse* to a spheroid's
    symmetry axis; ``aspect = c/a`` (polar/equatorial semi-axes).

    ``n_t = (1 - n_z) / 2`` with the standard axial factor ``n_z``:
    prolate (aspect > 1) and oblate (aspect < 1) closed forms; sphere
    gives exactly 1/3.
    """
    if aspect <= 0.0:
        raise ConfigurationError(f"aspect must be positive, got {aspect}")
    if abs(aspect - 1.0) < 1e-9:
        return 1.0 / 3.0
    if aspect > 1.0:  # prolate
        e = math.sqrt(1.0 - 1.0 / (aspect * aspect))
        nz = ((1.0 - e * e) / e ** 3) * (math.atanh(e) - e)
    else:  # oblate
        e = math.sqrt(1.0 / (aspect * aspect) - 1.0)
        nz = ((1.0 + e * e) / e ** 3) * (e - math.atan(e))
    return 0.5 * (1.0 - nz)


def spheroid_magnetic_polarizability(equatorial_radius_m: float,
                                     polar_height_m: float,
                                     frequency_hz: float,
                                     conductor: Conductor = Conductor()
                                     ) -> complex:
    """Approximate transverse magnetic polarizability of a spheroid [m^3].

    Combines the sphere's skin-depth susceptibility with the spheroid's
    transverse demagnetizing factor (see module docstring). The effective
    ``x = k2 a_eff`` uses the volume-equivalent radius.
    """
    a = float(equatorial_radius_m)
    c = float(polar_height_m)
    if a <= 0.0 or c <= 0.0:
        raise ConfigurationError("spheroid semi-axes must be positive")
    volume = (4.0 / 3.0) * math.pi * a * a * c
    a_eff = (a * a * c) ** (1.0 / 3.0)
    x = conductor.wavenumber(frequency_hz) * a_eff
    f_x = sphere_shape_function(x)
    chi = -3.0 * f_x / (2.0 + f_x)
    n_t = _transverse_demagnetizing_factor(c / a)
    return volume * chi / (1.0 + n_t * chi)


@dataclass(frozen=True)
class HemisphericalBossModel:
    """HBM for a single (hemi)spheroidal boss per tile of area ``A``.

    Parameters mirror the paper's Fig. 5: boss height ``h`` (polar
    semi-axis of the half-spheroid), base diameter ``d`` (so equatorial
    radius a = d/2), tile area = the SWM patch area.
    """

    height_m: float
    base_diameter_m: float
    tile_area_m2: float
    conductor: Conductor = Conductor()

    def __post_init__(self) -> None:
        if self.height_m <= 0.0 or self.base_diameter_m <= 0.0:
            raise ConfigurationError("boss dimensions must be positive")
        base_area = math.pi * (self.base_diameter_m / 2.0) ** 2
        if base_area >= self.tile_area_m2:
            raise ConfigurationError(
                "boss base covers the whole tile; enlarge tile_area_m2"
            )

    @property
    def base_radius_m(self) -> float:
        return self.base_diameter_m / 2.0

    def hemiboss_absorbed_power(self, frequency_hz: float,
                                h_field: float = 1.0) -> float:
        """Power absorbed by the half-spheroid (half the image-completed
        full spheroid's power)."""
        alpha = spheroid_magnetic_polarizability(
            self.base_radius_m, self.height_m, frequency_hz, self.conductor)
        omega = 2.0 * math.pi * frequency_hz
        full = 0.5 * omega * MU_0 * alpha.imag * h_field ** 2
        return 0.5 * float(full)

    def enhancement(self, frequency_hz: np.ndarray) -> np.ndarray:
        """HBM loss-enhancement factor Pr/Ps (vectorized over frequency)."""
        freqs = np.atleast_1d(np.asarray(frequency_hz, dtype=np.float64))
        if np.any(freqs <= 0.0):
            raise ConfigurationError("frequencies must be positive")
        a = self.base_radius_m
        out = np.empty(freqs.shape, dtype=np.float64)
        for i, f in enumerate(freqs):
            rs = self.conductor.surface_resistance(float(f))
            flat_density = 0.5 * rs  # per |H0|^2
            p_boss = self.hemiboss_absorbed_power(float(f))
            pr = (self.tile_area_m2 - math.pi * a * a) * flat_density + p_boss
            out[i] = pr / (self.tile_area_m2 * flat_density)
        return out

    def high_frequency_limit(self) -> float:
        """PEC-sphere asymptote ``1 + 2 pi a^2 / A`` (for a spherical boss)."""
        a = self.base_radius_m
        return 1.0 + 2.0 * math.pi * a * a / self.tile_area_m2
