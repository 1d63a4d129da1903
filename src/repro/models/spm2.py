"""Second-order small-perturbation method (SPM2) for the scalar model.

The paper compares SWM against the SPM2 of Gu, Tsang & Braunisch (ref.
[8]), which is derived for the vectorial EM problem. For a like-for-like
comparison we derive SPM2 for the *same scalar two-medium problem* that
SWM solves, so the two must agree in the small-roughness limit by
construction (this is exactly the regime logic of the paper's Figs. 3-4,
and it is enforced by an integration test).

Derivation:

Zeroth order (flat interface, normal incidence):
    R0 = (k1 - beta k2)/(k1 + beta k2),  T0 = 2 k1/(k1 + beta k2).

First order (Rayleigh amplitudes per roughness mode k, with
``gamma_i = sqrt(k_i^2 - k^2)``, Im >= 0):
    t1(k) = T0 [k1^2 - beta k2^2 - gamma1 k2 (1-beta)] / (j (gamma1 + beta gamma2))
    r1(k) = t1(k) - j k2 T0 (1 - beta)

(the combination ``beta k2^2 = k1^2`` holds identically for a good
conductor because ``delta^2 = rho/(pi f mu)``, which cancels the leading
term — a nice structural check).

Second order, coherent (specular) amplitude R2 from the order-sigma^2
boundary-condition balance:
    I_r = int W(k) r1(k) d^2k,  I_t likewise,
    I_A = int W(k) [j gamma1 r1 + j gamma2 t1] d^2k - (sigma^2/2) T0 (k1^2 - k2^2)
    R2 = [ -j beta k2 I_A - beta k2^2 I_t + (sigma^2/2) j beta k2^3 T0
           + k1^2 I_r - (sigma^2/2) j k1^3 (1 - R0) ] / (j (k1 + beta k2))

Because the dielectric wavelength is enormous compared to the roughness
scale, every non-specular reflected mode is evanescent and carries no
power; scalar flux conservation in the (lossless) dielectric then gives

    Pr/Ps = 1 - 2 Re(R0* R2) / (1 - |R0|^2).

Like all SPM2 variants this is accurate for small roughness
(``sigma`` small against ``delta`` and ``eta``) and fails for large —
which is what Fig. 5 demonstrates.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..materials import PAPER_SYSTEM, TwoMediumSystem
from ..surfaces.correlation import CorrelationFunction


def _branch_sqrt(z: np.ndarray) -> np.ndarray:
    """sqrt with the Im >= 0 branch (decaying/outgoing convention)."""
    g = np.sqrt(np.asarray(z, dtype=np.complex128))
    return np.where(g.imag < 0.0, -g, g)


def _first_order_amplitudes(k: np.ndarray, k1: complex, k2: complex,
                            beta: complex) -> tuple[np.ndarray, np.ndarray]:
    """(r1, t1) per transverse roughness wavenumber array ``k``."""
    t0 = 2.0 * k1 / (k1 + beta * k2)
    g1 = _branch_sqrt(k1 * k1 - k * k)
    g2 = _branch_sqrt(k2 * k2 - k * k)
    numer = k1 * k1 - beta * k2 * k2 - g1 * k2 * (1.0 - beta)
    t1 = t0 * numer / (1j * (g1 + beta * g2))
    r1 = t1 - 1j * k2 * t0 * (1.0 - beta)
    return r1, t1


def _coherent_r2(correlation: CorrelationFunction, k1: complex, k2: complex,
                 beta: complex, n_quad: int, dimension: int) -> complex:
    """Second-order coherent reflection correction R2.

    ``dimension=2`` integrates the isotropic 2D spectrum (3D surface),
    ``dimension=1`` the 1D spectrum (y-uniform surface, for the 2D SWM).
    """
    ref = correlation.reference_length
    k_max = 80.0 / ref
    k = np.linspace(0.0, k_max, n_quad + 1)[1:]  # skip k = 0 (zero measure)
    if dimension == 2:
        w = correlation.spectrum_2d(k)
        measure = 2.0 * math.pi * k * np.gradient(k)
    elif dimension == 1:
        w = correlation.spectrum_1d(k)
        measure = 2.0 * np.gradient(k)  # +/- k folded
    else:
        raise ConfigurationError(f"dimension must be 1 or 2, got {dimension}")

    r1, t1 = _first_order_amplitudes(k, k1, k2, beta)
    g1 = _branch_sqrt(k1 * k1 - k * k)
    g2 = _branch_sqrt(k2 * k2 - k * k)

    sigma2 = correlation.sigma ** 2
    t0 = 2.0 * k1 / (k1 + beta * k2)
    r0 = (k1 - beta * k2) / (k1 + beta * k2)

    i_r = np.sum(w * r1 * measure)
    i_t = np.sum(w * t1 * measure)
    i_a = (np.sum(w * (1j * g1 * r1 + 1j * g2 * t1) * measure)
           - 0.5 * sigma2 * t0 * (k1 * k1 - k2 * k2))

    numer = (-1j * beta * k2 * i_a
             - beta * k2 * k2 * i_t
             + 0.5j * sigma2 * beta * k2 ** 3 * t0
             + k1 * k1 * i_r
             - 0.5j * sigma2 * k1 ** 3 * (1.0 - r0))
    return complex(numer / (1j * (k1 + beta * k2)))


def spm2_enhancement(frequency_hz: np.ndarray,
                     correlation: CorrelationFunction,
                     system: TwoMediumSystem = PAPER_SYSTEM,
                     n_quad: int = 4000) -> np.ndarray:
    """SPM2 loss-enhancement factor Pr/Ps for a 3D random rough surface.

    Parameters
    ----------
    frequency_hz:
        Frequencies in Hz (scalar or array).
    correlation:
        Surface correlation function with lengths in **meters**.
    system:
        Dielectric/conductor pair.
    n_quad:
        Number of radial quadrature points for the spectral integrals.
    """
    return _enhancement(frequency_hz, correlation, system, n_quad, dimension=2)


def spm2_enhancement_profile(frequency_hz: np.ndarray,
                             correlation: CorrelationFunction,
                             system: TwoMediumSystem = PAPER_SYSTEM,
                             n_quad: int = 4000) -> np.ndarray:
    """SPM2 for a y-uniform (2D) surface — the closed-form partner of the
    2D SWM solver, using the 1D roughness spectrum."""
    return _enhancement(frequency_hz, correlation, system, n_quad, dimension=1)


def _enhancement(frequency_hz: np.ndarray, correlation: CorrelationFunction,
                 system: TwoMediumSystem, n_quad: int,
                 dimension: int) -> np.ndarray:
    freqs = np.atleast_1d(np.asarray(frequency_hz, dtype=np.float64))
    if np.any(freqs <= 0.0):
        raise ConfigurationError("frequencies must be positive")
    if n_quad < 100:
        raise ConfigurationError(f"n_quad too small: {n_quad}")
    out = np.empty(freqs.shape, dtype=np.float64)
    for i, f in enumerate(freqs):
        k1 = complex(system.k1(float(f)))
        k2 = system.k2(float(f))
        beta = system.beta(float(f))
        r0 = (k1 - beta * k2) / (k1 + beta * k2)
        r2 = _coherent_r2(correlation, k1, k2, beta, n_quad, dimension)
        denom = 1.0 - abs(r0) ** 2
        out[i] = 1.0 - 2.0 * (np.conj(r0) * r2).real / denom
    return out
