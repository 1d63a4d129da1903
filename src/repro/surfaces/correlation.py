"""Spatial correlation functions (CFs) of random rough surfaces.

The paper characterizes a 3D random rough surface as a stationary Gaussian
process with standard deviation ``sigma`` and an isotropic spatial
correlation function ``C(d)`` (its Section II). Three CFs appear:

- :class:`GaussianCorrelation` — ``C(d) = sigma^2 exp(-d^2/eta^2)``
  (Figs. 2, 3, 6, 7, Table I);
- :class:`ExtractedCorrelation` — the measurement-extracted eq. (12)
  ``C(d) = sigma^2 exp{-(d/eta1)[1 - exp(-d/eta2)]}`` (Fig. 4, Table I);
- :class:`ExponentialCorrelation` — classic exponential CF (extension,
  useful for stress-testing SPM2 validity);
- :class:`MaternCorrelation` — Matern family (extension) interpolating
  between exponential and Gaussian smoothness.

Each CF exposes the 2D (isotropic) and 1D roughness power spectra

.. math::

    W_2(k) = \\frac{1}{2\\pi}\\int_0^\\infty C(d)\\,J_0(k d)\\, d\\, \\mathrm{d}d,
    \\qquad
    W_1(k) = \\frac{1}{2\\pi}\\int_{-\\infty}^{\\infty} C(|x|) e^{-jkx} \\mathrm{d}x

normalized so that ``integral W_2 d^2k = integral W_1 dk = sigma^2``.
Analytic forms are used where available; otherwise a cached numerical
Hankel/Fourier transform is used (needed for eq. (12)).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import j0, kv

from ..errors import ConfigurationError

#: Rows of ``k`` per block of the numeric spectral transforms.
_SPECTRUM_BLOCK = 256


class CorrelationFunction(ABC):
    """Isotropic correlation function of a stationary surface process."""

    def __init__(self, sigma: float) -> None:
        if sigma <= 0.0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    @abstractmethod
    def __call__(self, d: np.ndarray) -> np.ndarray:
        """Correlation ``C(d)`` at (non-negative) lag distances ``d``."""

    @property
    @abstractmethod
    def reference_length(self) -> float:
        """A characteristic lateral scale (used for integration cutoffs)."""

    # ------------------------------------------------------------------
    # Spectra. Subclasses override with analytic forms when available.
    # ------------------------------------------------------------------

    def spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        """Isotropic 2D power spectrum ``W_2(k)`` (numerical Hankel by default)."""
        return self._numeric_spectrum_2d(k)

    def spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        """1D power spectrum ``W_1(k)`` (numerical cosine transform by default)."""
        return self._numeric_spectrum_1d(k)

    def _lag_grid(self) -> tuple[np.ndarray, float]:
        d_max = 40.0 * self.reference_length
        n = 4096
        d = np.linspace(0.0, d_max, n)
        return d, d[1] - d[0]

    def _numeric_transform(self, k: np.ndarray, kernel, weight,
                           norm: float) -> np.ndarray:
        """``(1/norm) int_0^inf weight(d) kernel(k d) dd`` by the
        trapezoid rule on the lag grid, one row per ``k``.

        Rows are formed ``_SPECTRUM_BLOCK`` at a time: each row's sum is
        the one a single ``(k, lag)`` array gives, but the temporaries
        stay ``_SPECTRUM_BLOCK x 4096`` instead of growing with ``k``.
        """
        k = np.asarray(k, dtype=np.float64).ravel()
        d, dd = self._lag_grid()
        w = weight(d)
        out = np.empty(k.size)
        for lo in range(0, k.size, _SPECTRUM_BLOCK):
            hi = lo + _SPECTRUM_BLOCK
            rows = kernel(np.outer(k[lo:hi], d)) * w[None, :]
            out[lo:hi] = np.trapezoid(rows, dx=dd, axis=1) / norm
        return out

    def _numeric_spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        # W2(k) = (1/2pi) * int_0^inf C(d) J0(k d) d dd   (trapezoid)
        return self._numeric_transform(k, j0, lambda d: self(d) * d,
                                       2.0 * math.pi)

    def _numeric_spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        # even integrand: W1 = (1/pi) * int_0^inf C(d) cos(kd) dd
        return self._numeric_transform(k, np.cos, self, math.pi)

    # ------------------------------------------------------------------
    # Derived quantities used throughout the library.
    # ------------------------------------------------------------------

    def variance(self) -> float:
        """``C(0) = sigma^2``."""
        return self.sigma ** 2

    def slope_variance_2d(self) -> float:
        """Mean-square *total* slope ``<|grad f|^2>`` of the 3D surface.

        Equals ``-laplacian C at 0 = integral k^2 W_2(k) d^2 k``; computed
        spectrally (subclasses may override with closed forms).
        """
        k = np.linspace(0.0, 40.0 / self.reference_length, 8192)
        w = self.spectrum_2d(k)
        return float(np.trapezoid(k ** 3 * w, k) * 2.0 * math.pi)

    def slope_variance_1d(self) -> float:
        """Mean-square slope ``<f_x^2>`` of the 1D profile."""
        k = np.linspace(0.0, 40.0 / self.reference_length, 8192)
        w = self.spectrum_1d(k)
        return float(2.0 * np.trapezoid(k ** 2 * w, k))

    def covariance_matrix(self, points: np.ndarray) -> np.ndarray:
        """Covariance matrix ``C(|p_i - p_j|)`` for an (N, ndim) point set."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ConfigurationError("points must have shape (N, ndim)")
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        return self(dist)

    def periodic_covariance_matrix(self, points: np.ndarray,
                                   period: float) -> np.ndarray:
        """Covariance with the *minimum-image* distance on a periodic patch.

        The doubly-periodic patch assumption (Section III-B of the paper)
        makes the surface process periodic; using the wrapped distance
        keeps the covariance consistent with the periodic synthesis.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ConfigurationError("points must have shape (N, ndim)")
        diff = points[:, None, :] - points[None, :, :]
        diff = diff - period * np.round(diff / period)
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        return self(dist)


class GaussianCorrelation(CorrelationFunction):
    """Gaussian CF ``C(d) = sigma^2 exp(-d^2 / eta^2)`` (the paper's default)."""

    def __init__(self, sigma: float, eta: float) -> None:
        super().__init__(sigma)
        if eta <= 0.0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        self.eta = float(eta)

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return self.sigma ** 2 * np.exp(-(d / self.eta) ** 2)

    @property
    def reference_length(self) -> float:
        return self.eta

    def spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        s2, e2 = self.sigma ** 2, self.eta ** 2
        return s2 * e2 / (4.0 * math.pi) * np.exp(-(k ** 2) * e2 / 4.0)

    def spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        return (self.sigma ** 2 * self.eta / (2.0 * math.sqrt(math.pi))
                * np.exp(-(k ** 2) * self.eta ** 2 / 4.0))

    def slope_variance_2d(self) -> float:
        # -lap C(0) = 4 sigma^2 / eta^2 for the isotropic Gaussian CF.
        return 4.0 * self.sigma ** 2 / self.eta ** 2

    def slope_variance_1d(self) -> float:
        return 2.0 * self.sigma ** 2 / self.eta ** 2

    def __repr__(self) -> str:
        return f"GaussianCorrelation(sigma={self.sigma}, eta={self.eta})"


class ExponentialCorrelation(CorrelationFunction):
    """Exponential CF ``C(d) = sigma^2 exp(-d/eta)``.

    Non-differentiable at 0 (fractal-like surfaces); the slope variance
    diverges, so SWM results are discretization-limited — useful for
    demonstrating where closed-form models are untrustworthy.
    """

    def __init__(self, sigma: float, eta: float) -> None:
        super().__init__(sigma)
        if eta <= 0.0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        self.eta = float(eta)

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return self.sigma ** 2 * np.exp(-d / self.eta)

    @property
    def reference_length(self) -> float:
        return self.eta

    def spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        s2, e = self.sigma ** 2, self.eta
        return s2 * e * e / (2.0 * math.pi) * (1.0 + (k * e) ** 2) ** (-1.5)

    def spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        return self.sigma ** 2 * self.eta / math.pi / (1.0 + (k * self.eta) ** 2)

    def __repr__(self) -> str:
        return f"ExponentialCorrelation(sigma={self.sigma}, eta={self.eta})"


class ExtractedCorrelation(CorrelationFunction):
    """The measurement-extracted CF of the paper's eq. (12).

    ``C(d) = sigma^2 exp{ -(d/eta1) [1 - exp(-d/eta2)] }`` with the Fig. 4
    parameters ``sigma = 1 um``, ``eta1 = 1.4 um``, ``eta2 = 0.53 um``
    (from Braunisch et al., ref. [4]). No closed-form spectrum exists; the
    numerical Hankel transform of the base class is used (and cached).

    Near ``d = 0`` this CF behaves like ``exp(-d^2/(eta1*eta2))``, i.e.
    Gaussian-smooth with effective correlation length
    ``sqrt(eta1 * eta2)``; at large ``d`` it decays exponentially.
    """

    def __init__(self, sigma: float, eta1: float, eta2: float) -> None:
        super().__init__(sigma)
        if eta1 <= 0.0 or eta2 <= 0.0:
            raise ConfigurationError(
                f"eta1 and eta2 must be positive, got {eta1}, {eta2}"
            )
        self.eta1 = float(eta1)
        self.eta2 = float(eta2)
        self._spec2_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._spec1_cache: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return self.sigma ** 2 * np.exp(
            -(d / self.eta1) * (1.0 - np.exp(-d / self.eta2))
        )

    @property
    def reference_length(self) -> float:
        return math.sqrt(self.eta1 * self.eta2)

    def _cached(self, which: str, k: np.ndarray) -> np.ndarray:
        """Interpolate the numeric spectrum from a cached dense table."""
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
        cache = self._spec2_cache if which == "2d" else self._spec1_cache
        if cache is None:
            kt = np.linspace(0.0, 80.0 / self.reference_length, 4096)
            wt = (self._numeric_spectrum_2d(kt) if which == "2d"
                  else self._numeric_spectrum_1d(kt))
            # Clip tiny negative tail values from the truncated transform.
            wt = np.maximum(wt, 0.0)
            cache = (kt, wt)
            if which == "2d":
                self._spec2_cache = cache
            else:
                self._spec1_cache = cache
        kt, wt = cache
        return np.interp(k, kt, wt, right=0.0)

    def spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        return self._cached("2d", k)

    def spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        return self._cached("1d", k)

    def __repr__(self) -> str:
        return (f"ExtractedCorrelation(sigma={self.sigma}, "
                f"eta1={self.eta1}, eta2={self.eta2})")


class MaternCorrelation(CorrelationFunction):
    """Matern CF (extension): smoothness parameter ``nu`` interpolates
    between exponential (``nu = 1/2``) and Gaussian (``nu -> inf``).

    ``C(d) = sigma^2 * 2^{1-nu}/Gamma(nu) * (sqrt(2 nu) d/eta)^nu
    * K_nu(sqrt(2 nu) d/eta)``.
    """

    def __init__(self, sigma: float, eta: float, nu: float = 1.5) -> None:
        super().__init__(sigma)
        if eta <= 0.0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        if nu <= 0.0:
            raise ConfigurationError(f"nu must be positive, got {nu}")
        self.eta = float(eta)
        self.nu = float(nu)

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        scaled = math.sqrt(2.0 * self.nu) * d / self.eta
        out = np.full(d.shape, self.sigma ** 2, dtype=np.float64)
        pos = scaled > 0.0
        sp = scaled[pos]
        coef = self.sigma ** 2 * 2.0 ** (1.0 - self.nu) / gamma_fn(self.nu)
        out[pos] = coef * sp ** self.nu * kv(self.nu, sp)
        return out

    @property
    def reference_length(self) -> float:
        return self.eta

    def spectrum_2d(self, k: np.ndarray) -> np.ndarray:
        # 2D Matern spectral density:
        # W2(k) = sigma^2 * nu * (2nu/eta^2)^nu * Gamma(nu+1) /
        #         (pi * Gamma(nu) * nu) ... use the standard closed form:
        # W2(k) = sigma^2 * (4 pi nu / eta^2)^... ; we use the general
        # d-dimensional Matern density with d = 2:
        #   W(k) = sigma^2 * Gamma(nu + 1) (2 nu)^nu /
        #          (pi Gamma(nu) eta^{2 nu}) * (2 nu/eta^2 + k^2)^{-(nu+1)}
        k = np.asarray(k, dtype=np.float64)
        a = 2.0 * self.nu / self.eta ** 2
        coef = (self.sigma ** 2 * gamma_fn(self.nu + 1.0) * a ** self.nu
                / (math.pi * gamma_fn(self.nu)))
        return coef * (a + k ** 2) ** (-(self.nu + 1.0))

    def spectrum_1d(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        a = 2.0 * self.nu / self.eta ** 2
        coef = (self.sigma ** 2 * gamma_fn(self.nu + 0.5) * a ** self.nu
                / (math.sqrt(math.pi) * gamma_fn(self.nu)))
        return coef * (a + k ** 2) ** (-(self.nu + 0.5))

    def __repr__(self) -> str:
        return (f"MaternCorrelation(sigma={self.sigma}, eta={self.eta}, "
                f"nu={self.nu})")
