"""Karhunen-Loeve (KL) expansion of the correlated surface-height vector.

The SSCM (Section III-D of the paper) requires re-expressing the N
correlated Gaussian surface heights in terms of a *small* number M of
independent standard normals. The discrete KL expansion does exactly
this: with covariance matrix ``C = Phi Lambda Phi^T``,

    f = sum_{m=1}^{M} sqrt(lambda_m) * phi_m * xi_m,     xi_m ~ N(0, 1)

and M is chosen as the smallest number of modes capturing a target
fraction of the total variance ``trace(C)``. The retained dimension M is
what sets the sparse-grid sizes reported in the paper's Table I
(level-1 Smolyak has ``2M + 1`` nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import StochasticError
from .correlation import CorrelationFunction


@dataclass(frozen=True)
class KLExpansion:
    """Truncated discrete KL expansion on a set of grid points.

    Attributes
    ----------
    eigenvalues:
        The M retained eigenvalues, descending.
    modes:
        (N, M) matrix whose columns are the orthonormal eigenvectors.
    total_variance:
        ``trace(C)`` of the full covariance.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    total_variance: float

    @property
    def dimension(self) -> int:
        """Number of retained stochastic dimensions M."""
        return int(self.eigenvalues.size)

    @property
    def captured_fraction(self) -> float:
        """Fraction of the total variance captured by the truncation."""
        return float(np.sum(self.eigenvalues) / self.total_variance)

    def realize(self, xi: np.ndarray) -> np.ndarray:
        """Map independent standard normals ``xi`` (length M) to heights (length N)."""
        xi = np.asarray(xi, dtype=np.float64)
        if xi.shape != (self.dimension,):
            raise StochasticError(
                f"xi must have shape ({self.dimension},), got {xi.shape}"
            )
        return self.modes @ (np.sqrt(self.eigenvalues) * xi)


def build_kl(covariance: np.ndarray, energy_fraction: float = 0.95,
             max_modes: int | None = None) -> KLExpansion:
    """Eigendecompose a covariance matrix and truncate by energy fraction.

    Parameters
    ----------
    covariance:
        (N, N) symmetric positive semi-definite covariance matrix.
    energy_fraction:
        Keep the smallest M such that the retained eigenvalues sum to at
        least this fraction of ``trace(C)``.
    max_modes:
        Optional hard cap on M (sparse-grid cost grows with M).
    """
    c = np.asarray(covariance, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise StochasticError("covariance must be square")
    if not (0.0 < energy_fraction <= 1.0):
        raise StochasticError(
            f"energy_fraction must be in (0, 1], got {energy_fraction}"
        )
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(c).max())):
        raise StochasticError("covariance must be symmetric")

    evals, evecs = np.linalg.eigh(c)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evals = np.maximum(evals, 0.0)  # clip numerical negatives

    total = float(np.sum(evals))
    if total <= 0.0:
        raise StochasticError("covariance has no variance")
    cum = np.cumsum(evals) / total
    m = int(np.searchsorted(cum, energy_fraction) + 1)
    m = min(m, evals.size)
    if max_modes is not None:
        if max_modes < 1:
            raise StochasticError(f"max_modes must be >= 1, got {max_modes}")
        m = min(m, int(max_modes))
    return KLExpansion(
        eigenvalues=evals[:m].copy(),
        modes=evecs[:, :m].copy(),
        total_variance=total,
    )


def kl_from_correlation(correlation: CorrelationFunction, points: np.ndarray,
                        period: float | None = None,
                        energy_fraction: float = 0.95,
                        max_modes: int | None = None) -> KLExpansion:
    """Build the KL expansion for a CF sampled at grid ``points``.

    With ``period`` given, the minimum-image (periodic) covariance is used
    for consistency with the doubly-periodic surface model.
    """
    if period is not None:
        cov = correlation.periodic_covariance_matrix(points, period)
    else:
        cov = correlation.covariance_matrix(points)
    # Symmetrize against rounding before eigh.
    cov = 0.5 * (cov + cov.T)
    return build_kl(cov, energy_fraction=energy_fraction, max_modes=max_modes)
